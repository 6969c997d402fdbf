import numpy as np
import pytest

import setcalc as sc
from setcalc import convert_to, tohrep, tovrep
from setcalc.errors import (
    DegeneratePolygonError,
    EmptySetError,
    UnboundedSetError,
    UnsupportedOperationError,
)
from conftest import random_polygon


def test_interval_conversions():
    X = sc.Interval(0, 1)
    H = convert_to(sc.Hyperrectangle, X)
    assert np.allclose(H.center, [0.5]) and np.allclose(H.radius, [0.5])
    Z = convert_to(sc.Zonotope, X)
    assert np.allclose(Z.center, [0.5]) and np.allclose(Z.generators, [[0.5]])
    P = convert_to(sc.HPolytope, X)
    assert len(P.constraints) == 2
    assert sc.is_equivalent(P, X)


def test_ballinf_conversions():
    B = sc.BallInf([1.0, -1.0], 0.5)
    assert sc.is_equivalent(convert_to(sc.Hyperrectangle, B), B)
    assert sc.is_equivalent(convert_to(sc.Zonotope, B), B)


def test_box_to_zonotope_structure():
    box = sc.Hyperrectangle([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
    Z = convert_to(sc.Zonotope, box)
    assert Z.num_generators == 3
    # Axis-aligned: each generator has a single nonzero entry.
    for j in range(3):
        column = Z.generators[:, j]
        assert np.count_nonzero(column) == 1


def test_box_to_zonotope_drops_flat_axes():
    box = sc.Hyperrectangle([0.0, 1.0], [1.0, 0.0])
    Z = convert_to(sc.Zonotope, box)
    assert Z.num_generators == 1
    assert sc.is_equivalent(Z, box)


def test_product_of_interval_and_box_is_3d_zonotope():
    node = sc.make_node(
        "CartesianProduct", [sc.Interval(0, 1), sc.Hyperrectangle([1.0, 2.0], [0.5, 0.25])]
    )
    Z = convert_to(sc.Zonotope, node)
    assert isinstance(Z, sc.Zonotope)
    assert Z.dim == 3
    for j in range(Z.num_generators):
        assert np.count_nonzero(Z.generators[:, j]) == 1


def test_unknown_conversion_raises(demo_polygon):
    with pytest.raises(UnsupportedOperationError):
        convert_to(sc.BallInf, demo_polygon)
    with pytest.raises(UnsupportedOperationError):
        convert_to(sc.Interval, sc.BallInf(np.zeros(2), 1.0))


def test_tohrep_square():
    square = sc.VPolygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    H = tohrep(square)
    assert len(H.constraints) == 4
    assert sc.is_equivalent(H, square)


def test_tohrep_demo_polygon(demo_polygon):
    assert len(tohrep(demo_polygon).constraints) == 7


def test_tohrep_degenerate():
    segment = sc.VPolygon([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(DegeneratePolygonError):
        tohrep(segment)


def test_tovrep_box():
    box = sc.HPolytope(sc.BallInf([0.0, 0.0], 1.0).constraints_list())
    P = tovrep(box)
    assert P.num_vertices == 4
    assert sc.is_equivalent(P, box)


def test_tovrep_octagon(demo_polygon):
    oct_poly = sc.overapproximate_template(demo_polygon, sc.oct_template())
    P = tovrep(oct_poly)
    assert P.num_vertices == 8


def test_tovrep_redundancy_invariance():
    box = sc.BallInf([0.0, 0.0], 1.0)
    plain = sc.HPolytope(box.constraints_list())
    redundant = sc.HPolytope(box.constraints_list() + [sc.HalfSpace([1.0, 1.0], 5.0)])
    assert np.allclose(tovrep(plain).vertices, tovrep(redundant).vertices)


def test_tovrep_errors():
    empty = sc.HPolytope(
        [sc.HalfSpace([1.0, 0.0], 0.0), sc.HalfSpace([-1.0, 0.0], -1.0)]
    )
    with pytest.raises(EmptySetError):
        tovrep(empty)
    wedge = sc.HPolytope([sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([0.0, 1.0], 1.0)])
    with pytest.raises(UnboundedSetError):
        tovrep(wedge)


def test_roundtrips_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        poly = random_polygon(rng)
        assert sc.is_equivalent(tovrep(tohrep(poly)), poly)
    for _ in range(10):
        box = sc.Hyperrectangle(rng.uniform(-2, 2, 2), rng.uniform(0.2, 2.0, 2))
        H = sc.HPolytope(box.constraints_list())
        assert sc.is_equivalent(tohrep(tovrep(H)), H)


def test_zonotope_to_polygon():
    Z = sc.Zonotope([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))
    P = convert_to(sc.VPolygon, Z)
    assert isinstance(P, sc.VPolygon)
    assert sc.is_equivalent(P, Z)


def test_box_to_polygon_2d():
    box = sc.Hyperrectangle([1.0, 2.0], [0.5, 0.25])
    P = convert_to(sc.VPolygon, box)
    assert sc.is_equivalent(P, box)
    assert sc.is_equivalent(convert_to(sc.HPolytope, box), box)


def test_2d_zonotope_h_representation_hulls_once(hull_calls):
    # The vertex list of a 2-D zonotope comes out of one _convex_hull_2d, so
    # its H-representation takes no second hull: through tohrep, and through
    # its own constraint rows (which a lazy intersection's operand reads).
    Z = sc.Zonotope([0.5, -1.0], [[1.0, 0.3, -0.2, 0.0], [0.1, 0.8, 0.6, 0.4]])
    expected = sc.VPolygon(Z.vertices_list())
    for query in (lambda: tohrep(Z), lambda: sc.HPolytope(Z.constraints_list())):
        hull_calls.clear()
        P = query()
        assert len(hull_calls) == 1
        assert sc.is_equivalent(P, expected)
