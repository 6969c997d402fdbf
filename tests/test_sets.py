import itertools
import math
import warnings

import numpy as np
import pytest

import setcalc as sc
from setcalc.errors import (
    DimensionMismatchError,
    EmptySetError,
    UnboundedSetError,
    UnsupportedOperationError,
)
from conftest import random_unit_direction


def test_dim():
    assert sc.dim(sc.BallInf(np.zeros(1000), 1.0)) == 1000
    assert sc.dim(sc.Interval(0, 1)) == 1
    assert sc.dim(sc.Zonotope(np.zeros(3), np.ones((3, 5)))) == 3


def test_constructor_validation():
    with pytest.raises(ValueError):
        sc.HalfSpace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        sc.Hyperrectangle([0, 0], [1, -1])
    with pytest.raises(ValueError):
        sc.Interval(2, 1)
    with pytest.raises(ValueError):
        sc.BallInf([0, 0], -0.5)


def test_finiteness_checks_accept_huge_finite_entries():
    # Entries above sqrt(float max) are finite and valid: checking them must
    # not overflow.  No np.errstate here, so a RuntimeWarning from the
    # library fails the test (and tier-1 turns it into an error).
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        box = sc.Hyperrectangle([1e308, 0.0], [0.5e308, 1.0])
        assert box.center[0] == 1e308 and box.radius[0] == 0.5e308
        assert sc.Hyperrectangle._from_arrays(np.array([1e308, -1e308]), np.array([1e200, 1e308])).radius[1] == 1e308
        assert sc.support_function([1e200, 1.0], sc.BallInf([0.0, 0.0], 1.0)) == 1e200 + 1.0
        assert sc.Zonotope([1e200, 1e200], np.eye(2)).center[1] == 1e200
        np.testing.assert_array_equal(sc.support_vector([1e300, -1e300], sc.BallInf([0.0, 0.0], 1.0)), [1.0, -1.0])
        # Sums past the float range, and entries that are not finite.
        sc.Hyperrectangle([1e308, 1e308], [1e308, 1e308])
        for bad in ([np.inf, 0.0], [1e308, np.nan], [-np.inf, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                sc.Hyperrectangle(bad, [1.0, 1.0])
            with pytest.raises(ValueError, match="finite"):
                sc.Hyperrectangle._from_arrays(np.array([0.0, 0.0]), np.array(bad))
            with pytest.raises(ValueError, match="finite"):
                sc.support_function(bad, sc.BallInf([0.0, 0.0], 1.0))


def test_support_function_demo_polygon(demo_polygon):
    d = np.array([-1.0, 1.0])
    assert sc.support_function(d, demo_polygon) == pytest.approx(3.6, abs=1e-12)
    sigma = sc.support_vector(d, demo_polygon)
    assert np.allclose(sigma, [-3.0, 0.6], atol=1e-12)


def test_support_function_box():
    B = sc.BallInf(np.zeros(2), 1.0)
    assert sc.support_function([1.0, 1.0], B) == pytest.approx(2.0)
    assert np.allclose(sc.support_vector([1.0, 0.0], B), [1.0, 1.0])  # +1 tie-break


def test_support_function_zonotope_sign_enumeration():
    Z = sc.Zonotope([0.0, 0.0], np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    d = np.array([1.0, 1.0])
    # Oracle: all 2^3 sign assignments.
    best = max(
        float(d @ (Z.center + Z.generators @ np.array(s)))
        for s in itertools.product((-1.0, 1.0), repeat=3)
    )
    assert sc.support_function(d, Z) == pytest.approx(best, abs=1e-12)
    assert best == pytest.approx(4.0)


def test_support_vector_hyperrectangle_tiebreak():
    H = sc.Hyperrectangle([1.0, 4.0], [1.0, 1.0])
    sigma = sc.support_vector([0.0, 1.0], H)
    assert np.allclose(sigma, [2.0, 5.0])
    # Vertex enumeration confirms y=5 is maximal.
    assert max(v[1] for v in sc.vertices_list(H)) == pytest.approx(5.0)


def test_support_halfspace_and_hyperplane():
    H = sc.HalfSpace([1.0, 0.0], 1.0)
    assert sc.support_function([2.0, 0.0], H) == pytest.approx(2.0)
    assert sc.support_function([1.0, 1.0], H) == math.inf
    with pytest.raises(UnboundedSetError):
        sc.support_vector([1.0, 1.0], H)
    P = sc.Hyperplane([0.0, 1.0], 2.0)
    assert sc.support_function([0.0, -3.0], P) == pytest.approx(-6.0)
    assert sc.support_function([1.0, 0.0], P) == math.inf


def test_support_hpolyhedron_lp():
    region = sc.HPolyhedron([sc.HalfSpace([1.0], 1.0), sc.HalfSpace([-1.0], 0.0)])
    assert sc.support_function([1.0], region) == pytest.approx(1.0)
    assert sc.support_function([-1.0], region) == pytest.approx(0.0)
    half = sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 1.0)])
    assert sc.support_function([0.0, 1.0], half) == math.inf
    empty = sc.HPolyhedron([sc.HalfSpace([1.0], 0.0), sc.HalfSpace([-1.0], -1.0)])
    with pytest.raises(EmptySetError):
        sc.support_function([1.0], empty)


def test_membership():
    assert sc.membership(np.ones(1000), sc.BallInf(np.zeros(1000), 1.0))
    assert not sc.membership([2.0, 0.0], sc.BallInf(np.zeros(2), 1.0))
    Z = sc.Zonotope([0.0, 0.0], np.eye(2))
    assert sc.membership([1.0, 1.0], Z)
    assert not sc.membership([1.5, 0.0], Z)


def test_membership_polygon(demo_polygon):
    assert sc.membership([0.0, 0.0], demo_polygon)
    assert sc.membership([-3.0, 0.6], demo_polygon)  # vertex
    assert not sc.membership([3.0, 3.0], demo_polygon)


def test_vertices_list_box_matches_printed_order():
    got = [v.tolist() for v in sc.vertices_list(sc.BallInf([1.0, 4.0], 1.0))]
    assert got == [[2.0, 5.0], [0.0, 5.0], [2.0, 3.0], [0.0, 3.0]]


def test_vertices_list_interval():
    got = sorted(v[0] for v in sc.vertices_list(sc.Interval(0, 1)))
    assert got == [0.0, 1.0]


def test_vertices_list_zonotope_hull_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        Z = sc.Zonotope(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, m)))
        verts = {tuple(np.round(v, 9)) for v in sc.vertices_list(Z)}
        # Oracle: hull of all sign combinations.
        points = np.array(
            [Z.center + Z.generators @ np.array(s) for s in itertools.product((-1, 1), repeat=m)]
        )
        hull = sc.sets._convex_hull_2d(points)
        expected = {tuple(np.round(v, 9)) for v in hull}
        assert verts == expected


def test_vertices_list_unit_box_zonotope():
    Z = sc.Zonotope([0.0, 0.0], np.eye(2))
    verts = {tuple(v) for v in sc.vertices_list(Z)}
    assert verts == {(1, 1), (-1, 1), (1, -1), (-1, -1)}


def test_vertices_errors():
    with pytest.raises(UnboundedSetError):
        sc.vertices_list(sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 1.0)]))
    box3 = sc.HPolytope(sc.BallInf(np.zeros(3), 1.0).constraints_list())
    with pytest.raises(UnsupportedOperationError):
        sc.vertices_list(box3)


def test_constraints_list():
    B = sc.BallInf([0.0, 0.0], 1.0)
    cons = sc.constraints_list(B)
    assert len(cons) == 4
    assert all(abs(c.offset - 1.0) < 1e-12 for c in cons)
    H = sc.HalfSpace([1.0, 2.0], 3.0)
    assert sc.constraints_list(H) == [H]


def test_constraints_list_polygon(demo_polygon):
    cons = sc.constraints_list(demo_polygon)
    assert len(cons) == 7
    # Every original vertex satisfies every edge constraint.
    for v in demo_polygon.vertices_list():
        for c in cons:
            assert float(c.normal @ v) <= c.offset + 1e-9


def test_volume():
    assert sc.volume(sc.BallInf(np.zeros(3), 1.0)) == pytest.approx(8.0)
    assert sc.volume(sc.Hyperrectangle([0.0, 0.0], [1.0, 2.0])) == pytest.approx(8.0)
    assert sc.volume(sc.Interval(0, 1)) == pytest.approx(1.0)
    with pytest.raises(UnsupportedOperationError):
        sc.volume(sc.Zonotope([0.0], np.ones((1, 1))))


def test_sample():
    B = sc.BallInf(np.zeros(2), 1.0)
    points = sc.sample(B, 10, seed=5)
    assert len(points) == 10
    assert all(np.max(np.abs(p)) <= 1.0 for p in points)


def test_sample_polygon_members(demo_polygon):
    for p in sc.sample(demo_polygon, 100, seed=17):
        assert sc.membership(p, demo_polygon)


def test_sample_empty_errors():
    empty = sc.HPolyhedron([sc.HalfSpace([1.0], 0.0), sc.HalfSpace([-1.0], -1.0)])
    with pytest.raises(EmptySetError):
        sc.sample(empty, 1, seed=0)


def test_is_bounded():
    assert not sc.is_bounded(sc.HalfSpace([1.0, 0.0], 1.0))
    assert sc.is_bounded(sc.BallInf(np.zeros(5), 1.0))
    assert sc.is_bounded(sc.HPolyhedron([sc.HalfSpace([1.0], 1.0), sc.HalfSpace([-1.0], 0.0)]))
    assert not sc.is_bounded(sc.HPolyhedron([sc.HalfSpace([1.0], 1.0)]))


def test_an_element():
    assert np.allclose(sc.an_element(sc.BallInf([3.0, 1.0], 1.0)), [3.0, 1.0])
    P = sc.VPolygon([[0, 0], [1, 0], [0, 1]])
    assert np.allclose(sc.an_element(P), [0.0, 0.0])
    empty = sc.HPolyhedron([sc.HalfSpace([1.0], 0.0), sc.HalfSpace([-1.0], -1.0)])
    with pytest.raises(EmptySetError):
        sc.an_element(empty)


def _type_zoo(rng):
    yield sc.BallInf(rng.uniform(-1, 1, 2), rng.uniform(0.1, 2.0))
    yield sc.Hyperrectangle(rng.uniform(-1, 1, 3), rng.uniform(0.1, 2.0, 3))
    yield sc.Interval(-1.5, 0.5)
    yield sc.Zonotope(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 4)))
    yield sc.VPolygon(rng.uniform(-2, 2, (6, 2)))
    yield sc.VPolytope(rng.uniform(-2, 2, (5, 3)))
    box = sc.Hyperrectangle(rng.uniform(-1, 1, 2), rng.uniform(0.5, 1.5, 2))
    yield sc.HPolytope(box.constraints_list())


def test_support_vector_consistency_all_types():
    rng = np.random.default_rng(23)
    for X in _type_zoo(rng):
        for _ in range(100):
            d = random_unit_direction(rng, X.dim)
            rho = sc.support_function(d, X)
            sigma = sc.support_vector(d, X)
            assert sc.membership(sigma, X)
            assert float(d @ sigma) == pytest.approx(rho, abs=1e-7)


def test_support_batch_matches_single_directions():
    # A single direction is a batch of one: each row of a batched query
    # agrees with the scalar query along that row.
    rng = np.random.default_rng(29)
    for X in _type_zoo(rng):
        D = np.array([random_unit_direction(rng, X.dim) for _ in range(12)])
        values, vectors = X.support_batch(D, vectors=True)
        assert values.shape == (12,) and vectors.shape == (12, X.dim)
        assert X.support_batch(D)[1] is None
        for d, value, sigma in zip(D, values, vectors):
            assert value == pytest.approx(sc.support_function(d, X), rel=1e-12, abs=1e-12)
            assert sigma == pytest.approx(sc.support_vector(d, X), rel=1e-12, abs=1e-12)


def test_support_batch_flat_sets_and_validation():
    H = sc.HalfSpace([1.0, 0.0], 2.0)
    P = sc.Hyperplane([0.0, 1.0], 2.0)
    D = np.array([[2.0, 0.0], [-1.0, 0.0], [1.0, 1.0]])
    values, _ = H.support_batch(D)
    assert values.tolist() == [4.0, math.inf, math.inf]
    values, _ = P.support_batch(np.array([[0.0, -3.0], [0.0, 1.0], [1.0, 0.0]]))
    assert values.tolist() == [-6.0, 2.0, math.inf]
    with pytest.raises(UnboundedSetError):
        H.support_batch(D, vectors=True)
    _, vectors = H.support_batch(D[:1], vectors=True)
    assert vectors.tolist() == [[2.0, 0.0]]
    box = sc.BallInf(np.zeros(2), 1.0)
    with pytest.raises(DimensionMismatchError):
        box.support_batch(np.ones(2))
    with pytest.raises(DimensionMismatchError):
        box.support_batch(np.ones((4, 3)))
    with pytest.raises(ValueError):
        box.support_batch([[np.nan, 0.0]])


def test_convex_hull_merges_non_adjacent_near_duplicates():
    # (0, 0) and (1e-9, 1e-9) are near-duplicates separated in the
    # lexicographic sort by the real vertex (5e-10, -1); keeping both used
    # to pop that vertex as collinear.
    spatial = pytest.importorskip("scipy.spatial")
    points = np.array([[0.0, 0.0], [5e-10, -1.0], [1e-9, 1e-9], [0.5, 1.0], [1.0, 0.5]])
    expected = points[spatial.ConvexHull(points).vertices]
    hull = sc.VPolygon(points).vertices
    assert len(hull) == len(expected) == 4
    for vertex in expected:
        assert np.min(np.max(np.abs(hull - vertex), axis=1)) == 0.0


def test_box_zonotope_support_agrees_with_lp():
    rng = np.random.default_rng(31)
    for _ in range(20):
        box = sc.Hyperrectangle(rng.uniform(-2, 2, 2), rng.uniform(0.1, 2.0, 2))
        Z = sc.Zonotope(rng.uniform(-2, 2, 2), rng.uniform(-1, 1, (2, 3)))
        for X in (box, Z):
            H = sc.HPolytope(X.constraints_list())
            for _ in range(10):
                d = random_unit_direction(rng)
                assert sc.support_function(d, X) == pytest.approx(
                    sc.support_function(d, H), abs=1e-8
                )


def test_vpolygon_hv_consistency():
    rng = np.random.default_rng(47)
    for _ in range(20):
        points = rng.uniform(-3, 3, (int(rng.integers(3, 10)), 2))
        poly = sc.VPolygon(points)
        if poly.num_vertices < 3:
            continue
        region = sc.HPolytope(poly.constraints_list())
        for p in points:
            assert sc.membership(p, region)


def test_ballinf_equals_hyperrectangle_behavior():
    rng = np.random.default_rng(53)
    c = rng.uniform(-1, 1, 2)
    B = sc.BallInf(c, 0.7)
    H = sc.Hyperrectangle(c, [0.7, 0.7])
    assert sc.dim(B) == sc.dim(H)
    assert sc.volume(B) == pytest.approx(sc.volume(H))
    assert sc.is_bounded(B) and sc.is_bounded(H)
    assert np.allclose(sc.an_element(B), sc.an_element(H))
    assert sorted(map(tuple, sc.vertices_list(B))) == sorted(map(tuple, sc.vertices_list(H)))
    bc = [(tuple(h.normal), h.offset) for h in sc.constraints_list(B)]
    hc = [(tuple(h.normal), h.offset) for h in sc.constraints_list(H)]
    assert bc == hc
    for _ in range(50):
        d = random_unit_direction(rng)
        assert sc.support_function(d, B) == sc.support_function(d, H)
        assert np.array_equal(sc.support_vector(d, B), sc.support_vector(d, H))
        x = rng.uniform(-2, 2, 2)
        assert sc.membership(x, B) == sc.membership(x, H)


def test_vpolygon_canonical_form():
    # Duplicates and interior points are dropped; order starts at the
    # lexicographically smallest vertex and proceeds counter-clockwise.
    poly = sc.VPolygon([[1, 1], [0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0]])
    assert poly.vertices.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]


def test_degenerate_polygon_membership():
    segment = sc.VPolygon([[0, 0], [2, 2]])
    assert sc.membership([1.0, 1.0], segment)
    assert not sc.membership([1.0, 1.2], segment)
    point = sc.VPolygon([[1, 2]])
    assert sc.membership([1.0, 2.0], point)
    assert not sc.membership([1.1, 2.0], point)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_flat_membership_by_weights_does_not_loosen_with_scale(scale):
    # A triangle and a parallelogram in the plane x + y + z = 0 of 3-D space,
    # whose membership is an LP over weights: a point 1e-3 off the plane
    # (1e5 atol) is outside at every scale, and the origin inside.
    normal = np.ones(3) / np.sqrt(3.0)
    flat = [
        sc.VPolytope(scale * np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])),
        sc.Zonotope(np.zeros(3), scale * np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])),
    ]
    for X in flat:
        assert X.contains(np.zeros(3))
        assert not X.contains(1e-3 * normal)
        assert not X.contains(-1e-3 * normal)


def _subclasses(cls):
    out, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("setcalc"):
                out.append(sub)
                stack.append(sub)
    return out


def test_only_convexset_defines_scalar_support():
    # Every set answers scalar queries as a batch of one through _support_batch.
    overriding = [
        cls.__name__
        for cls in _subclasses(sc.ConvexSet)
        if "support_function" in vars(cls) or "support_vector" in vars(cls)
    ]
    assert overriding == []


def test_concrete_sets_are_immutable():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    samples = [
        sc.HalfSpace([1.0, 0.0], 1.0),
        sc.Hyperplane([1.0, 0.0], 1.0),
        sc.Hyperrectangle([0.0, 0.0], [1.0, 2.0]),
        sc.BallInf([0.0, 0.0], 1.0),
        sc.Interval(0.0, 1.0),
        sc.Zonotope([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 1.0)]),
        sc.HPolytope(sc.BallInf([0.0, 0.0], 1.0).constraints_list()),
        sc.VPolygon(square),
        sc.VPolytope(square),
    ]
    concrete = {cls for cls in _subclasses(sc.ConcreteSet) if not cls.__name__.startswith(("_", "Abstract"))}
    assert {type(X) for X in samples} == concrete
    for X in samples:
        before = repr(X)
        assert vars(X)
        for name in list(vars(X)):
            with pytest.raises(AttributeError):
                setattr(X, name, 5.0)
        assert repr(X) == before


def test_hyperplane_is_not_a_half_space():
    P = sc.Hyperplane([1.0, 2.0], 3.0)
    H = sc.HalfSpace([1.0, 2.0], 3.0)
    assert not isinstance(P, sc.HalfSpace) and not isinstance(H, sc.Hyperplane)
    assert P != H and H != P
    assert type(P.translate([1.0, 0.0])) is sc.Hyperplane
    assert P.translate([1.0, 0.0]) == sc.Hyperplane([1.0, 2.0], 4.0)
    with pytest.raises(ValueError, match="hyperplane"):
        sc.Hyperplane([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="half-space"):
        sc.HalfSpace([0.0, 0.0], 1.0)


def test_flat_sets_accept_any_nonzero_normal():
    # Only an all-zero normal is rejected; a tiny one bounds the same region as
    # its unit multiple, with the same tolerance band.
    for cls in (sc.HalfSpace, sc.Hyperplane):
        tiny, unit = cls([1e-9, 0.0], 1e-9), cls([1.0, 0.0], 1.0)
        for x in ([1.0 + 0.5e-8, 3.0], [1.0 + 2e-8, 3.0], [1.0, -3.0], [0.5, 0.0]):
            assert tiny.contains(x) == unit.contains(x)


def test_unconstrained_polyhedron_support():
    H = sc.HPolyhedron([], dim=2)
    assert H.support_function([0.0, 0.0]) == 0.0
    assert H.support_vector([0.0, 0.0]).tolist() == [0.0, 0.0]
    assert H.support_function([1.0, 0.0]) == math.inf
    with pytest.raises(UnboundedSetError):
        H.support_vector([1.0, 0.0])
