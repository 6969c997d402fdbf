import math

import numpy as np
import pytest

import setcalc as sc
from setcalc import SingleEntryVector
from setcalc.errors import DimensionMismatchError, UnboundedSetError, UnsupportedOperationError
from conftest import random_box_2d, random_polygon, random_unit_direction, random_zonotope_2d
from minkowski_reference import reference_polygon_minkowski


def test_minkowski_sum_boxes():
    out = sc.minkowski_sum(sc.BallInf(np.zeros(2), 1.0), sc.BallInf(np.zeros(2), 1.0))
    assert np.allclose(out.center, [0, 0])
    assert np.allclose(out.radius_vector, [2, 2])
    ivl = sc.minkowski_sum(sc.Interval(0, 1), sc.Interval(-2, 0.5))
    assert isinstance(ivl, sc.Interval)
    assert (ivl.lo, ivl.hi) == (-2.0, 1.5)


def test_minkowski_sum_zonotopes():
    Z1 = sc.Zonotope([1.0, 0.0], np.array([[1.0], [0.5]]))
    Z2 = sc.Zonotope([0.0, 2.0], np.array([[0.0, 1.0], [1.0, 1.0]]))
    out = sc.minkowski_sum(Z1, Z2)
    assert np.allclose(out.center, [1, 2])
    assert out.generators.shape == (2, 3)


def test_minkowski_sum_unsupported_pair(demo_polygon):
    with pytest.raises(UnsupportedOperationError):
        sc.minkowski_sum(demo_polygon, sc.HalfSpace([1.0, 0.0], 1.0))


def test_minkowski_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        sc.minkowski_sum(sc.BallInf(np.zeros(2), 1.0), sc.BallInf(np.zeros(3), 1.0))


def _octagon_polygon(rng):
    # Vertices at some of the eight multiples of 45 degrees: edges of two such
    # polygons are parallel or meet at multiples of 45 degrees.
    k = np.sort(rng.choice(8, size=int(rng.integers(3, 9)), replace=False))
    radius = rng.uniform(0.5, 2.0, len(k)) if rng.random() < 0.5 else rng.uniform(0.5, 2.0)
    return sc.VPolygon(np.column_stack((np.cos(k * math.pi / 4), np.sin(k * math.pi / 4))) * np.reshape(radius, (-1, 1)))


def test_polygon_minkowski_matches_pairwise_sums():
    rng = np.random.default_rng(101)
    for trial in range(60):
        P = random_polygon(rng) if trial < 30 else _octagon_polygon(rng)
        Q = random_polygon(rng) if trial < 20 else _octagon_polygon(rng)
        out = sc.minkowski_sum(P, Q)
        # Oracle: hull of all pairwise vertex sums.
        sums = np.array([p + q for p in P.vertices for q in Q.vertices])
        expected = sc.VPolygon(sums)
        assert out.num_vertices == expected.num_vertices
        assert np.allclose(out.vertices, expected.vertices, atol=1e-7)


def test_minkowski_support_additivity():
    rng = np.random.default_rng(109)
    pairs = []
    for _ in range(6):
        pairs.append((random_box_2d(rng), random_box_2d(rng)))
        pairs.append((random_zonotope_2d(rng), random_zonotope_2d(rng)))
        pairs.append((random_polygon(rng), random_polygon(rng)))
    for X, Y in pairs:
        S = sc.minkowski_sum(X, Y)
        for _ in range(50):
            d = random_unit_direction(rng)
            lhs = sc.support_function(d, S)
            rhs = sc.support_function(d, X) + sc.support_function(d, Y)
            assert lhs == pytest.approx(rhs, abs=1e-8)


def _near_tie_polygon():
    # The vertex (100, 0) stays (it is 2.5e-8 off the chord past it), and
    # the two bottom edges meet at an angle of 5e-10 rad.
    return sc.VPolygon([[0.0, 0.0], [100.0, 0.0], [200.0, 5e-8], [100.0, 50.0]])


def _triangle(angle):
    """A triangle whose bottom edge lies at ``angle`` rad."""
    return sc.VPolygon([[0.0, 0.0], [10.0 * math.cos(angle), 10.0 * math.sin(angle)], [0.0, 5.0]])


def test_polygon_minkowski_matches_the_merge_loop_bit_for_bit():
    assert [100.0, 0.0] in _near_tie_polygon().vertices.tolist()
    rng = np.random.default_rng(26)
    makers = (
        lambda: random_polygon(rng, 1.0, 12),
        lambda: _octagon_polygon(rng),
        lambda: sc.VPolygon(rng.uniform(-1.0, 1.0, (2, 2))),
        lambda: sc.VPolygon(rng.uniform(-1.0, 1.0, (1, 2))),
        lambda: sc.VPolygon([]),
        _near_tie_polygon,
        # Between the near-tie polygon's bottom edges: fuses with the first.
        lambda: _triangle(3e-10),
    )
    ctx = sc.ToleranceContext()
    for trial in range(600):
        scale = 10.0 ** rng.integers(-6, 9)
        P, Q = (makers[k]() for k in rng.choice(len(makers), 2, p=[0.4, 0.2, 0.12, 0.08, 0.05, 0.1, 0.05]))
        P, Q = sc.VPolygon(P.vertices * scale), sc.VPolygon(Q.vertices * scale)
        out = sc.concrete_ops._polygon_minkowski(P, Q, ctx).vertices
        assert np.array_equal(out, reference_polygon_minkowski(P, Q, ctx).vertices)


def test_polygon_minkowski_fuses_an_edge_with_its_neighbour_in_angle_order():
    # The triangle's bottom edge is within 1e-9 rad of both bottom edges of
    # the near-tie polygon, and past both.  The merge loop fused it with the
    # first of them; the sort fuses it with the second, its neighbour in
    # angle order, and so keeps the vertex (100, 0) of the exact sum.
    # Either way the result is the sum to within atol.
    P, Q = _near_tie_polygon(), _triangle(7e-10)
    exact = sc.VPolygon([p + q for p in P.vertices for q in Q.vertices])
    D = np.column_stack((np.cos(np.linspace(0, 2 * math.pi, 64)), np.sin(np.linspace(0, 2 * math.pi, 64))))
    for X, Y in ((P, Q), (Q, P)):
        out = sc.minkowski_sum(X, Y)
        assert [100.0, 0.0] in out.vertices.tolist()
        assert np.allclose(out.support_batch(D)[0], exact.support_batch(D)[0], rtol=0.0, atol=1e-8)


def test_minkowski_sum_of_mixed_2d_pairs(demo_polygon):
    # A polygon with a box, a zonotope, a bounded H-polyhedron or a 2-D
    # V-polytope sums in either order, as the lazy sum concretizes.
    Z = sc.Zonotope([0.5, -1.0], [[1.0, 0.3, -0.2], [0.1, 0.8, 0.6]])
    others = (
        sc.Hyperrectangle([1.0, 2.0], [0.5, 0.25]),
        Z,
        sc.HPolytope(Z.constraints_list()),
        sc.HPolyhedron(Z.constraints_list()),
        sc.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]]),
    )
    for X in others:
        expected = sc.VPolygon([p + q for p in demo_polygon.vertices for q in X.vertices_list()])
        for A, B in ((demo_polygon, X), (X, demo_polygon)):
            out = sc.minkowski_sum(A, B)
            assert isinstance(out, sc.VPolygon)
            assert out.num_vertices == expected.num_vertices
            assert np.allclose(out.vertices, expected.vertices, atol=1e-9)
            assert out == sc.concretize(sc.make_node("MinkowskiSum", [A, B]))
    for X, error in (
        (sc.HalfSpace([1.0, 0.0], 1.0), UnsupportedOperationError),
        (sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 1.0)]), UnboundedSetError),
    ):
        for A, B in ((demo_polygon, X), (X, demo_polygon)):
            with pytest.raises(error):
                sc.minkowski_sum(A, B)


def test_polygon_sum_takes_one_hull(hull_calls):
    rng = np.random.default_rng(31)
    for _ in range(10):
        P, Q = random_polygon(rng), _octagon_polygon(rng)
        del hull_calls[:]
        sc.minkowski_sum(P, Q)
        assert len(hull_calls) == 1 and hull_calls[0] <= P.num_vertices + Q.num_vertices


def test_intersection_halfspaces():
    out = sc.intersection(sc.HalfSpace([1.0], 1.0), sc.HalfSpace([-1.0], 0.0))
    assert isinstance(out, sc.HPolyhedron) and not isinstance(out, sc.HPolytope)
    assert len(out.constraints) == 2
    assert not sc.is_empty(out)


def test_intersection_disjoint_boxes_is_empty():
    out = sc.intersection(sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([3.0, 3.0], 1.0))
    assert sc.is_empty(out)


def test_intersection_box_halfspace_support_oracle():
    rng = np.random.default_rng(113)
    X = sc.BallInf([0.0, 0.0], 2.0)
    H = sc.HalfSpace([1.0, 0.0], 1.0)
    out = sc.intersection(X, H)
    joint = sc.HPolytope(X.constraints_list() + [H])
    for _ in range(20):
        d = random_unit_direction(rng)
        assert sc.support_function(d, out) == pytest.approx(
            sc.support_function(d, joint), abs=1e-8
        )


def test_intersection_boxes_touching():
    out = sc.intersection(sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([2.0, 0.0], 1.0))
    assert not sc.is_empty(out)
    assert np.allclose(out.radius_vector, [0.0, 1.0])


def test_intersection_prune():
    big = sc.BallInf([0.0, 0.0], 5.0)
    small = sc.BallInf([0.0, 0.0], 1.0)
    raw = sc.intersection(sc.HPolytope(big.constraints_list()), sc.HPolytope(small.constraints_list()))
    pruned = sc.intersection(
        sc.HPolytope(big.constraints_list()),
        sc.HPolytope(small.constraints_list()),
        prune=True,
    )
    assert len(raw.constraints) == 8
    assert len(pruned.constraints) == 4
    assert sc.is_equivalent(raw, pruned)


def test_fastpath_clamps_interval():
    X = sc.BallInf(np.zeros(10), 2.0)
    H = sc.HalfSpace(SingleEntryVector(0, 10, 1.0).dense(), 1.0)
    out = sc.intersection_fastpath(X, H)
    assert isinstance(out, sc.Hyperrectangle)
    assert np.allclose(out.low[0], -2.0) and np.allclose(out.high[0], 1.0)
    assert np.allclose(out.low[1:], -2.0) and np.allclose(out.high[1:], 2.0)


def test_fastpath_no_clamp_and_empty():
    X = sc.BallInf(np.zeros(3), 2.0)
    loose = sc.intersection_fastpath(X, sc.HalfSpace(SingleEntryVector(0, 3, 1.0).dense(), 5.0))
    assert np.allclose(loose.low, X.low) and np.allclose(loose.high, X.high)
    empty = sc.intersection_fastpath(X, sc.HalfSpace(SingleEntryVector(0, 3, 1.0).dense(), -3.0))
    assert sc.is_empty(empty)


def test_fastpath_equals_generic():
    rng = np.random.default_rng(127)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        box = sc.Hyperrectangle(rng.uniform(-2, 2, n), rng.uniform(0.2, 2.0, n))
        index = int(rng.integers(0, n))
        value = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        offset = float(rng.uniform(-2.0, 2.0))
        H = sc.HalfSpace(SingleEntryVector(index, n, value).dense(), offset)
        fast = sc.intersection_fastpath(box, H)
        generic = sc.HPolytope(box.constraints_list() + [H])
        if sc.is_empty(fast):
            assert sc.is_empty(generic)
        else:
            assert not sc.is_empty(generic)
            assert sc.is_equivalent(fast, generic)


def _raised(build):
    try:
        build()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


def test_box_from_arrays_checks_like_the_constructor():
    for center, radius in [
        ([0.0, np.inf], [1.0, 1.0]),
        ([np.nan, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, -np.inf]),
        ([0.0, 0.0], [np.nan, 1.0]),
        ([0.0, 0.0], [1.0, -0.5]),
        ([1e200, 1e200], [1e200, 1e200]),  # the sums of squares overflow, the entries do not
    ]:
        with np.errstate(over="ignore"):
            public = _raised(lambda: sc.Hyperrectangle(center, radius))
            private = _raised(lambda: sc.Hyperrectangle._from_arrays(np.array(center), np.array(radius)))
        assert private == public
    box = sc.Hyperrectangle._from_arrays(np.array([1.0, 2.0]), np.array([0.5, 0.0]))
    assert box == sc.Hyperrectangle([1.0, 2.0], [0.5, 0.0])
    assert not box.center.flags.writeable and not box.radius.flags.writeable
    with pytest.raises(AttributeError):
        box.center = np.zeros(2)


def test_boxes_built_from_arrays_raise_on_an_overflowing_midpoint():
    # Every bound is finite, but (lo + hi) / 2 overflows to inf.
    with np.errstate(over="ignore"):
        X = sc.Hyperrectangle([1e308, 0.0], [0.5e308, 1.0])
        H = sc.HalfSpace([1.0, 0.0], 1.6e308)
        with pytest.raises(ValueError, match="finite"):
            sc.intersection_fastpath(X, H)
        with pytest.raises(ValueError, match="finite"):
            sc.intersection(X, sc.Hyperrectangle([1.2e308, 0.0], [0.5e308, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            sc.minkowski_sum(X, X)
        with pytest.raises(ValueError, match="finite"):
            X.translate([1e308, 0.0])


def test_single_entry_vector_validation():
    with pytest.raises(ValueError):
        SingleEntryVector(5, 3, 1.0)
    with pytest.raises(ValueError):
        SingleEntryVector(0, 3, 0.0)


def test_cartesian_product_boxes():
    out = sc.cartesian_product(sc.Interval(0, 1), sc.Interval(0, 1))
    assert isinstance(out, sc.Hyperrectangle)
    assert np.allclose(out.center, [0.5, 0.5])
    assert np.allclose(out.radius_vector, [0.5, 0.5])


def test_cartesian_product_zonotopes():
    Z = sc.Zonotope([0.0], np.array([[1.0]]))
    box = sc.Hyperrectangle([1.0, 2.0], [0.5, 0.5])
    out = sc.cartesian_product(Z, box)
    assert isinstance(out, sc.Zonotope)
    assert out.dim == 3
    assert out.num_generators == 3


def test_cartesian_product_support_rule():
    rng = np.random.default_rng(131)
    X = random_box_2d(rng)
    Y = random_box_2d(rng)
    prod = sc.cartesian_product(X, Y)
    for _ in range(30):
        d1 = random_unit_direction(rng)
        d2 = random_unit_direction(rng)
        lhs = sc.support_function(np.concatenate([d1, d2]), prod)
        rhs = sc.support_function(d1, X) + sc.support_function(d2, Y)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_convex_hull_union_idempotent():
    box = sc.BallInf([0.0, 0.0], 1.0)
    hull = sc.convex_hull_union(box, box)
    assert sc.is_equivalent(hull, box)


def test_convex_hull_union_oracle():
    rng = np.random.default_rng(137)
    for _ in range(20):
        P = random_polygon(rng)
        Q = random_polygon(rng)
        out = sc.convex_hull_union(P, Q)
        expected = sc.VPolygon(np.vstack([P.vertices, Q.vertices]))
        assert np.allclose(out.vertices, expected.vertices)


def test_linear_map_identity_equivalent():
    box = sc.BallInf([0.5, -0.5], 1.0)
    out = sc.linear_map(np.eye(2), box)
    assert sc.is_equivalent(out, box)


def test_linear_map_zonotope_rule(state_matrix):
    X0 = sc.BallInf([1.0, 0.0], 0.1)
    out = sc.linear_map(state_matrix, X0)
    assert isinstance(out, sc.Zonotope)
    assert np.allclose(out.center, state_matrix @ X0.center)
    assert np.allclose(out.generators, 0.1 * state_matrix)
    e1 = np.array([1.0, 0.0])
    expected = float(e1 @ out.center) + np.sum(np.abs(0.1 * state_matrix[0]))
    assert sc.support_function(e1, out) == pytest.approx(expected)


def test_linear_map_rotation_of_square():
    square = sc.VPolygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = sc.linear_map(R, square)
    assert sc.is_equivalent(out, square)


def test_linear_map_support_rule():
    rng = np.random.default_rng(139)
    for X in (random_box_2d(rng), random_zonotope_2d(rng), random_polygon(rng)):
        M = rng.uniform(-1.5, 1.5, (2, 2))
        out = sc.linear_map(M, X)
        for _ in range(30):
            d = random_unit_direction(rng)
            assert sc.support_function(d, out) == pytest.approx(
                sc.support_function(M.T @ d, X), abs=1e-8
            )


def test_linear_map_hrep_and_singular():
    box = sc.HPolytope(sc.BallInf([0.0, 0.0], 1.0).constraints_list())
    M = np.array([[2.0, 0.0], [0.0, 0.5]])
    out = sc.linear_map(M, box)
    assert sc.support_function([1.0, 0.0], out) == pytest.approx(2.0)
    assert sc.support_function([0.0, 1.0], out) == pytest.approx(0.5)
    with pytest.raises(UnsupportedOperationError):
        sc.linear_map(np.array([[1.0, 0.0], [1.0, 0.0]]), box)


def test_translate_paper_example():
    B2 = sc.translate(sc.BallInf([1.5, 2.0], 1.0), [1.5, -1.0])
    assert isinstance(B2, sc.BallInf)
    assert np.allclose(B2.center, [3.0, 1.0])
    assert B2.radius == 1.0


def test_translate_zero_and_roundtrip():
    rng = np.random.default_rng(149)
    poly = random_polygon(rng)
    assert np.allclose(sc.translate(poly, [0.0, 0.0]).vertices, poly.vertices)
    v = rng.uniform(-1, 1, 2)
    back = sc.translate(sc.translate(poly, v), -v)
    assert sc.is_equivalent(back, poly)


def test_translate_halfspace_containment():
    rng = np.random.default_rng(151)
    H = sc.HalfSpace([1.0, -2.0], 0.5)
    v = np.array([0.3, 0.7])
    out = sc.translate(H, v)
    assert out.offset == pytest.approx(0.5 + float(H.normal @ v))
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        assert sc.membership(x + v, out) == sc.membership(x, H)


def test_is_empty():
    assert sc.is_empty(sc.HPolyhedron([sc.HalfSpace([1.0], 0.0), sc.HalfSpace([-1.0], -1.0)]))
    assert not sc.is_empty(sc.BallInf(np.zeros(2), 1.0))
    rng = np.random.default_rng(157)
    for _ in range(10):
        point = rng.uniform(-1, 1, 3)
        cons = []
        for _ in range(5):
            a = rng.normal(size=3)
            cons.append(sc.HalfSpace(a, float(a @ point) + rng.uniform(0.1, 1.0)))
        assert not sc.is_empty(sc.HPolyhedron(cons))


def test_is_subset():
    inner = sc.cartesian_product(sc.Interval(-1, 1), sc.Interval(-1, 1))
    outer = sc.BallInf(np.zeros(2), 1.0)
    assert sc.is_subset(inner, outer)
    assert sc.is_subset(outer, inner)
    assert not sc.is_subset(sc.BallInf(np.zeros(2), 2.0), sc.BallInf(np.zeros(2), 1.0))


def test_zonotope_subset_of_its_box():
    rng = np.random.default_rng(163)
    for _ in range(10):
        Z = random_zonotope_2d(rng)
        box = sc.box_approximation(Z)
        assert sc.is_subset(Z, box)


def test_is_disjoint():
    assert sc.is_disjoint(sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([3.0, 3.0], 1.0))
    # Box reaches x1 in [-1, 1]; the half-space covers x1 <= -0.5.
    assert not sc.is_disjoint(sc.BallInf([0.0, 0.0], 1.0), sc.HalfSpace([1.0, 0.0], -0.5))
    assert sc.is_disjoint(sc.BallInf([0.0, 0.0], 1.0), sc.HalfSpace([1.0, 0.0], -1.5))
    # Touching boundaries are not disjoint.
    assert not sc.is_disjoint(sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([2.0, 0.0], 1.0))


def test_is_disjoint_shared_point():
    rng = np.random.default_rng(167)
    for _ in range(10):
        point = rng.uniform(-1, 1, 2)
        cons_a = [
            sc.HalfSpace(a, float(a @ point) + rng.uniform(0.05, 0.5))
            for a in rng.normal(size=(4, 2))
        ]
        cons_b = [
            sc.HalfSpace(a, float(a @ point) + rng.uniform(0.05, 0.5))
            for a in rng.normal(size=(4, 2))
        ]
        assert not sc.is_disjoint(sc.HPolyhedron(cons_a), sc.HPolyhedron(cons_b))


def test_is_disjoint_agrees_with_intersection_emptiness():
    rng = np.random.default_rng(173)
    for _ in range(30):
        A = random_box_2d(rng)
        B = random_box_2d(rng)
        assert sc.is_disjoint(A, B) == sc.is_empty(sc.intersection(A, B))


def test_is_equivalent():
    X = sc.cartesian_product(sc.Interval(-1, 1), sc.Interval(-1, 1))
    assert sc.is_equivalent(X, sc.BallInf(np.zeros(2), 1.0))
    assert not sc.is_equivalent(
        sc.BallInf(np.zeros(2), 1.0), sc.BallInf([0.5, 0.0], 1.0)
    )


def test_is_equivalent_hv_roundtrip():
    rng = np.random.default_rng(179)
    for _ in range(10):
        poly = random_polygon(rng)
        assert sc.is_equivalent(poly, sc.tovrep(sc.tohrep(poly)))
