"""The 2-D kernels against independent oracles: qhull for zonotope vertices,
the pairwise loop for H-to-V (bit for bit), qhull and HiGHS for H-polygon
vertices and emptiness at any scale, HiGHS for boundedness, and LP counts."""

import math
import time

import numpy as np
import pytest

import setcalc as sc
import setcalc.numerics
import setcalc.sets
from hrep_reference import reference_hrep_vertices_2d
from setcalc.errors import EmptySetError, UnboundedSetError
from setcalc.numerics import ToleranceContext, resolve_tolerance


def _sector_maximizers(c, G):
    """One maximizer ``c + sign(d . G) G`` per open sector between the
    generator normals: every vertex of the zonotope, found without sorting
    the generators."""
    G = G[:, np.any(G != 0.0, axis=0)]
    normal = np.arctan2(G[1], G[0]) + 0.5 * math.pi
    cuts = np.sort(np.mod(np.concatenate((normal, normal + math.pi)), 2.0 * math.pi))
    mid = 0.5 * (cuts + np.append(cuts[1:], cuts[0] + 2.0 * math.pi))
    D = np.column_stack((np.cos(mid), np.sin(mid)))
    return c + np.where(D @ G >= 0.0, 1.0, -1.0) @ G.T


def test_zonotope_vertices_match_qhull_up_to_40_generators():
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(2024)
    for trial in range(120):
        m = int(rng.integers(2, 41))
        G = rng.uniform(-1.0, 1.0, (2, m))
        if trial % 3 == 0:
            # Parallel and anti-parallel copies of the first generator.
            k = max(1, m // 3)
            G[:, 1 : 1 + k] = G[:, [0]] * rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=k)
        if trial % 4 == 0:
            G[:, rng.integers(m, size=2)] = 0.0
        if np.linalg.matrix_rank(G) < 2:
            continue
        c = rng.uniform(-2.0, 2.0, 2)
        got = np.array(sc.vertices_list(sc.Zonotope(c, G)))
        points = _sector_maximizers(c, G)
        expected = points[spatial.ConvexHull(points).vertices]
        assert len(got) == len(expected)
        for vertex in expected:
            assert np.min(np.max(np.abs(got - vertex), axis=1)) <= 1e-9


def test_zonotope_vertices_degenerate_cases():
    # All generators on one line: a segment; no generators: the center.
    Z = sc.Zonotope([1.0, 0.0], [[1.0, -2.0, 0.0, 0.5], [1.0, -2.0, 0.0, 0.5]])
    got = sorted(tuple(v) for v in sc.vertices_list(Z))
    assert got == [(-2.5, -3.5), (4.5, 3.5)]
    assert [v.tolist() for v in sc.vertices_list(sc.Zonotope([1.0, 2.0], np.zeros((2, 3))))] == [[1.0, 2.0]]


def _distance_to_boundary(x, V):
    """Distance from x to the boundary of the convex polygon V (a point or a
    segment included)."""
    ends = np.roll(V, -1, axis=0)
    u = ends - V
    t = np.clip(((x - V) * u).sum(axis=1) / np.maximum((u * u).sum(axis=1), 1e-300), 0.0, 1.0)
    return float(np.min(np.hypot(*(V + t[:, None] * u - x).T)))


def _keeps_qhull_vertices(points, hull, atol):
    """Every vertex qhull finds lies within atol of the hull polygon: the
    polygon's vertices are input points, so a qhull vertex is on or outside
    it, and its distance to the boundary is its distance to the polygon."""
    spatial = pytest.importorskip("scipy.spatial")
    for vertex in points[spatial.ConvexHull(points).vertices]:
        assert _distance_to_boundary(vertex, hull) <= atol, (points.tolist(), hull.tolist())


def test_hull_keeps_the_ends_of_near_vertical_triples():
    atol = resolve_tolerance(None).atol
    assert np.array_equal(setcalc.sets._convex_hull_2d(np.array([[0.0, 0.0], [-1e-17, 1.0], [0.0, 2.0], [1.0, 1.0]])),
                          [[-1e-17, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    rng = np.random.default_rng(31)
    for _ in range(400):
        # Three points whose x lie within 1e-20 to 1e-9 of each other (the
        # monotone chain meets them in lexicographic order), and one off to a side.
        x0, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0, 3)
        triple = np.column_stack((x0 + rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-20.0, -9.0), y))
        side = [x0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)]
        points = np.vstack((triple, side))
        _keeps_qhull_vertices(points, setcalc.sets._convex_hull_2d(points), atol)


def test_thin_zonotope_keeps_its_corners():
    c, G = np.zeros(2), np.array([[1e-12, -1e-12, 1.0], [1.0, 1.0, 0.0]])
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    polygon = sc.convert_to(sc.VPolygon, sc.Zonotope(c, G))
    _keeps_qhull_vertices(c + signs @ G.T, polygon.vertices, resolve_tolerance(None).atol)


def _random_hrep(rng, m):
    A = rng.normal(size=(m, 2))
    if rng.random() < 0.3:
        A = np.round(A)  # parallel and repeated normals
    A[np.all(A == 0.0, axis=1)] = [1.0, 0.0]
    b = rng.uniform(-0.2, 1.0, size=m)
    if rng.random() < 0.3:
        b = np.round(b, 1)  # constraints through shared vertices
    return [sc.HalfSpace(a, float(o)) for a, o in zip(A, b)]


def test_hrep_vertices_match_pairwise_reference():
    ctx = resolve_tolerance(None)
    rng = np.random.default_rng(77)
    for _ in range(150):
        constraints = _random_hrep(rng, int(rng.integers(1, 40)))
        expected = reference_hrep_vertices_2d(constraints, ctx)
        H = sc.HPolyhedron(constraints)
        got = setcalc.sets._hpolygon_2d(H.A, H.b, ctx)[1]
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def _reference_suite(rng, ctx):
    """H-representations as rows (A, b), bounded and unbounded, each family
    aimed at one way the angle sweep can go wrong."""
    band = 10.0 * ctx.atol
    for case in range(2000):
        family = case % 4
        if family == 0:
            # Random normals, sometimes rounded (parallel and repeated normals)
            # and offsets rounded to tenths (lines through shared vertices).
            constraints = _random_hrep(rng, int(rng.integers(1, 17)))
            A, b = np.array([c.normal for c in constraints]), np.array([c.offset for c in constraints])
            if case % 40 == 0:
                # An offset of +inf holds everywhere, -inf and nan nowhere.
                b[rng.integers(len(b))] = rng.choice([math.inf, math.inf, -math.inf, math.nan])
        elif family == 1:
            # Duplicated rows, scaled copies included.
            constraints = _random_hrep(rng, int(rng.integers(2, 12)))
            A, b = np.array([c.normal for c in constraints]), np.array([c.offset for c in constraints])
            copies = rng.integers(len(b), size=int(rng.integers(1, 5)))
            scale = rng.choice([0.5, 1.0, 2.0, 3.0], size=len(copies))
            A, b = np.vstack((A, A[copies] * scale[:, None])), np.concatenate((b, b[copies] * scale))
        elif family == 2:
            # An antiparallel strip (possibly empty), capped on one side, both or none.
            width = rng.choice([-0.5, -band, 0.0, band, 0.5, 1.0])
            A, b = np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([width, 0.0])
            for side in rng.choice([-1.0, 1.0], size=int(rng.integers(0, 4))):
                angle = rng.uniform(-0.45, 0.45) * math.pi
                A = np.vstack((A, [side * math.cos(angle), math.sin(angle)]))
                b = np.append(b, rng.uniform(0.0, 1.0))
        else:
            # A thin box, its height just inside or just outside 10 atol of empty.
            height = band * rng.choice([-2.0, -1.1, -0.9, -0.5, 0.0, 0.5, 1.1])
            A = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
            b = np.array([height, 0.0, 1.0, 0.0])
            extra = rng.normal(size=(int(rng.integers(0, 6)), 2))
            # Extra rows touch the box, or miss it by a tolerance-sized gap or a wide one.
            b = np.concatenate((b, np.maximum(extra[:, 0], 0.0) + rng.choice([0.0, 0.3 * band, 2.0 * band, 0.5], len(extra))))
            A = np.vstack((A, extra))
        if family >= 2:
            A = A @ _rotation(rng.uniform(0.0, 2.0 * math.pi)).T
            if rng.random() < 0.5:
                A, b = np.round(A, 1), np.round(b, 1)
            A[np.all(A == 0.0, axis=1)] = [1.0, 0.0]
        order = rng.permutation(len(b))
        yield A[order], b[order]
    # Two nearly parallel rows pass near the top corners of a square and meet
    # at (L, 0), far from both: a row that is not near the corner whose group
    # tested them, x >= -1 for L = -500, must reject that intersection.
    for L in (-500.0, 500.0):
        yield np.array([[0.0, 1.0], [-1e-9, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([0.0, -1e-9 * L, 1, 1, 1])


def test_hpolygon_kernel_is_bit_identical_to_the_pairwise_reference():
    ctx = resolve_tolerance(None)
    rng = np.random.default_rng(2026)
    seen = set()
    for A, b in _reference_suite(rng, ctx):
        constraints = [sc.HalfSpace(a, float(o)) for a, o in zip(A, b)]
        H = sc.HPolyhedron(constraints)
        with np.errstate(invalid="ignore"):  # the reference meets the non-finite offsets
            expected = reference_hrep_vertices_2d(constraints, ctx)
        bounded, got = setcalc.sets._hpolygon_2d(H.A, H.b, ctx)
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)
        if bounded:
            # The emptiness verdict is the reference's: no passing intersection.
            assert sc.is_empty(H) is (expected is None)
        seen.add((bounded, expected is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _unit_hpolygon(rng, rows):
    """Edge rows of a random convex k-gon (3 <= k <= 6, vertices well apart)
    plus redundant rows, ``rows`` in all, each row scaled at random; and the
    k-gon's vertices."""
    k = min(rows, int(rng.integers(3, 7)))
    angles = 2.0 * math.pi * (np.arange(k) + rng.uniform(0.15, 0.85, k)) / k
    V = np.column_stack((np.cos(angles), np.sin(angles))) * rng.uniform(0.7, 1.0, 2)
    E = np.roll(V, -1, axis=0) - V
    A = np.column_stack((E[:, 1], -E[:, 0]))
    D = rng.normal(size=(rows - k, 2))
    A = np.vstack((A, D)) * rng.uniform(0.1, 10.0, (rows, 1))
    b = np.max(V @ A.T, axis=0)
    b[k:] += np.linalg.norm(A[k:], axis=1) * rng.uniform(0.05, 0.5, rows - k)
    order = rng.permutation(rows)
    return A[order], b[order], V


def test_hpolygon_vertices_and_emptiness_match_qhull_and_highs_at_any_scale(lp_calls):
    # The same unit-scale polygon, rotated and scaled by 1e-6 to 1e6, with
    # the tolerance scaled alike: the vertices and the emptiness verdict
    # must not depend on the scale.  qhull and HiGHS see the unit polygon.
    spatial = pytest.importorskip("scipy.spatial")
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(606)
    for trial in range(80):
        A, b, V = _unit_hpolygon(rng, int(rng.integers(3, 129)))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        turn, shift = _rotation(rng.uniform(0.0, 2.0 * math.pi)), rng.uniform(-3.0, 3.0, 2)
        ctx = ToleranceContext(1e-8 * scale)

        def scaled(A, b):
            # x' = scale * turn x + scale * shift maps {A x <= b} to {A' x' <= b'}.
            A2 = A @ turn.T
            return sc.HPolytope._from_arrays(A2, scale * (b + A2 @ shift))

        hull = spatial.HalfspaceIntersection(np.column_stack((A, -b)), V.mean(axis=0))
        points = hull.intersections
        expected = scale * (points[spatial.ConvexHull(points).vertices] @ turn.T + shift)
        got = sc.tovrep(scaled(A, b), ctx).vertices
        assert len(got) == len(expected), trial
        for vertex in expected:
            assert np.min(np.max(np.abs(got - vertex), axis=1)) <= 1e-9 * scale * (1.0 + np.abs(shift).max())
        # A cut that leaves a slab of the polygon, or misses it by a margin.
        d = rng.normal(size=2)
        low, high = np.min(V @ d), np.max(V @ d)
        cut = low + (high - low) * rng.choice([-0.2, -0.05, 0.05, 0.3])
        A_cut, b_cut = np.vstack((A, -d)), np.append(b, -cut)
        feasible = optimize.linprog(np.zeros(2), A_ub=A_cut, b_ub=b_cut, bounds=[(None, None)] * 2, method="highs")
        assert feasible.status in (0, 2)
        assert sc.is_empty(scaled(A_cut, b_cut), ctx) is (feasible.status == 2), trial
    assert len(lp_calls) == 0


def test_hpolygon_vertices_do_not_depend_on_the_scale_of_each_row():
    # A row (a, b) scaled by 10^u, u in [-9, 6] or +-170, bounds the same
    # half-plane: the vertex count stays, and the vertices agree within 1e-12
    # relative.
    ctx = resolve_tolerance(None)
    rng = np.random.default_rng(909)
    for trial in range(200):
        A, b, _ = _unit_hpolygon(rng, int(rng.integers(3, 40)))
        expected = setcalc.sets._hpolygon_2d(A, b, ctx)[1]
        # Far out of that range too, where squares of the entries under- or overflow.
        for s in (10.0 ** rng.uniform(-9.0, 6.0, len(b)), np.full(len(b), 1e-170), np.full(len(b), 1e170)):
            bounded, got = setcalc.sets._hpolygon_2d(A * s[:, None], b * s, ctx)
            assert bounded and len(got) == len(expected), trial
            for vertex in expected:
                assert np.min(np.max(np.abs(got - vertex), axis=1)) <= 1e-12 * max(1.0, np.abs(vertex).max()), trial
    # The strip |y| <= 1 cut by x <= 1 is unbounded at every scale: its
    # antiparallel normals make a gap of pi.
    A, b = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]), np.ones(3)
    for s in (1e-170, 1e-9, 1.0, 1e170):
        bounded, got = setcalc.sets._hpolygon_2d(A * s, b * s, ctx)
        assert not bounded and np.array_equal(got, [[1.0, -1.0], [1.0, 1.0]]), s
    # The triangle (0, 0), (5e-9, 0), (0, 5e-9) from normals with entries
    # 5e-9: their determinants are far below 1e-14, their sines are not.
    s = 5e-9
    H = sc.HPolytope._from_arrays([[0.0, -s], [-s, 0.0], [s, s]], [0.0, 0.0, s * s])
    P = sc.tovrep(H, ToleranceContext(1e-15))
    assert P.num_vertices == 3
    assert np.allclose(P.vertices / s, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-6)


def test_tovrep_2048_redundant_constraints_is_fast_and_solves_no_lp(lp_calls):
    # A 16-gon under 2032 redundant rows: the sweep is O(m log m) where the
    # pairwise enumeration tested O(m^2) candidates (0.6 to 1 s at 2048 rows).
    rng = np.random.default_rng(2048)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 16))
    V = np.column_stack((np.cos(angles), np.sin(angles)))
    E = np.roll(V, -1, axis=0) - V
    D = rng.normal(size=(2032, 2))
    A = np.vstack((np.column_stack((E[:, 1], -E[:, 0])), D))
    b = np.concatenate((np.einsum("ij,ij->i", A[:16], V), np.max(V @ D.T, axis=0) + rng.uniform(0.01, 0.5, 2032)))
    H = sc.HPolytope._from_arrays(A, b)
    sc.tovrep(H)  # warm
    start = time.perf_counter()
    P = sc.tovrep(H)
    elapsed = time.perf_counter() - start
    assert P.num_vertices == 16 and np.allclose(np.sort(P.vertices, axis=0), np.sort(V, axis=0))
    assert elapsed < 0.2, elapsed
    assert len(lp_calls) == 0


def test_tovrep_random_tangents_of_a_circle_match_qhull_in_bounded_memory(traced_peak):
    # 2048 random tangents of the unit circle: most vertices are crowded, so
    # many candidates lie far from their vertex and are tested against every
    # row.  In blocks, the conversion traces a few MB; one block took 64 MB.
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(4096)
    theta = rng.uniform(0.0, 2.0 * math.pi, 2048)
    A, b = np.column_stack((np.cos(theta), np.sin(theta))), np.ones(2048)
    P, peak = traced_peak(sc.tovrep, sc.HPolytope._from_arrays(A, b))
    assert peak < 16 << 20, peak
    qhull = spatial.HalfspaceIntersection(np.column_stack((A, -b)), np.zeros(2)).intersections
    D = np.array(sc.generate_directions(sc.polar_template(256)))
    # Vertices may sit up to the 10 atol membership slack outside each row.
    np.testing.assert_allclose(P.support_batch(D)[0], np.max(D @ qhull.T, axis=1), rtol=0.0, atol=2e-7)


def _highs_bounded(A, b):
    optimize = pytest.importorskip("scipy.optimize")
    for d in np.concatenate((np.eye(2), -np.eye(2))):
        result = optimize.linprog(-d, A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs")
        assert result.status in (0, 3), result.message
        if result.status == 3:
            return False
    return True


def _normal_sets(rng):
    for _ in range(60):
        yield rng.uniform(-math.pi, math.pi, int(rng.integers(1, 9)))
    for _ in range(20):
        # A rotated strip (exactly antiparallel normals) plus constraints on
        # one side of it, or on both.
        alpha = rng.uniform(-math.pi, math.pi)
        side = rng.uniform(0.1, math.pi - 0.1, int(rng.integers(1, 4)))
        other = -rng.uniform(0.1, math.pi - 0.1, int(rng.integers(0, 2)))
        yield np.concatenate(([alpha, alpha + math.pi], alpha + side, alpha + other))
    for sign in (-1.0, 1.0):
        for alpha in rng.uniform(-math.pi, math.pi, 10):
            # One gap of pi + sign * 1e-9, the others pi / 2 and less.
            yield alpha + np.array([0.0, math.pi + sign * 1e-9, 1.5 * math.pi])


def test_is_bounded_2d_matches_highs():
    rng = np.random.default_rng(5)
    for angles in _normal_sets(rng):
        A = np.column_stack((np.cos(angles), np.sin(angles)))
        if len(angles) >= 2 and abs(angles[1] - angles[0] - math.pi) < 1e-12:
            A[1] = -A[0]
        A *= rng.uniform(0.01, 100.0, (len(A), 1))
        # Offsets from an interior point keep the region nonempty.
        b = A @ rng.uniform(-1.0, 1.0, 2) + rng.uniform(0.1, 1.0, len(A))
        H = sc.HPolyhedron([sc.HalfSpace(a, float(o)) for a, o in zip(A, b)])
        assert H.is_bounded() == _highs_bounded(A, b), angles


def test_is_bounded_2d_empty_raises_and_unconstrained_is_unbounded():
    empty = sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 0.0), sc.HalfSpace([-1.0, 0.0], -1.0),
                            sc.HalfSpace([0.0, 1.0], 1.0), sc.HalfSpace([0.0, -1.0], 1.0)])
    with pytest.raises(EmptySetError):
        empty.is_bounded()
    assert not sc.HPolyhedron([], dim=2).is_bounded()


def test_tovrep_and_2d_is_bounded_run_no_lp_and_the_wedge_one(lp_calls):
    angles = np.arange(8) * (math.pi / 4.0)
    octagon = sc.tohrep(sc.VPolygon(np.column_stack((np.cos(angles), np.sin(angles)))))
    assert sc.tovrep(octagon).num_vertices == 8
    assert octagon.is_bounded() and not sc.is_empty(octagon)
    assert len(lp_calls) == 0
    wedge = sc.HPolytope([sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([0.0, 1.0], 1.0)])
    with pytest.raises(UnboundedSetError):
        sc.tovrep(wedge)
    assert len(lp_calls) == 1


def test_tovrep_128_constraints():
    angles = np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 128))
    H = sc.HPolytope([sc.HalfSpace([math.cos(a), math.sin(a)], 1.0) for a in angles])
    P = sc.tovrep(H)
    assert 3 <= P.num_vertices <= 128
    for c in H.constraints:
        assert np.all(P.vertices @ c.normal <= c.offset + 1e-9)


def test_concretize_empty_2d_intersection():
    node = sc.make_node("Intersection", [sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([5.0, 0.0], 1.0)])
    result = sc.concretize(node)
    assert isinstance(result, sc.VPolygon) and result.num_vertices == 0


def test_small_triangle_keeps_its_vertices():
    assert sc.VPolygon([[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4]]).num_vertices == 3


def test_tovrep_matches_stepwise_reference_on_random_hreps():
    # tovrep's outcome spelled out: where the normals' angular gaps bound the
    # region, the pairwise H-to-V reference (no vertex: empty); elsewhere an
    # emptiness LP tells empty from unbounded.
    ctx = resolve_tolerance(None)
    rng = np.random.default_rng(77)
    seen = set()
    for _ in range(400):
        constraints = _random_hrep(rng, int(rng.integers(1, 40)))
        H = sc.HPolyhedron(constraints)
        if setcalc.sets._normals_bound(H.A):
            vertices = reference_hrep_vertices_2d(constraints, ctx)
            expected = EmptySetError if vertices is None else sc.VPolygon(vertices)
        elif not setcalc.numerics.is_feasible(H.A, H.b, ctx):
            expected = EmptySetError
        else:
            expected = UnboundedSetError
        seen.add(expected if isinstance(expected, type) else sc.VPolygon)
        if isinstance(expected, sc.VPolygon):
            assert sc.tovrep(sc.HPolytope(constraints)) == expected
        else:
            with pytest.raises(expected):
                sc.tovrep(sc.HPolytope(constraints))
    assert seen == {sc.VPolygon, EmptySetError, UnboundedSetError}


def test_bounded_2d_hpolytope_support_vectors_solve_no_lp(lp_calls):
    angles = np.arange(8) * (math.pi / 4.0)
    octagon = sc.tohrep(sc.VPolygon(np.column_stack((np.cos(angles), np.sin(angles)))))
    inner = sc.underapproximate(octagon, sc.generate_directions(sc.polar_template(8)))
    assert len(lp_calls) == 0
    assert inner.num_vertices == 8
    values, vectors = octagon.support_batch(np.eye(2), vectors=True)
    assert len(lp_calls) == 0
    assert np.allclose(np.einsum("ij,ij->i", vectors, np.eye(2)), values)


def test_hpolygon_vertices_are_hulled_at_the_query_tolerance():
    # A triangle of legs 5e-9 from unit normals keeps its three vertices at
    # atol 1e-15, as its copy scaled by 1e6 does: the hull merges points at
    # the query's tolerance, not at the ambient 1e-8.
    ctx = ToleranceContext(1e-15)
    for scale in (1.0, 1e6):
        s = 5e-9 * scale
        H = sc.HPolytope([sc.HalfSpace([0.0, -1.0], 0.0), sc.HalfSpace([-1.0, 0.0], 0.0),
                          sc.HalfSpace([math.sqrt(0.5), math.sqrt(0.5)], s * math.sqrt(0.5))])
        V = np.array(H.vertices_list(ctx))
        assert V.shape == (3, 2)
        assert np.allclose(V / s, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-6)

