"""The 2-D kernels against independent oracles: qhull for zonotope vertices,
the pairwise loop for H-to-V, HiGHS for boundedness, and LP counts."""

import math

import numpy as np
import pytest

import setcalc as sc
import setcalc.numerics
import setcalc.sets
from hrep_reference import reference_hrep_vertices_2d
from setcalc.errors import EmptySetError, UnboundedSetError
from setcalc.numerics import resolve_tolerance


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
        got = setcalc.sets._hrep_vertices_2d(H.A, H.b, ctx)
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)


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
        if setcalc.sets._normals_bound_2d(sc.HPolyhedron(constraints).A):
            vertices = reference_hrep_vertices_2d(constraints, ctx)
            expected = EmptySetError if vertices is None else sc.VPolygon(vertices)
        elif not setcalc.numerics.is_feasible([(c.normal, c.offset) for c in constraints], ctx):
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
