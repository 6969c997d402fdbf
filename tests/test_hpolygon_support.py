"""Support of 2-D H-polyhedra against HiGHS, and the LPs and hulls it costs.

A bounded 2-D region answers every direction from one vertex enumeration,
an unbounded one solves one LP per direction.  Both are checked against
scipy's HiGHS on regions whose optimum HiGHS reports; the tolerances are
fixed before running: 1e-7 relative to the largest value on well-conditioned
polygons, 1e-6 on the thin families, where HiGHS itself is off by up to
about 1e-7 of it while a lost vertex is off by the whole value.
"""

import math

import numpy as np
import pytest

import setcalc as sc
import setcalc.sets
from setcalc.errors import EmptySetError, UnboundedSetError


def _hpolyhedron(A, b):
    return sc.HPolyhedron([sc.HalfSpace(a, float(o)) for a, o in zip(A, b)])


def _highs(A, b, D, unbounded=False):
    """HiGHS maxima along the rows of D, or None when any of them reports no
    optimum; with ``unbounded``, an unbounded direction reads inf instead."""
    optimize = pytest.importorskip("scipy.optimize")
    out = []
    for d in D:
        result = optimize.linprog(-d, A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs")
        if result.status not in ((0, 3) if unbounded else (0,)):
            return None
        out.append(math.inf if result.status == 3 else -result.fun)
    return np.array(out)


def _directions(rng):
    angles = rng.uniform(-math.pi, math.pi, 4)
    return np.vstack((sc.oct_template().matrix, np.column_stack((np.cos(angles), np.sin(angles)))))


def _redundant_polygons(rng):
    # Edge constraints of a convex polygon plus redundant ones (some of them
    # scaled copies of edges), each at a random scale, shuffled.
    for _ in range(60):
        k = int(rng.integers(3, 12))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        V = np.column_stack((np.cos(angles), rng.uniform(0.2, 1.0) * np.sin(angles))) + rng.uniform(-2.0, 2.0, 2)
        edges = np.roll(V, -1, axis=0) - V
        A = np.column_stack((edges[:, 1], -edges[:, 0]))
        b = np.einsum("ij,ij->i", A, V)
        N = rng.normal(size=(int(rng.integers(0, 20)), 2))
        A = np.vstack((A, N, A[: k // 2]))
        b = np.concatenate((b, (N @ V.T).max(axis=1) + rng.uniform(0.0, 0.5, len(N)), b[: k // 2]))
        scale = rng.uniform(0.1, 10.0, len(b))
        order = rng.permutation(len(b))
        yield (A * scale[:, None])[order], (b * scale)[order]


def _thin_triangles(rng):
    # Normals at 0, pi - gap and 3 pi / 2, rotated, norms 0.5-3, offsets 0.5-2.
    for gap in (1e-9, 1e-8, 1e-7):
        for _ in range(40):
            angles = rng.uniform(-math.pi, math.pi) + np.array([0.0, math.pi - gap, 1.5 * math.pi])
            A = np.column_stack((np.cos(angles), np.sin(angles))) * rng.uniform(0.5, 3.0, (3, 1))
            yield A, rng.uniform(0.5, 2.0, 3)


def _pi_gap_regions(rng):
    # The bounded half of test_is_bounded_2d_matches_highs's last family.
    for _ in range(80):
        angles = rng.uniform(-math.pi, math.pi) + np.array([0.0, math.pi - 1e-9, 1.5 * math.pi])
        A = np.column_stack((np.cos(angles), np.sin(angles))) * rng.uniform(0.01, 100.0, (3, 1))
        yield A, A @ rng.uniform(-1.0, 1.0, 2) + rng.uniform(0.1, 1.0, 3)


@pytest.mark.parametrize(
    "family, rtol",
    [(_redundant_polygons, 1e-7), (_thin_triangles, 1e-6), (_pi_gap_regions, 1e-6)],
)
def test_bounded_2d_support_matches_highs(family, rtol):
    rng = np.random.default_rng(9)
    checked = 0
    for A, b in family(rng):
        D = _directions(rng)
        want = _highs(A, b, D)
        if want is None:
            continue
        checked += 1
        values, vectors = _hpolyhedron(A, b).support_batch(D, vectors=True)
        scale = 1.0 + float(np.max(np.abs(want)))
        np.testing.assert_allclose(values, want, rtol=0.0, atol=rtol * scale)
        # Each vector attains its value and lies in the region, up to rounding.
        np.testing.assert_allclose(np.einsum("ij,ij->i", vectors, D), values, rtol=1e-12, atol=1e-12 * scale)
        norms = np.linalg.norm(A, axis=1)
        assert np.all(vectors @ A.T <= b + 1e-9 * norms * (1.0 + np.linalg.norm(vectors, axis=1))[:, None])
    assert checked >= 50


def test_empty_bounded_2d_regions_raise():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(40):
        # A rotated box whose two sides along r1 are crossed by a margin.
        c, s = math.cos(rng.uniform(0.0, math.pi)), math.sin(rng.uniform(0.0, math.pi))
        r1, r2 = np.array([c, s]), np.array([-s, c])
        t, u = rng.uniform(-1.0, 1.0, 2)
        A = np.array([r1, r2, -r1, -r2]) * rng.uniform(0.5, 2.0, (4, 1))
        b = np.linalg.norm(A, axis=1) * np.array([t, u + 1.0, -t - rng.uniform(1e-3, 1.0), 1.0 - u])
        if optimize.linprog(np.zeros(2), A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs").status != 2:
            continue
        checked += 1
        H = _hpolyhedron(A, b)
        for query in (
            lambda: H.support_batch(_directions(rng)),
            lambda: H.support_vector([1.0, 0.0]),
            lambda: H.vertices_list(),
            lambda: sc.tovrep(sc.HPolytope(H.constraints)),
        ):
            with pytest.raises(EmptySetError):
                query()
    assert checked >= 30
    disjoint = sc.make_node("Intersection", [sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([5.0, 0.0], 1.0)])
    with pytest.raises(EmptySetError):
        disjoint.support_function([1.0, 0.0])


def test_unbounded_2d_regions_return_inf_per_direction():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        # Normals inside a half-circle, so a cyclic gap of at least pi is left.
        angles = rng.uniform(0.0, 0.8 * math.pi) + rng.uniform(0.0, 0.2 * math.pi, int(rng.integers(1, 5)))
        A = np.column_stack((np.cos(angles), np.sin(angles))) * rng.uniform(0.5, 2.0, (len(angles), 1))
        b = A @ rng.uniform(-1.0, 1.0, 2) + rng.uniform(0.1, 1.0, len(angles))
        D = _directions(rng)
        want = _highs(A, b, D, unbounded=True)
        if want is None:
            continue
        checked += 1
        H = _hpolyhedron(A, b)
        values, _ = H.support_batch(D)
        assert np.array_equal(np.isinf(values), np.isinf(want))
        finite = np.isfinite(want)
        scale = 1.0 + np.max(np.abs(want[finite]), initial=0.0)
        np.testing.assert_allclose(values[finite], want[finite], rtol=0.0, atol=1e-7 * scale)
        with pytest.raises(UnboundedSetError):
            H.support_vector(D[np.argmax(np.isinf(want))])
    assert checked >= 30


def test_bounded_2d_template_and_lazy_intersection_solve_no_lp(lp_calls):
    V = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    H = sc.tohrep(sc.VPolygon(V))
    octagon = sc.overapproximate_template(H, sc.oct_template())
    assert len(lp_calls) == 0
    assert np.allclose([c.offset for c in octagon.constraints], (sc.oct_template().matrix @ V.T).max(axis=1))
    node = sc.make_node("Intersection", [H, sc.BallInf([1.0, 0.0], 0.5)])
    assert math.isclose(node.support_function([0.0, 1.0]), 0.5)
    assert len(lp_calls) == 0


def test_polygons_from_zonotopes_and_hpolytopes_are_hulled_once(hull_calls):
    rng = np.random.default_rng(12)
    for trial in range(60):
        G = rng.uniform(-1.0, 1.0, (2, int(rng.integers(1, 12))))
        if trial % 5 == 0:
            G[:, 1:] = G[:, [0]] * rng.uniform(-2.0, 2.0, G.shape[1] - 1)  # a segment
        Z = sc.Zonotope(rng.uniform(-1.0, 1.0, 2), G)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 20))))
        H = sc.HPolytope([sc.HalfSpace([math.cos(a), math.sin(a)], rng.uniform(0.5, 1.5)) for a in angles])
        for X, convert in ((Z, lambda X: sc.convert_to(sc.VPolygon, X)), (H, sc.tovrep)):
            if not X.is_bounded():
                continue
            del hull_calls[:]
            polygon = convert(X)
            assert len(hull_calls) == 1
            assert polygon == sc.VPolygon(X.vertices_list())


def test_2d_is_bounded_reads_one_sweep_and_no_normals_test(monkeypatch, lp_calls, hpolygon_calls):
    normals, bound = [], setcalc.sets._normals_bound
    monkeypatch.setattr(setcalc.sets, "_normals_bound", lambda *args: normals.append(1) or bound(*args))
    square = _hpolyhedron(np.concatenate((np.eye(2), -np.eye(2))), [1.0, 1.0, 1.0, 1.0])
    wedge = _hpolyhedron(np.eye(2), [1.0, 1.0])
    # Empty with bounded normals (the sweep finds no vertex), and with the
    # antiparallel normals of an empty strip (the LP finds no point).
    empty_box = _hpolyhedron(np.concatenate((np.eye(2), -np.eye(2))), [1.0, 1.0, -2.0, 1.0])
    empty_strip = _hpolyhedron([[0.0, 1.0], [0.0, -1.0]], [0.0, -1.0])
    for H, bounded, lps in ((square, True, 0), (wedge, False, 1), (empty_box, None, 0), (empty_strip, None, 1)):
        del hpolygon_calls[:], lp_calls[:]
        if bounded is None:
            with pytest.raises(EmptySetError):
                H.is_bounded()
        else:
            assert H.is_bounded() is bounded
        assert (len(hpolygon_calls), len(normals), len(lp_calls)) == (1, 0, lps)
    # Outside 2-D the normals test decides, and no sweep runs.
    del hpolygon_calls[:]
    assert _hpolyhedron(np.concatenate((np.eye(3), -np.eye(3))), np.ones(6)).is_bounded()
    assert (len(hpolygon_calls), len(normals)) == (0, 1)


def test_every_2d_query_reads_one_sweep(hpolygon_calls):
    # Support, emptiness, boundedness, vertices and disjointness of a 2-D
    # H-polygon read one sweep each, also where it finds no vertex.
    square = _hpolyhedron(np.concatenate((np.eye(2), -np.eye(2))), [1.0, 1.0, 1.0, 1.0])
    empty_box = _hpolyhedron(np.concatenate((np.eye(2), -np.eye(2))), [1.0, 1.0, -2.0, 1.0])
    far_box = sc.Hyperrectangle([5.0, 0.0], [1.0, 1.0])
    queries = (
        lambda H: H.support_batch(np.eye(2)),
        lambda H: sc.is_empty(H),
        lambda H: H.is_bounded(),
        lambda H: H.vertices_list(),
        lambda H: sc.is_disjoint(H, far_box),
    )
    for H, empty in ((square, False), (empty_box, True)):
        for query in queries:
            del hpolygon_calls[:]
            try:
                query(H)
            except EmptySetError:
                assert empty
            assert len(hpolygon_calls) == 1
    assert not sc.is_empty(square) and sc.is_empty(empty_box)
    assert sc.is_disjoint(square, far_box) and sc.is_disjoint(empty_box, far_box)
