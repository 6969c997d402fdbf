"""Zonotope fit and zonotope membership against independent oracles.

The fit is compared with the vertex LP of ``zonofit_reference`` (same optimal
total scale) and its containment is checked by HiGHS; membership verdicts are
compared with a HiGHS feasibility program, and its tolerance is checked as a
distance from a facet at scales 1e-4 to 1e4.
"""

import itertools
import math

import numpy as np
import pytest

import setcalc as sc
import setcalc.sets
from setcalc.errors import UnsupportedOperationError
from setcalc.numerics import resolve_tolerance
from zonofit_reference import reference_fit_scales

optimize = pytest.importorskip("scipy.optimize")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _highs_gap(c, G, x) -> float:
    # The least t with |G xi - (x - c)| <= t for some xi in [-1, 1]^m: zero
    # for members, else a positive gap.
    n, m = G.shape
    rhs = np.asarray(x, dtype=float) - c
    A = np.block([[G, -np.ones((n, 1))], [-G, -np.ones((n, 1))]])
    result = optimize.linprog(np.r_[np.zeros(m), 1.0], A_ub=A, b_ub=np.concatenate((rhs, -rhs)),
                              bounds=[(-1.0, 1.0)] * m + [(0.0, None)], method="highs")
    assert result.status == 0, result.message
    return float(result.fun)


def _unit_rows(D):
    D = np.asarray(D, dtype=float)
    return D / np.linalg.norm(D, axis=1)[:, None]


def _check_fit(X, directions):
    # Same optimal total scale as the vertex LP (the scales are the lengths
    # of the generators, as every direction is a unit vector), every vertex
    # in Z, and the same exception type where the vertex LP is infeasible.
    try:
        want = float(reference_fit_scales(X, directions).sum())
    except UnsupportedOperationError:
        with pytest.raises(UnsupportedOperationError):
            sc.overapproximate_zonotope(X, directions)
        return None
    Z = sc.overapproximate_zonotope(X, directions)
    got = float(np.linalg.norm(Z.generators, axis=0).sum())
    assert abs(got - want) <= 1e-9 * max(1.0, want), (got, want)
    for v in X.vertices_list():
        assert _highs_gap(Z.center, Z.generators, v) <= 1e-9 * max(1.0, want), v
    return Z


def test_fit_matches_vertex_lp_on_random_polygons():
    rng = np.random.default_rng(7001)
    for trial in range(200):
        k = 5 + trial % 4
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        radii = rng.uniform(0.3, 2.0, size=2)
        P = sc.VPolygon(rng.uniform(-1.0, 1.0, 2) + np.column_stack((radii[0] * np.cos(angles), radii[1] * np.sin(angles))))
        _check_fit(P, sc.generate_directions(sc.polar_template(3 + trial % 14)))


def test_fit_matches_vertex_lp_on_full_dimensional_3d_polytopes():
    rng = np.random.default_rng(7002)
    for trial in range(12):
        points = rng.normal(size=(int(rng.integers(5, 9)), 3))
        directions = list(np.eye(3)) + list(_unit_rows(rng.normal(size=(int(rng.integers(0, 4)), 3))))
        _check_fit(sc.VPolytope(points), directions)


def test_fit_of_a_segment_matches_vertex_lp():
    rng = np.random.default_rng(7003)
    for k in (3, 4, 5, 8):
        a, b = rng.uniform(-1.0, 1.0, size=(2, 2))
        _check_fit(sc.VPolygon([a, b]), sc.generate_directions(sc.polar_template(k)))
    # Two antiparallel directions cover a slanted segment in neither fit.
    assert _check_fit(sc.VPolygon([[0.0, 0.0], [1.0, 1.0]]), sc.generate_directions(sc.polar_template(2))) is None
    # A segment along a candidate direction is covered by that generator
    # alone, also where every candidate is parallel to it.
    segment = sc.VPolygon([[-1.0, 0.0], [3.0, 0.0]])
    for directions in (sc.generate_directions(sc.polar_template(4)), [np.array([1.0, 0.0])]):
        Z = _check_fit(segment, directions)
        assert np.allclose(Z.center, [1.0, 0.0]) and np.allclose(Z.generators, [[2.0], [0.0]])


def test_fit_solves_one_lp_in_the_scales(lp_calls):
    P = sc.VPolygon([[0.0, 0.0], [2.0, 0.2], [1.5, 1.4], [0.1, 1.0], [-0.5, 0.4]])
    sc.overapproximate_zonotope(P, sc.generate_directions(sc.polar_template(8)))
    assert [lp.dim for lp in lp_calls] == [8]


def test_fit_raises_where_its_rows_are_not_exact(monkeypatch):
    flat = sc.VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(UnsupportedOperationError):
        sc.overapproximate_zonotope(flat, list(np.eye(3)))
    cube = sc.VPolytope(list(itertools.product((-1.0, 1.0), repeat=3)))
    with pytest.raises(UnsupportedOperationError):
        sc.overapproximate_zonotope(cube, [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    monkeypatch.setattr(setcalc.sets, "_NORMALS_CAP", 2)
    with pytest.raises(UnsupportedOperationError):
        sc.overapproximate_zonotope(cube, list(np.eye(3)))


def test_fit_with_zero_directions_matches_vertex_lp():
    # Zero directions add nothing to Z, so with only zero directions Z is
    # its center and covers no polygon, only a point.
    P = sc.VPolygon([[0.0, 0.0], [2.0, 0.2], [1.5, 1.4], [0.1, 1.0]])
    zero = np.zeros(2)
    for directions in ([zero], [zero, zero], [zero, np.array([1.0, 0.0]), np.array([0.0, 1.0])]):
        _check_fit(P, directions)
    with pytest.raises(UnsupportedOperationError):
        sc.overapproximate_zonotope(P, [[0.0, 0.0]])
    Z = sc.overapproximate_zonotope(sc.VPolygon([[1.0, 2.0]]), [[0.0, 0.0]])
    assert np.array_equal(Z.center, [1.0, 2.0]) and Z.num_generators == 0


def _random_generators(rng, n, m):
    G = rng.uniform(-1.0, 1.0, size=(n, m))
    for j in range(1, m):
        pick = rng.integers(6)
        if pick == 0:
            G[:, j] = 0.0  # zero generator
        elif pick == 1:
            G[:, j] = rng.uniform(0.2, 2.0) * G[:, rng.integers(j)]  # parallel
        elif pick == 2:
            G[:, j] = -rng.uniform(0.2, 2.0) * G[:, rng.integers(j)]  # antiparallel
    if n > 1 and rng.integers(4) == 0:
        # Rank deficient: every generator in a random subspace of dimension < n.
        basis = rng.normal(size=(n, int(rng.integers(1, n))))
        G = basis @ rng.uniform(-1.0, 1.0, size=(basis.shape[1], m))
    return G


def _probe_points(rng, c, G):
    n = c.size
    points = []
    for k in range(4):
        u = rng.normal(size=n)
        sigma = c + G @ np.where(u @ G >= 0.0, 1.0, -1.0)
        s = rng.uniform(0.2, 0.9) if k % 2 == 0 else rng.uniform(1.1, 1.8)
        points.append(c + s * (sigma - c))
    points.append(c + rng.normal(size=n))
    return points


def test_membership_matches_highs_on_random_zonotopes():
    rng = np.random.default_rng(7004)
    routes = {"facets": 0, "lp": 0}
    for trial in range(200):
        n = 1 + trial % 5
        m = 1 + int(rng.integers(12))
        c = rng.uniform(-1.0, 1.0, n)
        G = _random_generators(rng, n, m)
        Z = sc.Zonotope(c, G)
        routes["facets" if Z._facets is not None else "lp"] += 1
        for x in _probe_points(rng, c, G):
            assert Z.contains(x) == (_highs_gap(c, G, x) <= 1e-9), (c, G, x)
    assert min(routes.values()) >= 20, routes


def test_membership_above_the_normals_cap_takes_the_lp(monkeypatch, lp_calls):
    monkeypatch.setattr(setcalc.sets, "_NORMALS_CAP", 5)
    rng = np.random.default_rng(7005)
    c, G = np.zeros(3), rng.uniform(-1.0, 1.0, size=(3, 4))  # C(4, 2) = 6 subsets
    Z = sc.Zonotope(c, G)
    for x in _probe_points(rng, c, G):
        assert Z.contains(x) == (_highs_gap(c, G, x) <= 1e-9)
    assert Z._facets is None and len(lp_calls) == 5


def test_full_rank_membership_solves_no_lp(lp_calls):
    rng = np.random.default_rng(7006)
    for n in range(1, 6):
        c, G = rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 0.5, size=(n, n + 4))
        Z = sc.Zonotope(c, G)
        for x in _probe_points(rng, c, G):
            Z.contains(x)
    assert lp_calls == []


def test_point_membership_does_not_depend_on_zero_generators():
    # Without generators, or with only zero ones, atol applies per
    # coordinate, as in the feasibility LP (whose own phase-1 tolerance
    # blurs the band from atol to 2 atol, so the outside points sit beyond).
    atol = resolve_tolerance(None).atol
    c = np.array([1.0, -2.0])
    for offset in ([0.9, 0.9], [0.9, -0.9], [5.0, 0.0], [0.0, -5.0]):
        x = c + atol * np.array(offset)
        verdict = all(abs(o) < 1.0 for o in offset)
        assert sc.Zonotope(c, []).contains(x) == sc.Zonotope(c, np.zeros((2, 1))).contains(x) == verdict


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(0, 3),
    log_scale=st.floats(-4.0, 4.0),
    factor=st.sampled_from([0.5, 2.0]),
)
def test_membership_tolerance_is_a_distance_from_a_facet(seed, n, extra, log_scale, factor):
    # A point factor * atol outside the middle of a facet, along its unit
    # normal, is accepted at 0.5 and rejected at 2.
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    c = scale * rng.uniform(-1.0, 1.0, n)
    G = scale * rng.uniform(-1.0, 1.0, size=(n, n + extra))
    subset = sorted(rng.choice(n + extra, size=n - 1, replace=False))
    normal = np.linalg.svd(G[:, subset])[0][:, -1]  # unit, orthogonal to the subset
    others = [j for j in range(n + extra) if j not in subset]
    hypothesis.assume(np.min(np.abs(normal @ G[:, others])) > 1e-3 * scale)
    middle = c + G[:, others] @ np.sign(normal @ G[:, others])
    x = middle + factor * resolve_tolerance(None).atol * normal
    assert sc.Zonotope(c, G).contains(x) == (factor == 0.5)
