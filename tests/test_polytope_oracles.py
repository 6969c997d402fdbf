"""Boundedness of n-D H-polyhedra and membership in V-polytopes against
scipy: HiGHS support LPs and feasibility, and qhull's facet equations.

``HPolyhedron.is_bounded`` outside 2-D is one emptiness LP and then one test
of the normals alone (rank, then one cone LP), the test that direction
templates use.  The oracle for it is the 2n axis support LPs, solved by
HiGHS with presolve off: the region is bounded iff all of them are optimal.
"""

import numpy as np
import pytest

import setcalc as sc
from setcalc.errors import EmptySetError

optimize = pytest.importorskip("scipy.optimize")
spatial = pytest.importorskip("scipy.spatial")


def _highs(c, A, b):
    n = len(c)
    result = optimize.linprog(
        -np.asarray(c), A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs", options={"presolve": False}
    )
    assert result.status in (0, 2, 3), result.message
    return result.status


def _highs_bounded(A, b):
    """None if ``A x <= b`` is empty, else whether every axis support is finite."""
    n = A.shape[1]
    if _highs(np.zeros(n), A, b) == 2:
        return None
    return all(_highs(s * e, A, b) == 0 for e in np.eye(n) for s in (1.0, -1.0))


def _random_hpolyhedron(rng, n):
    """(A, b) of one of five shapes around a random center c."""
    shape = rng.integers(5)
    m = int(rng.integers(1, 3 * n + 3))
    A = rng.normal(size=(m, n))
    c = rng.uniform(-2.0, 2.0, n)
    if shape == 1:  # every normal in one half-space: unbounded
        A[:, 0] = np.abs(A[:, 0])
    elif shape == 2:  # normals in a subspace: unbounded
        A[:, -1] = 0.0
        A[~A.any(axis=1), 0] = 1.0
    elif shape == 3:  # a cone closed off by one normal that is nearly inside it
        A[:, 0] = np.abs(A[:, 0]) + 0.1
        closing = -A.sum(axis=0)
        closing[0] = A[:, 0].sum() * 10.0 ** -rng.uniform(1.0, 4.0) * rng.choice([-1.0, 1.0])
        A = np.vstack((A, closing))
    b = A.dot(c) + rng.uniform(0.1, 1.0, len(A))
    if shape == 4:  # two rows that no point meets
        a = rng.normal(size=n)
        A, b = np.vstack((A, a, -a)), np.concatenate((b, [a.dot(c) - 0.5, -a.dot(c) - 0.5]))
    return A, b


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6])
def test_nd_is_bounded_matches_highs_support_lps(n, lp_calls):
    rng = np.random.default_rng(100 + n)
    seen = set()
    for _ in range(120):
        A, b = _random_hpolyhedron(rng, n)
        expected = _highs_bounded(A, b)
        P = sc.HPolyhedron([sc.HalfSpace(a, c) for a, c in zip(A, b)])
        del lp_calls[:]
        if expected is None:
            with pytest.raises(EmptySetError):
                P.is_bounded()
        else:
            assert P.is_bounded() == expected
            assert len(lp_calls) <= 2
        seen.add(expected)
    assert seen == {None, False, True}


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_unconstrained_polyhedron_is_unbounded(n):
    assert not sc.HPolyhedron([], dim=n).is_bounded()


def test_vpolytope_membership_matches_qhull():
    # Full-dimensional polytopes in 3-D and 4-D; query points at least 1e-3
    # inside or outside by qhull's unit facet normals.
    rng = np.random.default_rng(41)
    inside = outside = 0
    for trial in range(40):
        n = 3 + trial % 2
        V = rng.uniform(-1.0, 1.0, (int(rng.integers(n + 1, 12)), n))
        equations = spatial.ConvexHull(V).equations
        P = sc.VPolytope(V)
        weights = rng.dirichlet(np.ones(len(V)), 10)
        points = np.vstack((weights.dot(V), rng.uniform(-1.5, 1.5, (10, n))))
        for x in points:
            distance = float(np.max(equations[:, :-1].dot(x) + equations[:, -1]))
            if abs(distance) < 1e-3:
                continue
            assert P.contains(x) == (distance < 0.0)
            inside, outside = inside + (distance < 0.0), outside + (distance > 0.0)
    assert inside > 100 and outside > 100


def test_flat_vpolytope_membership_matches_highs_feasibility():
    # A polygon in a plane of 3-D space, where qhull finds no facets.  Points
    # in the plane at least 1e-3 from its edges are decided by HiGHS
    # feasibility of a convex combination; points 1e-3 off the plane are out.
    rng = np.random.default_rng(43)
    verdicts = set()
    for _ in range(30):
        basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        W = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 8)), 2))
        P, V = sc.VPolytope(W.dot(basis.T)), W.dot(basis.T)
        N, h = sc.VPolygon(W)._hrep(None)
        norms = np.linalg.norm(N, axis=1)
        k = len(V)
        A = np.vstack((-np.eye(k), V.T, -V.T, np.ones(k), -np.ones(k)))
        for u in rng.uniform(-1.2, 1.2, (10, 2)):
            if np.min(np.abs(N.dot(u) - h) / norms) < 1e-3:
                continue
            y = basis.dot(u)
            expected = _highs(np.zeros(k), A, np.concatenate((np.zeros(k), y, -y, [1.0, -1.0]))) == 0
            assert P.contains(y) == expected
            assert not P.contains(y + 1e-3 * np.cross(basis[:, 0], basis[:, 1]))
            verdicts.add(expected)
    assert verdicts == {False, True}
