"""2-D disjointness of bounded polytopes by separating axes.

Two convex polygons are disjoint iff some edge normal u of one of them, up
to sign, has rho(u, X) + rho(-u, Y) < 0 (Gottschalk, Lin and Manocha,
"OBBTree", 1996).  The verdicts are checked against a HiGHS LP over convex
combinations of the input points, for every mix of polygons, segments,
points, boxes, zonotopes and H-polytopes; they take no LP, no 2-D H-polygon
sweep but one per H-polytope operand, and are one verdict per pair whatever
the representation of the two boxes.
"""

import itertools

import numpy as np
import pytest

import setcalc as sc
from setcalc.numerics import resolve_tolerance

KINDS = ("VPolygon", "segment", "point", "box", "zonotope", "HPolytope")


def _operand(rng, kind, center):
    """A random 2-D polytope of the given kind near ``center``, with points
    whose convex hull it is."""
    if kind in ("VPolygon", "segment", "point", "HPolytope"):
        k = {"segment": 2, "point": 1}.get(kind, int(rng.integers(3, 9)))
        angles = rng.uniform(0.0, 2.0 * np.pi, k)
        radii = rng.uniform(0.2, 1.5, k)
        V = center + np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
        if kind != "HPolytope":
            return sc.VPolygon(V), V
        spatial = pytest.importorskip("scipy.spatial")
        V = np.vstack((V, center + rng.uniform(-1.0, 1.0, (3, 2))))
        hull = spatial.ConvexHull(V)
        A, b = hull.equations[:, :2], -hull.equations[:, 2]
        # Two redundant rows, which the axes may read too.
        D = rng.normal(size=(2, 2))
        A, b = np.vstack((A, D)), np.concatenate((b, (V @ D.T).max(axis=0) + rng.uniform(0.01, 0.5, 2)))
        return sc.HPolytope([sc.HalfSpace(a, float(c)) for a, c in zip(A, b)]), V[hull.vertices]
    if kind == "box":
        r = rng.uniform(0.0, 1.0, 2)
        return sc.Hyperrectangle(center, r), center + r * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    G = rng.uniform(-0.8, 0.8, (2, int(rng.integers(1, 5))))
    if rng.random() < 0.25:
        G = G[:, :1] * rng.uniform(-1.0, 1.0, G.shape[1])  # a segment
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=G.shape[1])))
    return sc.Zonotope(center, G), center + signs @ G.T


def _highs_disjoint(P, Q, slack):
    """Whether no convex combinations of the rows of P and of Q lie within
    ``slack`` of each other in every coordinate."""
    optimize = pytest.importorskip("scipy.optimize")
    k, m = len(P), len(Q)
    M = np.hstack((P.T, -Q.T))
    A_eq = np.zeros((2, k + m))
    A_eq[0, :k] = A_eq[1, k:] = 1.0
    result = optimize.linprog(
        np.zeros(k + m), A_ub=np.vstack((M, -M)), b_ub=np.full(4, slack),
        A_eq=A_eq, b_eq=np.ones(2), bounds=[(0.0, None)] * (k + m), method="highs",
    )
    assert result.status in (0, 2)
    return result.status == 2


@pytest.mark.parametrize("kind_x, kind_y", itertools.combinations_with_replacement(KINDS, 2))
def test_mixed_kind_disjointness_matches_highs_without_an_lp(kind_x, kind_y, lp_calls, hpolygon_calls):
    rng = np.random.default_rng([KINDS.index(kind_x), KINDS.index(kind_y)])
    verdicts = []
    for trial in range(40):
        X, PX = _operand(rng, kind_x, rng.uniform(-1.0, 1.0, 2))
        Y, PY = _operand(rng, kind_y, rng.uniform(-2.5, 2.5, 2))
        if trial % 2:
            # Move Y so that a point of it meets a point of X.
            shift = rng.dirichlet(np.ones(len(PX))) @ PX - rng.dirichlet(np.ones(len(PY))) @ PY
            Y, PY = Y.translate(shift), PY + shift
        expected = _highs_disjoint(PX, PY, 0.0)
        if expected != _highs_disjoint(PX, PY, 1e-6):
            continue  # within 1e-6 of touching: the verdict is the tolerance's
        del hpolygon_calls[:]
        verdict = sc.is_disjoint(X, Y)
        assert verdict == expected == sc.is_disjoint(Y, X)
        assert len(hpolygon_calls) == 2 * [kind_x, kind_y].count("HPolytope")
        verdicts.append(verdict)
    assert lp_calls == []
    assert len(verdicts) >= 30 and 0 < sum(verdicts) < len(verdicts)


def _forms(center, radius):
    """One axis-aligned box, possibly flat, as each representation."""
    B = sc.Hyperrectangle(center, radius)
    V = B.vertices_list()
    return [B, sc.VPolygon(V), sc.VPolytope(V), sc.Zonotope(center, np.diag(radius)), sc.HPolytope(B.constraints_list())]


@pytest.mark.parametrize(
    "a, b, shift",
    [
        (((0.0, 0.0), (1.0, 1.0)), ((2.0, 0.5), (1.0, 0.75)), (1.0, 0.0)),  # side by side
        (((0.0, 0.0), (1.0, 1.0)), ((2.0, 2.0), (1.0, 1.0)), (1.0, 1.0)),  # corner to corner
        (((0.5, 0.0), (0.5, 0.0)), ((1.0, 0.0), (0.0, 0.0)), (1.0, 0.0)),  # a segment and a point past its end
        (((0.5, 0.0), (0.5, 0.0)), ((1.5, 0.0), (0.5, 0.0)), (1.0, 0.0)),  # collinear segments
        (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)), (0.0, 1.0)),  # two points
    ],
)
def test_one_verdict_per_gap_whatever_the_representation(a, b, shift, hpolygon_calls):
    # Box b, moved by gap * atol along shift, lies gap * atol from box a along an axis.
    atol = resolve_tolerance(None).atol
    first = _forms(*map(np.array, a))
    for gap in (-0.5, 0.5, 2.0, 5.0, 9.0, 11.0, 20.0):
        second = _forms(np.array(b[0]) + gap * atol * np.array(shift), np.array(b[1]))
        for X, Y in itertools.product(first, second):
            del hpolygon_calls[:]
            assert sc.is_disjoint(X, Y) is (gap > 1.0), (gap, X, Y)
            assert len(hpolygon_calls) == [type(X), type(Y)].count(sc.HPolytope)


@pytest.mark.parametrize("center, disjoint", [((1.0, 3.0), True), ((0.2, 0.6), False)])
def test_a_segment_zonotope_with_generators_parallel_up_to_rounding(center, disjoint):
    # 0.9 * 0.1 - 0.3 * 0.3 is not 0.0 in floating point, yet the generators
    # span a segment from -(0.4, 1.2) to (0.4, 1.2).
    G = np.array([[0.1, 0.3], [0.3, 0.9]])
    ends = np.array([[-0.4, -1.2], [0.4, 1.2]])
    segment = [sc.Zonotope(np.zeros(2), G), sc.VPolygon(ends), sc.VPolytope(ends)]
    c = np.array(center)
    others = [
        sc.Zonotope(c, np.zeros((2, 0))),
        sc.VPolygon([c]),
        sc.Zonotope(c, [[0.1], [0.3]]),
        sc.VPolygon([c - (0.1, 0.3), c + (0.1, 0.3)]),
    ]
    for X, Y in itertools.product(segment, others):
        assert sc.is_disjoint(X, Y) is disjoint is sc.is_disjoint(Y, X), (X, Y)


def test_membership_past_a_sharp_vertex_reads_the_disjointness_rule():
    # 5 atol past the tip of a thin triangle the point lies within atol of
    # both long edge lines, but the axis of the short edge separates it.
    T = sc.VPolygon([[0.0, -1e-3], [0.0, 1e-3], [10.0, 0.0]])
    for past, inside in ((5e-8, False), (5e-9, True)):
        p = np.array([10.0 + past, 0.0])
        assert T.contains(p) is inside
        assert sc.is_disjoint(sc.VPolygon([p]), T) is not inside


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_membership_is_the_disjointness_of_the_point(k):
    # Points 0.5 to 2 atol off an edge (outward) or a corner (any direction)
    # of points, segments and polygons, sharp corners included: membership
    # is exactly the negated separating-axis verdict.
    rng = np.random.default_rng(2200 + k)
    atol = resolve_tolerance(None).atol
    seen = set()
    for _ in range(300):
        radii = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        angles = rng.uniform(0.0, 2.0 * np.pi, k)
        T = sc.VPolygon(np.column_stack((radii[0] * np.cos(angles), radii[1] * np.sin(angles))))
        V = T.vertices
        i = int(rng.integers(len(V)))
        off = rng.uniform(0.5, 2.0) * atol
        if len(V) > 1 and rng.random() < 0.5:
            e = V[(i + 1) % len(V)] - V[i]
            u = np.array([e[1], -e[0]]) / np.hypot(*e)
            p = V[i] + rng.uniform(0.0, 1.0) * e + off * u * (1.0 if len(V) > 2 else rng.choice([-1.0, 1.0]))
        else:
            turn = rng.uniform(0.0, 2.0 * np.pi)
            p = V[i] + off * np.array([np.cos(turn), np.sin(turn)])
        inside = T.contains(p)
        assert inside == (not sc.is_disjoint(sc.VPolygon([p]), T))
        seen.add(inside)
        # Far from the origin, where N . p rounds by more than atol |N|.
        shift = np.array([1e8, -1e8])
        far = T.translate(shift)
        assert far.contains(p + shift) == (not sc.is_disjoint(sc.VPolygon([p + shift]), far))
    assert seen == {True, False}
