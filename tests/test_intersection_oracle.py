"""2-D intersections in every representation against scipy.

Each operand's constraint rows come from its definition alone: qhull's facet
equations of a vertex list (a zonotope's from all its sign combinations), a
box's axis rows, a half-space's own row, an H-polytope's own arrays, mapped
and shifted through a lazy ``LinearMap`` or ``Translation``, and stacked
through a lazy ``Intersection``.  HiGHS (presolve off) tells empty and
unbounded stacks apart, and qhull's ``HalfspaceIntersection`` from the
Chebyshev center gives the vertices of the bounded ones.
``concretize(Intersection(A, B))``, the exact lazy support values, and
``intersection(A, B)`` where both operands are concrete must match them:
vertices within 1e-9, the empty polygon where the stack is empty, and an
unbounded set where it is unbounded.

No cut lies between ``atol`` and ``10 atol`` from a vertex of a box: there
the clip of a box by a half-space reads ``atol`` and the H-polygon sweep
``10 atol``, so the two routes disagree by design.
"""

import itertools

import numpy as np
import pytest

import setcalc as sc
from setcalc import concretize, lazy_support_function, make_node
from setcalc.errors import EmptySetError
from conftest import random_polygon

optimize = pytest.importorskip("scipy.optimize")
spatial = pytest.importorskip("scipy.spatial")

TOL = 1e-9
DIRECTIONS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.6, 0.8], [-0.28, 0.96]])
H1, H2 = sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([0.0, 1.0], 1.0)
UNBOUNDED = make_node("Intersection", [H1, H2])
EMPTY = make_node("Intersection", [sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([5.0, 0.0], 1.0)])


def _hull_rows(points):
    equations = spatial.ConvexHull(points).equations
    return equations[:, :2], -equations[:, 2]


def _rows(X):
    """``(A, b)`` with X equal to ``{x : A x <= b}``, from X's definition."""
    if isinstance(X, sc.LazyNode):
        if X.kind == "Intersection":
            parts = [_rows(op) for op in X.operands]
            return np.vstack([A for A, _ in parts]), np.concatenate([b for _, b in parts])
        A, b = _rows(X.operands[0])
        if X.matrix is not None:
            A = A @ np.linalg.inv(X.matrix)
        return A, (b if X.vector is None else b + A @ X.vector)
    if isinstance(X, (sc.VPolygon, sc.VPolytope)):
        return _hull_rows(X.vertices)
    if isinstance(X, sc.Zonotope):
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=X.num_generators)))
        return _hull_rows(X.center + signs @ X.generators.T)
    if isinstance(X, sc.BallInf):
        return np.vstack((np.eye(2), -np.eye(2))), np.concatenate((X.center, -X.center)) + X.radius
    if isinstance(X, sc.HalfSpace):
        return X.normal[None], np.array([X.offset])
    return X.A, X.b


def _highs(c, A, b):
    result = optimize.linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs",
                              options={"presolve": False})
    assert result.status in (0, 2, 3), result.message
    return result


def _oracle(A, b):
    """``(verdict, vertices)`` of ``A x <= b``: ``"empty"`` or ``"unbounded"``
    with no vertices, or ``"bounded"`` with qhull's."""
    if _highs(np.zeros(2), A, b).status == 2:
        return "empty", None
    if any(_highs(d, A, b).status == 3 for d in DIRECTIONS[:4]):
        return "unbounded", None
    # Chebyshev center: the largest r with A x + |a| r <= b; the region
    # must have an interior.
    norms = np.linalg.norm(A, axis=1)
    result = optimize.linprog([0.0, 0.0, -1.0], A_ub=np.column_stack((A, norms)), b_ub=b,
                              bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    assert result.status == 0 and result.x[2] > 1e-6, result
    points = spatial.HalfspaceIntersection(np.column_stack((A, -b)), result.x[:2]).intersections
    return "bounded", points[spatial.ConvexHull(points).vertices]


def _assert_matches(X, verdict, expected):
    """X, a concrete 2-D set, against the oracle's verdict and vertices."""
    assert sc.is_empty(X) == (verdict == "empty"), (X, verdict)
    if verdict == "unbounded":
        assert not isinstance(X, sc.VPolygon) and not X.is_bounded(), X
    if verdict != "bounded":
        return
    V = np.array(X.vertices_list())
    assert len(V) == len(expected), (X, expected)
    gaps = np.linalg.norm(V[:, None, :] - expected[None, :, :], axis=2)
    assert gaps.min(axis=0).max() <= TOL and gaps.min(axis=1).max() <= TOL, (X, expected)


def _assert_support(T, verdict, expected, A, b):
    # Exact lazy support values against the maxima over qhull's vertices, or
    # the HiGHS optima of an unbounded stack.
    for d in DIRECTIONS:
        if verdict == "empty":
            with pytest.raises(EmptySetError):
                lazy_support_function(d, T)
            continue
        value = lazy_support_function(d, T)
        if verdict == "bounded":
            assert value == pytest.approx((expected @ d).max(), abs=TOL), (T, d, value)
            continue
        result = _highs(d, A, b)
        assert value == (np.inf if result.status == 3 else pytest.approx(-result.fun, abs=TOL)), (T, d, value)


def _pool(rng):
    """One operand of each representation, then a map or a shift of each."""
    leaves = [
        random_polygon(rng, scale=1.5, max_points=7),
        sc.VPolytope(rng.uniform(-1.5, 1.5, (6, 2))),
        sc.tohrep(random_polygon(rng, scale=1.5, max_points=7)),
        sc.Zonotope(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.8, 0.8, (2, 3))),
        sc.BallInf(rng.uniform(-0.5, 0.5, 2), rng.uniform(0.5, 1.5)),
        sc.HalfSpace(rng.normal(size=2), rng.uniform(-0.5, 0.5)),
    ]
    moved = []
    for i, X in enumerate(leaves):
        if i % 2:
            moved.append(make_node("Translation", [X], vector=rng.uniform(-0.5, 0.5, 2)))
        else:
            M = np.array([[1.0, 0.0], [0.0, 1.0]]) + rng.uniform(-0.4, 0.4, (2, 2))
            moved.append(make_node("LinearMap", [X], matrix=M))
    return leaves + moved + [UNBOUNDED, EMPTY]


def _box_cuts_clear_of_the_band(A, B):
    """Whether no vertex of a box leaf lies between atol and 10 atol outside
    the other operand when that is one row: a half-space, or a map or a
    shift of one, whose value is a half-space that clips the box."""
    for box, cut in ((A, B), (B, A)):
        rows, offsets = _rows(cut) if isinstance(box, sc.BallInf) else ((), ())
        if len(offsets) == 1:
            gaps = (np.array(box.vertices_list()) @ rows[0] - offsets[0]) / np.linalg.norm(rows[0])
            if np.any((gaps > 0.5e-8) & (gaps < 2e-7)):
                return False
    return True


def _pairs():
    pairs = [
        # The unbounded intersection under a box, an empty one under a box,
        # a shifted half-space cutting a box, and an empty polygon leaf.
        (UNBOUNDED, sc.BallInf([0.0, 0.0], 2.0)),
        (EMPTY, sc.BallInf([0.5, 0.0], 1.0)),
        (make_node("Translation", [sc.HalfSpace([1.0, 1.0], 0.5)], vector=[0.25, 0.25]), sc.BallInf([0.0, 0.0], 1.0)),
        (sc.VPolygon([]), sc.BallInf([0.0, 0.0], 2.0)),
    ]
    for seed in (7101, 7102, 7103):
        pool = _pool(np.random.default_rng(seed))
        pairs.extend(itertools.combinations_with_replacement(pool, 2))
    return pairs


def test_2d_intersections_match_qhull_and_highs():
    tally = {}
    for A, B in _pairs():
        if isinstance(A, sc.VPolygon) and A.num_vertices == 0:
            rows, offsets = np.zeros((0, 2)), np.zeros(0)
            verdict, expected = "empty", None
        else:
            assert _box_cuts_clear_of_the_band(A, B)
            (RA, bA), (RB, bB) = _rows(A), _rows(B)
            rows, offsets = np.vstack((RA, RB)), np.concatenate((bA, bB))
            verdict, expected = _oracle(rows, offsets)
        T = make_node("Intersection", [A, B])
        _assert_matches(concretize(T), verdict, expected)
        _assert_support(T, verdict, expected, rows, offsets)
        if not isinstance(A, sc.LazyNode) and not isinstance(B, sc.LazyNode):
            _assert_matches(sc.intersection(A, B), verdict, expected)
        tally[verdict] = tally.get(verdict, 0) + 1
    assert tally["bounded"] >= 150 and tally["empty"] >= 15 and tally["unbounded"] >= 15, tally
