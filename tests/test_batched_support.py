"""The batched support pass over lazy trees, against independent references.

``support_reference.reference_support_pair`` is the per-direction recursion
the batched evaluator replaced.  The batched pass changes the order of some
sums (a matrix product per block instead of one dot product per direction)
but not the arithmetic, so the two must agree to 1e-12 relative, fixed
before running.
"""

import collections
import copy
import pickle

import numpy as np
import pytest

import setcalc as sc
from setcalc import (
    box_approximation,
    concretize,
    lazy_support_function,
    make_node,
    overapproximate_template,
    polar_template,
)
from setcalc.errors import UnsupportedOperationError
from setcalc.lazyops import _evaluate
from conftest import random_box_2d, random_polygon, random_unit_direction, random_zonotope_2d
from support_reference import reference_support_pair
from test_acceptance import _random_tree as criterion_6_tree

RTOL = 1e-12
CTX = sc.default_tolerance()

KINDS = (
    "LinearMap", "AffineMap", "Translation", "MinkowskiSum", "MinkowskiSumArray",
    "CartesianProduct", "ConvexHullUnion", "Union", "SymmetricIntervalHull", "Intersection",
)


def _leaf(rng):
    choice = int(rng.integers(0, 5))
    if choice == 0:
        return random_box_2d(rng)
    if choice == 1:
        return random_zonotope_2d(rng)
    if choice == 2:
        return random_polygon(rng, scale=1.5, max_points=6)
    if choice == 3:
        return sc.VPolytope(rng.uniform(-1.5, 1.5, (4, 2)))
    return sc.HPolytope(random_box_2d(rng).constraints_list())  # support by LP


def _tree(rng, depth):
    """A random 2-D tree; every kind the support rules know can appear."""
    if depth == 0:
        return _leaf(rng)
    kind = KINDS[int(rng.integers(0, len(KINDS)))]

    def sub():
        return _tree(rng, depth - 1)

    if kind in ("MinkowskiSum", "ConvexHullUnion", "Union"):
        return make_node(kind, [sub(), sub()])
    if kind == "MinkowskiSumArray":
        return make_node(kind, [sub(), sub(), sub()])
    if kind == "LinearMap":
        return make_node(kind, [sub()], matrix=rng.uniform(-1.2, 1.2, (2, 2)))
    if kind == "AffineMap":
        return make_node(kind, [sub()], matrix=rng.uniform(-1.2, 1.2, (2, 2)), vector=rng.uniform(-1, 1, 2))
    if kind == "Translation":
        return make_node(kind, [sub()], vector=rng.uniform(-1, 1, 2))
    if kind == "SymmetricIntervalHull":
        return make_node(kind, [sub()])
    if kind == "CartesianProduct":
        parts = [make_node("LinearMap", [sub()], matrix=rng.uniform(-1, 1, (1, 2))), sc.Interval(-0.5, 1.0)]
        return make_node(kind, parts[:: int(rng.choice([-1, 1]))])
    # A box around a member of the other operand keeps the intersection nonempty.
    other = sub()
    point = other.support_vector(random_unit_direction(rng))
    box = sc.Hyperrectangle(point, rng.uniform(0.2, 1.5, 2))
    return make_node(kind, [other, box][:: int(rng.choice([-1, 1]))])


def _kinds(X, under_hull=False):
    """(kind, under a symmetric interval hull) for every node of X."""
    if not isinstance(X, sc.LazyNode):
        return set()
    out = {(X.kind, under_hull)}
    for op in X.operands:
        out |= _kinds(op, under_hull or X.kind == "SymmetricIntervalHull")
    return out


def _outcome(query):
    try:
        return query()
    except Exception as exc:  # the type of the failure is what is compared
        return type(exc)


def _assert_same(batched, reference):
    if isinstance(reference, type):
        assert batched is reference
        return
    np.testing.assert_allclose(batched, reference, rtol=RTOL, atol=RTOL)


def test_batched_pass_matches_per_direction_reference():
    rng = np.random.default_rng(2026)
    covered = set()
    for _ in range(160):
        tree = _tree(rng, int(rng.integers(1, 5)))
        D = np.array([random_unit_direction(rng) for _ in range(6)])
        kinds = _kinds(tree)
        for mode in ("exact", "overapproximate"):
            for want in (False, True):
                part = 1 if want else 0
                reference = [_outcome(lambda: reference_support_pair(d, tree, CTX, mode, want)[part]) for d in D]
                batch = _outcome(lambda: _evaluate(tree, D, CTX, mode, want)[part])
                ones = [_outcome(lambda: _evaluate(tree, d[None], CTX, mode, want)[part][0]) for d in D]
                if mode == "overapproximate" and want and ("Intersection", False) in kinds:
                    # Vectors are refused in this mode wherever a lazy
                    # intersection needs them, whichever union branch wins.
                    assert batch is UnsupportedOperationError
                    assert all(one is UnsupportedOperationError for one in ones)
                    continue
                failures = [r for r in reference if isinstance(r, type)]
                if failures:
                    assert batch is failures[0]
                else:
                    _assert_same(batch, np.array(reference))
                    covered |= {(kind, mode) for kind, _ in kinds}
                for one, ref in zip(ones, reference):
                    _assert_same(one, ref)
    missing = {(kind, mode) for kind in KINDS for mode in ("exact", "overapproximate")} - covered
    assert not missing


def test_support_vectors_independent_oracle():
    # Criterion 6's random 2-D trees: each support vector attains its value
    # and lies in the concretized set.
    rng = np.random.default_rng(20240)
    checked = 0
    while checked < 80:
        tree = criterion_6_tree(rng, int(rng.integers(1, 5)))
        if not isinstance(tree, sc.LazyNode):
            continue
        checked += 1
        concrete = concretize(tree)
        D = np.array([random_unit_direction(rng) for _ in range(16)])
        values, vectors = tree.support_batch(D, vectors=True)
        attained = np.einsum("ij,ij->i", D, vectors)
        assert np.all(np.abs(attained - values) <= 1e-9 * np.maximum(1.0, np.abs(values)))
        for sigma in vectors:
            assert concrete.contains(sigma)


def _rotation(angle, scale):
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


def _box_support(D, center, radius):
    return D @ center + np.abs(D) @ radius


def test_deep_chain_matches_closed_form():
    # rho(d, X_N) = rho((Phi^N)^T d, X0) + sum_{i<N} rho((Phi^i)^T d, E)
    steps = 10_000
    phi = _rotation(0.01, 0.9995)
    c0, r0 = np.array([1.0, -0.5]), np.array([0.2, 0.1])
    cE, rE = np.array([0.01, 0.0]), np.array([0.002, 0.003])
    E = sc.Hyperrectangle(cE, rE)
    X = sc.Hyperrectangle(c0, r0)
    for _ in range(steps):
        X = make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=phi), E])
    assert X.depth() == 2 * steps + 1
    assert X.num_leaves() == steps + 1

    D = np.array(sc.generate_directions(polar_template(64)) + sc.generate_directions(sc.box_template(2)))
    expected = np.zeros(len(D))
    Di = D
    for _ in range(steps):
        expected += _box_support(Di, cE, rE)
        Di = Di @ phi
    expected += _box_support(Di, c0, r0)

    offsets = [c.offset for c in overapproximate_template(X, polar_template(64)).constraints]
    np.testing.assert_allclose(offsets, expected[:64], rtol=1e-9)
    box = box_approximation(X)
    np.testing.assert_allclose(box.high, expected[64::2], rtol=1e-9)
    np.testing.assert_allclose(box.low, -expected[65::2], rtol=1e-9)


@pytest.mark.parametrize("shape", ["nested_sums", "nested_interval_hulls"])
def test_shared_subtrees_reach_the_leaf_once(monkeypatch, shape):
    calls = []
    original = sc.sets.AbstractHyperrectangle._support_batch

    def counting(self, D, ctx, vectors):
        calls.append(D.shape)
        return original(self, D, ctx, vectors)

    monkeypatch.setattr(sc.sets.AbstractHyperrectangle, "_support_batch", counting)
    X = sc.BallInf([0.5, -0.25], 1.0)
    d = np.array([0.6, -0.8])
    D = np.array(sc.generate_directions(polar_template(64)))
    tree = X
    if shape == "nested_sums":
        for _ in range(18):
            tree = make_node("MinkowskiSum", [tree, tree])
        expected = 2 ** 18 * X.support_function(d)
        assert tree.num_leaves() == 2 ** 18 and tree.depth() == 19
    else:
        for _ in range(8):
            tree = make_node("SymmetricIntervalHull", [tree])
        expected = float(np.abs(d) @ np.array([1.5, 1.25]))  # |center| + radius per axis

    queries = {
        "scalar": lambda: lazy_support_function(d, tree),
        "batch": lambda: tree.support_batch(D, vectors=True),
        "box": lambda: box_approximation(tree),
        "template": lambda: overapproximate_template(tree, polar_template(64)),
    }
    for name, query in queries.items():
        calls.clear()
        query()
        assert len(calls) == 1, name
    assert lazy_support_function(d, tree) == pytest.approx(expected, rel=1e-12)


def _chain(steps, rng, other=None):
    """``[X_0, ..., X_N]`` with ``X_k = Phi X_{k-1} + E``; every step shares its
    parent.  With ``other``, every second step maps by it instead of Phi."""
    X = sc.Zonotope(rng.uniform(-1, 1, 2), rng.uniform(-0.3, 0.3, (2, 3)))
    E = sc.Hyperrectangle([0.01, 0.0], [0.002, 0.003])
    phi = _rotation(0.05, 0.99)
    out = [X]
    for k in range(steps):
        M = other if other is not None and k % 2 else phi
        X = make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=M), E])
        out.append(X)
    return out


def _reading(monkeypatch):
    # Counts, per node, the reads of its operands.
    reads = collections.Counter()
    slot = sc.LazyNode.operands
    monkeypatch.setattr(sc.LazyNode, "operands", property(lambda X: reads.update([id(X)]) or slot.__get__(X)))
    return reads


@pytest.mark.parametrize("shape", ["chain_200", "flowpipe_8", "alternating_200"])
def test_one_leaf_call_per_leaf_and_want(leaf_calls, shape):
    # Every block a leaf receives in one query is stacked into one call per
    # chunk of its run, also when no two equal steps follow one another.  A
    # run is one chunk while its c + 1 blocks stay below 2**14 floats; of
    # these queries only the 200-step chain along the 64 directions of the
    # template reaches that, and E answers it in 2 balanced chunks of 100
    # steps.  Leaves called once per step would read 200 calls.
    other = _rotation(0.07, 0.98) if shape == "alternating_200" else None
    steps = _chain(8 if shape == "flowpipe_8" else 200, np.random.default_rng(7), other)
    tree = make_node("Union", steps[1:]) if shape == "flowpipe_8" else steps[-1]
    X0, E = id(steps[0]), id(steps[1].operands[1])
    D = np.array(sc.generate_directions(polar_template(16)))
    queries = {
        "template": (lambda: overapproximate_template(tree, polar_template(64)), {False}),
        "values": (lambda: tree.support_batch(D), {False}),
        "vectors": (lambda: tree.support_batch(D, vectors=True), {True}),
        "box": (lambda: box_approximation(tree), {False}),
        "under": (lambda: sc.underapproximate(tree, list(D)), {True}),
    }
    for name, (query, wants) in queries.items():
        leaf_calls.clear()
        query()
        chunks = 2 if (shape, name) == ("chain_200", "template") else 1
        expected = [(X0, w) for w in wants] + [(E, w) for w in wants] * chunks
        assert sorted(call[:2] for call in leaf_calls) == sorted(expected), name
        if chunks > 1:
            assert [rows for leaf, _, rows in leaf_calls if leaf == E] == [100 * 64] * 2


def _shared_dags():
    rng = np.random.default_rng(31)
    X = random_polygon(rng, scale=1.5, max_points=6)
    Z = random_zonotope_2d(rng)
    hull = make_node("SymmetricIntervalHull", [X])
    M = rng.uniform(-1.2, 1.2, (2, 2))
    cap = make_node("Intersection", [make_node("MinkowskiSum", [X, Z]), sc.Hyperrectangle(X.vertices[0], [1.0, 0.8])])
    mapped = make_node("LinearMap", [cap], matrix=M)
    return {
        # X is reached with vectors (directly) and without (under the hull).
        "hull_and_leaf": make_node("MinkowskiSum", [hull, X]),
        "hull_of_sum_and_leaf": make_node("MinkowskiSumArray", [make_node("SymmetricIntervalHull", [make_node("MinkowskiSum", [X, Z])]), X, Z]),
        # One intersection reached directly and through a map, under a sum and a union.
        "shared_intersection": make_node("ConvexHullUnion", [
            make_node("MinkowskiSum", [mapped, cap]),
            make_node("Translation", [make_node("Union", [cap, mapped])], vector=[0.3, -0.2]),
        ]),
        "intersection_under_hull": make_node("MinkowskiSum", [make_node("SymmetricIntervalHull", [cap]), cap]),
    }


@pytest.mark.parametrize("name", sorted(_shared_dags()))
def test_shared_dags_match_per_direction_reference(name):
    tree = _shared_dags()[name]
    rng = np.random.default_rng(5)
    D = np.array([random_unit_direction(rng) for _ in range(12)])
    for mode in ("exact", "overapproximate"):
        for want in (False, True):
            part = 1 if want else 0
            reference = [_outcome(lambda: reference_support_pair(d, tree, CTX, mode, want)[part]) for d in D]
            batch = _outcome(lambda: _evaluate(tree, D, CTX, mode, want)[part])
            failures = [r for r in reference if isinstance(r, type)]
            if failures:
                assert batch is failures[0], (mode, want)
            else:
                _assert_same(batch, np.array(reference))


def test_copies_and_pickles_of_a_chain_answer_the_same():
    tree = _chain(40, np.random.default_rng(3))[-1]
    flowpipe = make_node("Union", _chain(6, np.random.default_rng(4))[1:])
    D = np.array(sc.generate_directions(polar_template(32)))
    for T in (tree, flowpipe):
        values, vectors = T.support_batch(D, vectors=True)
        for twin in (copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
            assert twin is not T and twin == T and twin.depth() == T.depth()
            twin_values, twin_vectors = twin.support_batch(D, vectors=True)
            np.testing.assert_array_equal(twin_values, values)
            np.testing.assert_array_equal(twin_vectors, vectors)


def _ids(T):
    """Ids of the distinct objects in the tree, lazy nodes and leaves."""
    seen, stack = set(), [T]
    while stack:
        X = stack.pop()
        if id(X) not in seen:
            seen.add(id(X))
            stack.extend(getattr(X, "operands", ()))
    return seen


def test_deep_and_shared_trees_copy_pickle_and_compare():
    # 10^4 steps and a 200-level DAG of 2^200 paths: far past the default
    # recursion limit, and exponential for a walk that does not share.
    chain = _chain(10_000, np.random.default_rng(6))[-1]
    dag = sc.BallInf([0.0, 0.0], 1.0)
    for k in range(200):
        dag = make_node("MinkowskiSum", [make_node("Translation", [dag], vector=[k, 0.0]), dag])
    d = np.array([[0.6, 0.8]])
    for T in (chain, dag):
        for twin in (copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
            assert twin is not T and twin == T and T == twin and twin.depth() == T.depth()
            # Shared nodes and leaves stay shared: as many distinct objects.
            assert len(_ids(twin)) == len(_ids(T))
            np.testing.assert_array_equal(twin.support_batch(d)[0], T.support_batch(d)[0])
    assert _chain(10_000, np.random.default_rng(6))[-1] == chain
    # Another initial set: the trees differ only at the deepest leaf.
    deep_mismatch = _chain(10_000, np.random.default_rng(7))[-1]
    assert deep_mismatch != chain and chain != deep_mismatch
    assert dag != make_node("MinkowskiSum", [dag.operands[0], dag.operands[0]])


# ---------------------------------------------------------------------------
# Steps: maps, translations and sums whose other operands are concrete,
# against a numpy recurrence that shares no code with the evaluator.


def _np_leaf(rng, n, kind):
    if kind == "box":
        return kind, rng.uniform(-1, 1, n), rng.uniform(0.0, 0.3, n)
    return kind, rng.uniform(-1, 1, n), rng.uniform(-0.5, 0.5, (n, int(rng.integers(1, n + 2))))


def _np_support(leaf, D):
    """(values, vectors) of a box (c, r) or zonotope (c, G) along the rows of D."""
    kind, c, R = leaf
    if kind == "box":
        return D @ c + np.abs(D) @ R, c + np.where(D >= 0.0, 1.0, -1.0) * R
    DG = D @ R
    return D @ c + np.abs(DG).sum(axis=1), c + np.where(DG >= 0.0, 1.0, -1.0) @ R.T


def _as_set(leaf):
    kind, c, R = leaf
    return sc.Hyperrectangle(c, R) if kind == "box" else sc.Zonotope(c, R)


def _np_base(rng, n, kind):
    """A tail for the chain: a concrete zonotope or a node of another kind,
    with its numpy support ``D -> (values, vectors)`` (vectors None where
    only values are defined)."""
    Z, W = _np_leaf(rng, n, "zonotope"), _np_leaf(rng, n, "box")
    if kind == "leaf":
        return _as_set(Z), lambda D: _np_support(Z, D)
    if kind == "hull":
        def hull(D):
            (a, Va), (b, Vb) = _np_support(Z, D), _np_support(W, D)
            return np.maximum(a, b), np.where((a >= b)[:, None], Va, Vb)
        return make_node("ConvexHullUnion", [_as_set(Z), _as_set(W)]), hull
    if kind == "interval_hull":
        def interval_hull(D):
            axes, _ = _np_support(Z, np.vstack([np.eye(n), -np.eye(n)]))
            radius = np.maximum(np.abs(axes[:n]), np.abs(axes[n:]))
            return np.abs(D) @ radius, np.where(D >= 0.0, 1.0, -1.0) * radius
        return make_node("SymmetricIntervalHull", [_as_set(Z)]), interval_hull
    # The min-bound of an intersection has values only.
    return make_node("Intersection", [_as_set(Z), _as_set(W)]), lambda D: (
        np.minimum(_np_support(Z, D)[0], _np_support(W, D)[0]), None)


def _stable(rng, n):
    M = rng.normal(size=(n, n))
    return 0.97 * M / np.linalg.norm(M, 2)


def _segment_case(rng, n, base, steps, shared):
    """A random chain of ``steps`` maps, translations and sums over a tail of
    kind ``base``, and its support ``D -> (values, vectors)`` by the numpy
    recurrence ``rho(d, M X + b + E) = rho(M^T d, X) + d . b + rho(d, E)``."""
    X, tail = _np_base(rng, n, base)
    E = _np_leaf(rng, n, "box")
    E_set = _as_set(E)
    recipe = []  # per node, bottom up: (matrix, vector, concrete operand leaves)
    for _ in range(steps):
        kind = ("sum", "sum", "sum_array", "affine", "translation", "bare_sum")[int(rng.integers(0, 6))]
        M = _stable(rng, n) if kind in ("sum", "sum_array", "affine") else None
        b = rng.uniform(-0.2, 0.2, n) if kind in ("affine", "translation") else None
        if kind == "affine":
            X = make_node("AffineMap", [X], matrix=M, vector=b)
            recipe.append((M, b, []))
        elif kind == "translation":
            X = make_node("Translation", [X], vector=b)
            recipe.append((None, b, []))
        else:
            # A sum of the (mapped) chain and one or two concrete sets, in any
            # position: one shared box, or a fresh one per step as a parsed
            # document has.
            fresh = _np_leaf(rng, n, "box")
            others = [(E, E_set) if shared else (fresh, _as_set(fresh))]
            if kind == "sum_array":
                Z = _np_leaf(rng, n, "zonotope")
                others.append((Z, _as_set(Z)))
            if M is not None:
                X = make_node("LinearMap", [X], matrix=M)
                recipe.append((M, None, []))
            operands = [S for _, S in others]
            operands.insert(int(rng.integers(0, len(operands) + 1)), X)
            X = make_node("MinkowskiSum" if len(operands) == 2 else "MinkowskiSumArray", operands)
            recipe.append((None, None, [leaf for leaf, _ in others]))

    def support(D):
        blocks = [D]
        for M, _, _ in reversed(recipe):
            blocks.append(blocks[-1] if M is None else blocks[-1] @ M)
        values, vectors = tail(blocks[-1])
        for (M, b, leaves), B in zip(recipe, reversed(blocks[:-1])):
            if vectors is not None and M is not None:
                vectors = vectors @ M.T
            if b is not None:
                values = values + B @ b
                vectors = None if vectors is None else vectors + b
            for leaf in leaves:
                more, sigma = _np_support(leaf, B)
                values = values + more
                vectors = None if vectors is None else vectors + sigma
        return values, vectors

    return X, support


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("base", ["leaf", "hull", "interval_hull", "intersection"])
def test_segments_match_numpy_recurrence(n, base):
    rng = np.random.default_rng([n, len(base)])
    for case in range(12):
        tree, support = _segment_case(rng, n, base, int(rng.integers(1, 30)), shared=case % 2 == 0)
        D = np.array([random_unit_direction(rng, n) for _ in range(7)])
        values, vectors = support(D)
        modes = ("overapproximate",) if base == "intersection" else ("exact", "overapproximate")
        for mode in modes:
            np.testing.assert_allclose(_evaluate(tree, D, CTX, mode, False)[0], values, rtol=RTOL, atol=RTOL)
            if vectors is None:
                with pytest.raises(UnsupportedOperationError):
                    _evaluate(tree, D, CTX, mode, True)
                continue
            got_values, got_vectors = _evaluate(tree, D, CTX, mode, True)
            np.testing.assert_allclose(got_values, values, rtol=RTOL, atol=RTOL)
            np.testing.assert_allclose(got_vectors, vectors, rtol=RTOL, atol=RTOL)
            # A query of no directions answers with empty arrays.
            got_values, got_vectors = _evaluate(tree, D[:0], CTX, mode, True)
            assert got_values.shape == (0,) and got_vectors.shape == (0, n)


@pytest.mark.parametrize("shape", ["flowpipe", "translated_steps"])
def test_shared_steps_end_segments(monkeypatch, leaf_calls, shape):
    # Every step below the top is reached twice: from the union and from the
    # next step.  The flowpipe is a prefix union, one pair of the whole run:
    # T blocks of 16 rows reach E and T the initial set.  The translated
    # steps are not, so no pair skips one: T blocks reach the initial set
    # and T(T+1)/2 reach E, as in a walk node by node.  One leaf call per
    # (leaf, want) stays in both.
    T = 30
    steps = _chain(T, np.random.default_rng(7))
    if shape == "flowpipe":
        tree = make_node("Union", steps[1:])
    else:
        shifted = [make_node("Translation", [X], vector=[0.1 * k, -0.05]) for k, X in enumerate(steps[1:-1])]
        tree = make_node("Union", [steps[-1], *shifted])
    leaves = {id(steps[0]), id(steps[1].operands[1])}
    D = np.array(sc.generate_directions(polar_template(16)))
    # Walking a node reads its operands: at most once to send blocks down and
    # twice to map vectors up.  A node walked more
    # than once per query would read them about once per step above it.
    reads = _reading(monkeypatch)
    for want in (False, True):
        leaf_calls.clear()
        reads.clear()
        tree.support_batch(D, vectors=want)
        assert sorted(c[:2] for c in leaf_calls) == sorted((leaf, want) for leaf in leaves)
        if shape == "flowpipe":
            assert sum(c[2] for c in leaf_calls) == 960 == 16 * 2 * T
        else:
            assert sum(c[2] for c in leaf_calls) == 7920 == 16 * (T + T * (T + 1) // 2)
        assert max(reads.values()) <= 4


# ---------------------------------------------------------------------------
# Runs: maps of one bitwise-equal matrix in a row, whose blocks come from
# doubling and whose support vectors fold back pairwise.  The oracle walks
# the same recipe with one numpy product per map.


def _recipe_case(rng, n, steps):
    """The chain built from ``steps`` over a random zonotope, bottom up, and its
    support ``D -> (values, vectors)`` by the sequential numpy recurrence.

    A step is ``("map", M)``, ``("affine", M, b)``, ``("translate", b)`` or
    ``("sum", leaves, position)``, the last a sum of the chain and the given
    ``_np_leaf`` sets with the chain at that operand position.  One leaf is
    one set object wherever it appears, as in a reach chain."""
    base = _np_leaf(rng, n, "zonotope")
    X, sets = _as_set(base), {}
    for step in steps:
        if step[0] == "map":
            X = make_node("LinearMap", [X], matrix=step[1])
        elif step[0] == "affine":
            X = make_node("AffineMap", [X], matrix=step[1], vector=step[2])
        elif step[0] == "translate":
            X = make_node("Translation", [X], vector=step[1])
        else:
            operands = [sets.setdefault(id(leaf), _as_set(leaf)) for leaf in step[1]]
            operands.insert(step[2], X)
            X = make_node("MinkowskiSum" if len(operands) == 2 else "MinkowskiSumArray", operands)

    def support(D):
        blocks = [D]  # the block each step receives, top step first
        for step in reversed(steps):
            blocks.append(blocks[-1] @ step[1] if step[0] in ("map", "affine") else blocks[-1])
        values, vectors = _np_support(base, blocks[-1])
        for step, B in zip(steps, reversed(blocks[:-1])):
            if step[0] in ("map", "affine"):
                vectors = vectors @ step[1].T
            if step[0] in ("affine", "translate"):
                b = step[-1]
                values, vectors = values + B @ b, vectors + b
            if step[0] == "sum":
                for leaf in step[1]:
                    more, sigma = _np_support(leaf, B)
                    values, vectors = values + more, vectors + sigma
        return values, vectors

    return X, support


def _check_recipe(rng, n, steps, rows=7):
    tree, support = _recipe_case(rng, n, steps)
    _check_tree(rng, tree, support, rows)
    return tree


def _check_tree(rng, tree, support, rows=7):
    D = np.array([random_unit_direction(rng, tree.dim) for _ in range(rows)]).reshape(rows, tree.dim)
    values, vectors = support(D)
    for mode in ("exact", "overapproximate"):
        np.testing.assert_allclose(_evaluate(tree, D, CTX, mode, False)[0], values, rtol=RTOL, atol=RTOL)
        got_values, got_vectors = _evaluate(tree, D, CTX, mode, True)
        np.testing.assert_allclose(got_values, values, rtol=RTOL, atol=RTOL)
        np.testing.assert_allclose(got_vectors, vectors, rtol=RTOL, atol=RTOL)
        got_values, got_vectors = _evaluate(tree, D[:0], CTX, mode, True)
        assert got_values.shape == (0,) and got_vectors.shape == (0, tree.dim)


def _reach_steps(M, E, length):
    """``length`` reach steps ``X -> M X + E``."""
    return [step for _ in range(length) for step in (("map", M), ("sum", [E], 0))]


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 31, 32, 33])
def test_runs_of_every_length_match_the_recurrence(n, length):
    rng = np.random.default_rng([n, length])
    M, E = _stable(rng, n), _np_leaf(rng, n, "box")
    _check_recipe(rng, n, _reach_steps(M, E, length))
    # The same run without sums between its maps, under one sum.
    _check_recipe(rng, n, [("map", M)] * length + [("sum", [E], 1)])


@pytest.mark.parametrize("n", [2, 6])
def test_runs_broken_by_other_matrices(n):
    rng = np.random.default_rng(n)
    A, B, E = _stable(rng, n), _stable(rng, n), _np_leaf(rng, n, "box")
    # Alternating matrices: every run has one map.
    _check_recipe(rng, n, [step for k in range(20) for step in _reach_steps(A if k % 2 else B, E, 1)])
    # Long runs broken by one other matrix, and runs of two.
    _check_recipe(rng, n, _reach_steps(A, E, 12) + _reach_steps(B, E, 1) + _reach_steps(A, E, 17))
    _check_recipe(rng, n, [step for k in range(9) for step in _reach_steps(A if k % 2 else B, E, 2)])


def test_equal_matrices_held_as_distinct_arrays_and_signed_zeros(monkeypatch):
    lengths = []
    powers = sc.lazyops._powers

    def counting(S, M, c, first):
        if c >= 2:
            lengths.append(c)
        return powers(S, M, c, first)

    monkeypatch.setattr(sc.lazyops, "_powers", counting)
    rng = np.random.default_rng(11)
    E = _np_leaf(rng, 2, "box")
    M = np.array([[0.6, 0.0], [0.3, -0.7]])
    # Each map holds its own copy of M: one run.
    _check_recipe(rng, 2, [step for _ in range(25) for step in (("map", M.copy()), ("sum", [E], 1))])
    assert lengths and set(lengths) == {25}
    # -0.0 and 0.0 differ bit for bit, so the run splits there; the answer
    # is that of one matrix, up to the order of the sums.
    signed = M.copy()
    signed[0, 1] = -0.0
    assert signed.tobytes() != M.tobytes()
    steps = _reach_steps(M, E, 10) + _reach_steps(signed, E, 5) + _reach_steps(M, E, 6)
    lengths.clear()
    _check_recipe(rng, 2, steps)
    assert lengths and lengths == [6, 5, 10] * (len(lengths) // 3)  # walked top down
    tree, _ = _recipe_case(np.random.default_rng(3), 2, steps)
    same, _ = _recipe_case(np.random.default_rng(3), 2, _reach_steps(M, E, 21))
    D = np.array(sc.generate_directions(polar_template(16)))
    np.testing.assert_allclose(tree.support_batch(D)[0], same.support_batch(D)[0], rtol=RTOL, atol=RTOL)


@pytest.mark.parametrize("n", [2, 6])
def test_shifts_and_repeated_operands_inside_runs(n):
    rng = np.random.default_rng([7, n])
    M, E, Z = _stable(rng, n), _np_leaf(rng, n, "box"), _np_leaf(rng, n, "zonotope")
    b, c = rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, n)
    steps = _reach_steps(M, E, 5) + [
        ("translate", b), ("map", M), ("affine", M, c), ("sum", [E, Z], 2), ("map", M),
        ("sum", [E, E], 0),  # one concrete operand twice at one block
        ("translate", c), ("sum", [Z, E, Z], 1), ("map", M), ("affine", M, b),
    ] + _reach_steps(M, E, 6)
    _check_recipe(rng, n, steps)
    # E's blocks are 0, 1, 2, 3, 3, 5, 6, ...: one twice and one skipped, as
    # many as a consecutive range.
    steps = _reach_steps(M, E, 3) + [("map", M), ("map", M), ("sum", [E, E], 0)] + _reach_steps(M, E, 3)
    _check_recipe(rng, n, steps)


def test_maps_that_change_the_dimension():
    rng = np.random.default_rng(21)
    A2, A6 = _stable(rng, 2), _stable(rng, 6)
    E2, E6, E3 = _np_leaf(rng, 2, "box"), _np_leaf(rng, 6, "box"), _np_leaf(rng, 3, "box")
    down, up = rng.normal(size=(6, 2)), rng.normal(size=(3, 6))
    # 6-D steps over 2-D ones, a 3-D projection heading the tree, and a
    # non-square affine map under a sum.
    steps = _reach_steps(A2, E2, 9) + [("map", down)] + _reach_steps(A6, E6, 5) + [("map", up)]
    _check_recipe(rng, 2, steps)
    _check_recipe(rng, 2, steps + [("sum", [E3], 0)])
    _check_recipe(rng, 2, _reach_steps(A2, E2, 4) + [("affine", down, rng.normal(size=6)), ("sum", [E6], 1)])


# ---------------------------------------------------------------------------
# Run summaries: every node that starts a step (a square map, or a sum or
# translation over one) counts at construction the equal steps that start
# there, and a query takes them as one pair.


def _step_forms(rng, n):
    M, b = _stable(rng, n), rng.uniform(-0.2, 0.2, n)
    E, Z = _np_leaf(rng, n, "box"), _np_leaf(rng, n, "zonotope")
    return {
        "sum_map_at_0": [("map", M), ("sum", [E], 0)],
        "sum_map_at_1": [("map", M), ("sum", [E], 1)],
        "sum_array_map": [("map", M), ("sum", [E, Z], 1)],
        "translation_map": [("map", M), ("translate", b)],
        "linear_map": [("map", M)],
        "affine_map": [("affine", M, b)],
        "sum_affine_map": [("affine", M, b), ("sum", [E], 0)],
    }


@pytest.mark.parametrize("form", sorted(_step_forms(np.random.default_rng(0), 2)))
@pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 31, 32, 33])
def test_run_summaries_of_every_form_and_length(form, length):
    rng = np.random.default_rng([length, len(form)])
    tree = _check_recipe(rng, 3, _step_forms(rng, 3)[form] * length)
    assert tree._run == length and not isinstance(tree._end, sc.LazyNode)


def test_one_node_extended_by_two_parents():
    # X ends a run of 10 steps by A; one parent extends it, the other starts
    # a run of its own, and X's summary stays as it was.
    rng = np.random.default_rng(17)
    A, B, E = _stable(rng, 2), _stable(rng, 2), sc.Hyperrectangle([0.01, 0.0], [0.002, 0.003])
    X = sc.Zonotope(rng.uniform(-1, 1, 2), rng.uniform(-0.3, 0.3, (2, 3)))
    base = X
    for _ in range(10):
        X = make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=A), E])
    same = make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=A.copy()), E])
    other = make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=B), E])
    assert (X._run, same._run, other._run) == (10, 11, 1)
    assert X._end is base and same._end is base and other._end is X
    D = np.array([random_unit_direction(rng) for _ in range(9)])
    for tree in (same, other, make_node("MinkowskiSum", [same, other]), make_node("Union", [same, other, X])):
        for mode in ("exact", "overapproximate"):
            for want in (False, True):
                part = 1 if want else 0
                reference = np.array([reference_support_pair(d, tree, CTX, mode, want)[part] for d in D])
                _assert_same(_evaluate(tree, D, CTX, mode, want)[part], reference)


def test_equal_but_distinct_operands_break_the_run():
    rng = np.random.default_rng(23)
    M, E = _stable(rng, 2), _np_leaf(rng, 2, "box")
    twin = (E[0], E[1].copy(), E[2].copy())  # equal values, another set object
    tree = _check_recipe(rng, 2, _reach_steps(M, E, 6) + _reach_steps(M, twin, 5))
    assert tree._run == 5 and tree._end._run == 6
    one, _ = _recipe_case(np.random.default_rng(3), 2, _reach_steps(M, E, 11))
    two, _ = _recipe_case(np.random.default_rng(3), 2, _reach_steps(M, E, 6) + _reach_steps(M, twin, 5))
    assert (one._run, two._run) == (11, 5)
    D = np.array(sc.generate_directions(polar_template(16)))
    for got, expected in zip(two.support_batch(D, vectors=True), one.support_batch(D, vectors=True)):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=RTOL)
    np.testing.assert_allclose(two.support_batch(D)[0], one.support_batch(D)[0], rtol=RTOL, atol=RTOL)


def test_runs_break_at_any_difference():
    # Five equal steps over six that differ from them in one thing only.
    rng = np.random.default_rng(37)
    M, b, c = _stable(rng, 2), rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.2, 0.2, 2)
    E, Z = _np_leaf(rng, 2, "box"), _np_leaf(rng, 2, "zonotope")
    signed = M.copy()
    signed[np.unravel_index(np.argmin(np.abs(M)), M.shape)] = 0.0
    zero = signed.copy()
    zero[zero == 0.0] = -0.0
    pairs = [
        ([("affine", M, b)], [("affine", M, c)]),
        ([("map", M), ("translate", b)], [("map", M), ("translate", c)]),
        ([("map", M), ("sum", [E], 0)], [("map", M), ("sum", [E], 1)]),
        ([("map", M), ("sum", [E, Z], 0)], [("map", M), ("sum", [Z, E], 0)]),
        ([("map", signed), ("sum", [E], 0)], [("map", zero), ("sum", [E], 0)]),
        ([("map", M)], [("affine", M, b)]),
    ]
    for below, above in pairs:
        tree = _check_recipe(rng, 2, below * 6 + above * 5)
        assert tree._run == 5 and tree._end._run == 6


def test_query_rooted_inside_a_step():
    # The map of a sum + map step starts a lone-map step of its own, so a
    # query on it is one pair of that step and then one pair of the run
    # below, which extends the same run of maps.
    rng = np.random.default_rng(29)
    M, E = _stable(rng, 2), _np_leaf(rng, 2, "box")
    inner, support = _recipe_case(rng, 2, _reach_steps(M, E, 12) + [("map", M)])
    outer = make_node("MinkowskiSum", [inner, inner.operands[0].operands[1]])
    assert (outer._run, inner._run, inner.operands[0]._run) == (13, 1, 12)
    _check_tree(rng, inner, support)


def test_non_square_map_inside_a_chain():
    rng = np.random.default_rng(31)
    A2, A6, E2, E6 = _stable(rng, 2), _stable(rng, 6), _np_leaf(rng, 2, "box"), _np_leaf(rng, 6, "box")
    down = rng.normal(size=(6, 2))
    tree = _check_recipe(rng, 2, _reach_steps(A2, E2, 9) + [("map", down)] + _reach_steps(A6, E6, 8))
    # The 6 x 2 map uses its own rule and starts no step: each run ends at it.
    projection = tree._end
    assert tree._run == 8 and projection.matrix.shape == (6, 2)
    assert projection._lazy is None and projection._run == 0 and projection.operands[0]._run == 9


def test_uniform_chain_is_walked_in_one_move(monkeypatch):
    # A query reads the operands of the few nodes it walks, not of the 400
    # nodes below the root.
    steps = _chain(200, np.random.default_rng(7))
    tree = steps[-1]
    assert tree._run == 200 and tree._end is steps[0]
    reads = _reading(monkeypatch)
    D = np.array(sc.generate_directions(polar_template(16)))
    queries = {
        "template": lambda: overapproximate_template(tree, polar_template(64)),
        "values": lambda: tree.support_batch(D),
        "vectors": lambda: tree.support_batch(D, vectors=True),
        "one": lambda: lazy_support_function(D[3], tree),
    }
    for name, query in queries.items():
        reads.clear()
        query()
        assert 0 < len(reads) <= 8, name


def test_moves_never_skip_a_shared_step(monkeypatch):
    # Every step of a flowpipe also hangs from the union, so no pair skips
    # one unless it takes them all.  In descending order the steps are no
    # prefix union: each pair takes one step, and no run is doubled.  In
    # ascending order the union is one pair, one doubled run of 30 maps, as
    # is the same chain alone.
    lengths = []
    powers = sc.lazyops._powers
    monkeypatch.setattr(sc.lazyops, "_powers",
                        lambda S, M, c, first: c >= 2 and lengths.append(c) or powers(S, M, c, first))
    steps = _chain(30, np.random.default_rng(41))
    D = np.array(sc.generate_directions(polar_template(16)))
    for want in (False, True):
        make_node("Union", steps[:0:-1]).support_batch(D, vectors=want)
        assert lengths == []
        make_node("Union", steps[1:]).support_batch(D, vectors=want)
        assert lengths == [30]
        steps[-1].support_batch(D, vectors=want)
        assert lengths == [30, 30]
        lengths.clear()


def test_alternating_chain_takes_one_pair_per_step(monkeypatch):
    # No two equal steps follow one another, so every step is a run pair of
    # one step, which reads its node's operands once and its map's at most
    # once: the query reads every node, each a fixed number of times.
    steps = _chain(200, np.random.default_rng(43), _rotation(0.07, 0.98))
    tree = steps[-1]
    assert tree._run == 1 and tree._end is steps[-2]
    reads = _reading(monkeypatch)
    D = np.array(sc.generate_directions(polar_template(16)))
    for want in (False, True):
        reads.clear()
        tree.support_batch(D, vectors=want)
        assert len(reads) >= 200 and max(reads.values()) <= 2


def test_flowpipe_step_is_one_pair(monkeypatch):
    # Each step of a flowpipe that is no prefix union (here, the steps in
    # descending order), shared with the union, is one run pair of one
    # step: it reads the sum's operands once and the map's at most once.  By
    # its kind's rule the sum would read them three times.
    steps = _chain(30, np.random.default_rng(41))
    maps = [X.operands[0] for X in steps[1:]]
    tree = make_node("Union", steps[:0:-1])
    assert not tree._prefix
    reads = _reading(monkeypatch)
    D = np.array(sc.generate_directions(polar_template(16)))
    for want in (False, True):
        reads.clear()
        tree.support_batch(D, vectors=want)
        assert [reads[id(X)] for X in steps[1:]] == [1] * 30
        assert max(reads[id(L)] for L in maps) <= 1
