"""Long runs answered in chunks.

A run pair of c equal steps whose c + 1 direction blocks would reach 2**14
floats (128 KiB) splits its steps into the fewest balanced chunks of K
steps whose K + 1 blocks stay below that; each concrete operand answers
each chunk in one call.  Answers are checked against the numpy recurrence
``rho(d, M X + b + E) = rho(M^T d, X) + d . b + rho(d, E)``, one step at a
time, to 1e-12 relative, fixed before running; memory by tracemalloc.
"""

import numpy as np
import pytest

import setcalc as sc
from setcalc import make_node, polar_template
from setcalc.lazyops import _evaluate
from conftest import random_unit_direction
from test_batched_support import _rotation, _stable

RTOL = 1e-12
CTX = sc.default_tolerance()
BUDGET = 1 << 14  # floats: 128 KiB
FORMS = ("sum", "affine_sum", "translation", "two_operands", "translated_affine")


def _most_steps(m, n):
    # The longest chunk: its K + 1 blocks of m x n floats stay below BUDGET.
    return (BUDGET - 1) // (m * n) - 1


def _chain(rng, n, form, length):
    """``[X_0, ..., X_length]`` of equal steps of one form, and the step as
    ``(M, b, concrete operands)``: x -> M x + b plus one point of each."""
    M, b, c = _stable(rng, n), rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, n)
    E = sc.Hyperrectangle(rng.uniform(-0.1, 0.1, n), rng.uniform(0.0, 0.05, n))
    Z = sc.Zonotope(rng.uniform(-0.1, 0.1, n), rng.uniform(-0.05, 0.05, (n, 2)))
    step = {
        "sum": (lambda X: make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=M), E]), 0, [E]),
        "affine_sum": (lambda X: make_node(
            "MinkowskiSum", [make_node("AffineMap", [X], matrix=M, vector=b), E]), b, [E]),
        "translation": (lambda X: make_node("Translation", [make_node("LinearMap", [X], matrix=M)], vector=b), b, []),
        "two_operands": (lambda X: make_node(
            "MinkowskiSumArray", [E, make_node("LinearMap", [X], matrix=M), Z]), 0, [E, Z]),
        "translated_affine": (lambda X: make_node(
            "Translation", [make_node("AffineMap", [X], matrix=M, vector=b)], vector=c), b + c, []),
    }
    build, shift, concrete = step[form]
    out = [sc.Zonotope(rng.uniform(-1, 1, n), rng.uniform(-0.3, 0.3, (n, 3)))]
    for _ in range(length):
        out.append(build(out[-1]))
    return out, (M, shift + np.zeros(n), concrete)


def _recurrence(X0, step, D, counts):
    """``{k: (values, vectors)}`` of X_k along the rows of D, for each k in
    ``counts``, one step at a time."""
    M, b, concrete = step
    out = {}
    values, vectors = np.zeros(len(D)), np.zeros(D.shape)
    B, P = D, np.eye(len(M))  # D M^k and M^k
    for k in range(max(counts) + 1):
        if k in counts:
            last, sigma = X0.support_batch(B, vectors=True)
            out[k] = values + last, vectors + sigma @ P.T
        more, point = B @ b, b
        for C in concrete:
            rho, sigma = C.support_batch(B, vectors=True)
            more, point = more + rho, point + sigma
        values, vectors = values + more, vectors + point @ P.T
        B, P = B @ M, M @ P
    return out


def _boundary_lengths(K):
    # One chunk, one chunk exactly full, one step over, and three chunks.
    return K - 1, K, K + 1, 2 * K + 1


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", [2, 3])
def test_runs_agree_at_chunk_boundaries(leaf_calls, n, form):
    rng = np.random.default_rng([n, len(form), 24])
    m = 600 // n
    D = np.array([random_unit_direction(rng, n) for _ in range(m)])
    K = _most_steps(m, n)
    for c in _boundary_lengths(K):
        steps, step = _chain(rng, n, form, c)
        expected = _recurrence(steps[0], step, D, {c})[c]
        leaf_calls.clear()
        values = _evaluate(steps[-1], D, CTX, "exact", False)[0]
        for C in step[2]:
            # The fewest chunks of at most K steps, balanced: sizes differ by
            # at most one step.
            rows = [rows for leaf, _, rows in leaf_calls if leaf == id(C)]
            assert len(rows) == (1 if c <= K else -(-c // K)) and sum(rows) == c * m
            assert max(rows) <= K * m and max(rows) - min(rows) <= m
        np.testing.assert_allclose(values, expected[0], rtol=RTOL, atol=RTOL)
        values, vectors = _evaluate(steps[-1], D, CTX, "exact", True)
        np.testing.assert_allclose(values, expected[0], rtol=RTOL, atol=RTOL)
        np.testing.assert_allclose(vectors, expected[1], rtol=RTOL, atol=RTOL)


@pytest.mark.parametrize("form", FORMS)
def test_prefix_union_heads_agree_at_chunk_boundaries(leaf_calls, form):
    # Union(X_j, ..., X_(j+T-1)): the j steps before its first operand are
    # the head, which splits into chunks like a plain run's steps; the T
    # tail blocks stay one stack with the last chunk, also when T > K.
    n, m = 3, 200
    rng = np.random.default_rng([len(form), 25])
    D = np.array([random_unit_direction(rng, n) for _ in range(m)])
    K = _most_steps(m, n)
    cases = [(j, 3) for j in _boundary_lengths(K)] + [(K, 2), (K + 1, 2), (K + 1, K + 5)]
    for j, T in cases:
        steps, step = _chain(rng, n, form, j + T - 1)
        tree = make_node("Union", steps[j:])
        assert tree._prefix
        outputs = _recurrence(steps[0], step, D, set(range(j, j + T)))
        taken = np.argmax([outputs[k][0] for k in range(j, j + T)], axis=0)
        rows = np.arange(m)
        expected_values = np.array([outputs[k][0] for k in range(j, j + T)])[taken, rows]
        expected_vectors = np.array([outputs[k][1] for k in range(j, j + T)])[taken, rows]
        leaf_calls.clear()
        values, vectors = _evaluate(tree, D, CTX, "exact", True)
        chunks = 1 if j <= K else -(-j // K)
        for C in step[2]:
            assert len([leaf for leaf, _, _ in leaf_calls if leaf == id(C)]) == chunks
        np.testing.assert_allclose(values, expected_values, rtol=RTOL, atol=RTOL)
        np.testing.assert_allclose(vectors, expected_vectors, rtol=RTOL, atol=RTOL)
        np.testing.assert_array_equal(_evaluate(tree, D, CTX, "exact", False)[0], values)


@pytest.mark.parametrize("form", ["sum", "two_operands"])
def test_blocks_over_half_the_budget_go_one_step_a_chunk(leaf_calls, form):
    # 5000 rows in 2-D: no chunk of 2 blocks stays below the budget, so each
    # step is a chunk; a flowpipe, whose first output comes after 1 step,
    # has nothing to split.
    n, m = 2, 5000
    rng = np.random.default_rng([len(form), 26])
    D = np.array([random_unit_direction(rng, n) for _ in range(m)])
    steps, step = _chain(rng, n, form, 4)
    for tree, counts, chunks in ((steps[-1], {4}, 4), (make_node("Union", steps[1:]), {1, 2, 3, 4}, 1)):
        outputs = _recurrence(steps[0], step, D, counts)
        taken = np.argmax([outputs[k][0] for k in sorted(counts)], axis=0)
        leaf_calls.clear()
        values, vectors = _evaluate(tree, D, CTX, "exact", True)
        assert len([leaf for leaf, _, _ in leaf_calls if leaf == id(step[2][0])]) == chunks
        np.testing.assert_allclose(values, np.array([outputs[k][0] for k in sorted(counts)])[taken, np.arange(m)],
                                   rtol=RTOL, atol=RTOL)
        np.testing.assert_allclose(vectors, np.array([outputs[k][1] for k in sorted(counts)])[taken, np.arange(m)],
                                   rtol=RTOL, atol=RTOL)


def test_query_memory_does_not_grow_with_the_horizon(traced_peak):
    # The temporaries of one query stay below 1 MB at 2,000 and at 20,000
    # steps: a values query along the 64 directions of a polar template and
    # a vector query along 16.  Whole stacks would take 5.9 and 59 MB.
    phi = _rotation(0.01, 0.9995)
    E = sc.Hyperrectangle([0.01, 0.0], [0.002, 0.003])
    steps = [sc.Zonotope([1.0, -0.5], [[0.2, 0.1], [0.0, 0.1]])]
    for _ in range(20_000):
        steps.append(make_node("MinkowskiSum", [make_node("LinearMap", [steps[-1]], matrix=phi), E]))
    step = (phi, np.zeros(2), [E])
    for rows, want in ((64, False), (16, True)):
        D = np.array(sc.generate_directions(polar_template(rows)))
        expected = _recurrence(steps[0], step, D, {2_000, 20_000})
        for N in (2_000, 20_000):
            steps[N].support_batch(D, vectors=want)
            (values, vectors), peak = traced_peak(steps[N].support_batch, D, vectors=want)
            assert peak <= 1 << 20, (N, rows, peak)
            np.testing.assert_allclose(values, expected[N][0], rtol=RTOL, atol=RTOL)
            if want:
                np.testing.assert_allclose(vectors, expected[N][1], rtol=RTOL, atol=RTOL)
