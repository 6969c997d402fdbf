"""Prefix unions: a union of the values after consecutive counts of one run's
equal steps, such as the flowpipe ``Union(X_1, ..., X_T)`` of a reach chain,
is one run pair whose tail answers one block per operand.

Answers are checked against ``support_reference.reference_support_pair``,
the per-direction recursion, to 1e-12 relative, fixed before running; the
route is checked by the rows the leaves answer.
"""

import numpy as np
import pytest

import setcalc as sc
from setcalc import make_node, polar_template
from setcalc.cli import parse_doc, serialize_doc
from setcalc.lazyops import _evaluate
from conftest import random_unit_direction
from support_reference import reference_support_pair
from test_batched_support import _chain, _rotation, _stable

RTOL = 1e-12
CTX = sc.default_tolerance()


def _steps(rng, n, form, length, tail):
    """``[X_0, ..., X_length]``: ``length`` equal steps of one form over the
    tail X_0, every step sharing the one below it."""
    M, b = _stable(rng, n), rng.uniform(-0.2, 0.2, n)
    E = sc.Hyperrectangle(rng.uniform(-0.1, 0.1, n), rng.uniform(0.0, 0.05, n))
    Z = sc.Zonotope(rng.uniform(-0.1, 0.1, n), rng.uniform(-0.05, 0.05, (n, 2)))

    def step(X):
        if form == "sum":
            return make_node("MinkowskiSum", [make_node("LinearMap", [X], matrix=M), E])
        if form == "sum_first":
            return make_node("MinkowskiSum", [E, make_node("LinearMap", [X], matrix=M)])
        if form == "affine":
            return make_node("AffineMap", [X], matrix=M, vector=b)
        if form == "affine_sum":
            return make_node("MinkowskiSum", [make_node("AffineMap", [X], matrix=M, vector=b), E])
        if form == "translation":
            return make_node("Translation", [make_node("LinearMap", [X], matrix=M)], vector=b)
        if form == "sum_array":
            return make_node("MinkowskiSumArray", [E, make_node("LinearMap", [X], matrix=M), Z])
        return make_node("LinearMap", [X], matrix=M)

    out = [tail]
    for _ in range(length):
        out.append(step(out[-1]))
    return out


def _tail(rng, n, kind):
    Z = sc.Zonotope(rng.uniform(-1, 1, n), rng.uniform(-0.3, 0.3, (n, 3)))
    if kind == "concrete":
        return Z
    if kind == "hull":
        return make_node("ConvexHullUnion", [Z, sc.Hyperrectangle(rng.uniform(-1, 1, n), rng.uniform(0.1, 0.4, n))])
    return make_node("SymmetricIntervalHull", [Z])


def _directions(rng, n, rows=9, zero_rows=False):
    D = np.array([random_unit_direction(rng, n) for _ in range(rows)]).reshape(rows, n)
    if zero_rows:
        D[::4] = 0.0
    return D


def _check(tree, D):
    assert tree._prefix
    for mode in ("exact", "overapproximate"):
        for want in (False, True):
            part = 1 if want else 0
            reference = np.array([reference_support_pair(d, tree, CTX, mode, want)[part] for d in D])
            got = _evaluate(tree, D, CTX, mode, want)
            np.testing.assert_allclose(got[part], reference, rtol=RTOL, atol=RTOL)
            if want:
                np.testing.assert_array_equal(got[0], _evaluate(tree, D, CTX, mode, False)[0])
    values, vectors = _evaluate(tree, D[:0], CTX, "exact", True)
    assert values.shape == (0,) and vectors.shape == (0, tree.dim)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_windows_of_a_longer_chain(n):
    # X_j, ..., X_(j+T-1) of a 12-step chain; j = 0 starts at the tail.
    rng = np.random.default_rng([n, 16])
    steps = _steps(rng, n, "sum", 12, _tail(rng, n, "concrete"))
    for j, T in [(0, 2), (0, 13), (1, 12), (1, 2), (3, 4), (5, 2), (11, 2), (2, 9)]:
        _check(make_node("Union", steps[j : j + T]), _directions(rng, n, zero_rows=j % 2 == 1))


@pytest.mark.parametrize("tail", ["concrete", "hull", "interval_hull"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_unions_that_start_at_the_tail(n, tail):
    rng = np.random.default_rng([n, len(tail)])
    steps = _steps(rng, n, "sum", 9, _tail(rng, n, tail))
    for T in (2, 3, 10):
        _check(make_node("Union", steps[:T]), _directions(rng, n))


@pytest.mark.parametrize("form", ["sum_first", "affine", "affine_sum", "translation", "sum_array", "map"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_steps_of_every_form(n, form):
    rng = np.random.default_rng([n, len(form)])
    steps = _steps(rng, n, form, 11, _tail(rng, n, "concrete"))
    for j, T in [(0, 12), (1, 11), (4, 3)]:
        _check(make_node("Union", steps[j : j + T]), _directions(rng, n, zero_rows=True))


def test_two_step_convex_hull_unions():
    rng = np.random.default_rng(61)
    steps = _steps(rng, 2, "sum", 2, _tail(rng, 2, "concrete"))
    for pair in (steps[:2], steps[1:]):
        _check(make_node("ConvexHullUnion", pair), _directions(rng, 2, zero_rows=True))


def test_ties_take_the_first_operand():
    # With Phi = I and E = {0} x [-r, r], every step along (+-1, 0) adds 0
    # exactly, so all operands tie there; their vectors differ by k (0, r),
    # and the first operand's, after 2 steps, is the answer.
    X0 = sc.Zonotope([0.3, -0.2], [[0.4, 0.1], [0.2, -0.3]])
    r = 0.25
    E = sc.Hyperrectangle([0.0, 0.0], [0.0, r])
    steps = [X0]
    for _ in range(7):
        steps.append(make_node("MinkowskiSum", [make_node("LinearMap", [steps[-1]], matrix=np.eye(2)), E]))
    tree = make_node("Union", steps[2:])
    D = np.array([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.0, -1.0], [0.0, 0.0]])
    _check(tree, D)
    values, vectors = tree.support_batch(D, vectors=True)
    for row in (0, 1, 4):
        expected = X0.support_vector(D[row]) + 2 * np.array([0.0, r])
        np.testing.assert_allclose(vectors[row], expected, rtol=RTOL, atol=RTOL)
    assert values[4] == 0.0


def _not_prefix_shapes():
    # Leaf rows per query along 16 directions, as the walk of each union
    # operand on its own answers them.
    steps = _chain(8, np.random.default_rng(7))
    X0, E = steps[0], steps[1].operands[1]

    def run(M, length):
        out = [X0]
        for _ in range(length):
            out.append(make_node("MinkowskiSum", [make_node("LinearMap", [out[-1]], matrix=M), E]))
        return out

    other = run(_rotation(0.07, 0.98), 2)
    signed = np.array([[0.5, 0.0], [0.25, 0.75]])
    zero = signed.copy()
    zero[0, 1] = -0.0
    A, B = run(signed, 3), run(zero, 3)
    C = A + [make_node("MinkowskiSum", [make_node("LinearMap", [A[-1]], matrix=zero), E])]
    flowpipe = make_node("Union", steps[1:])
    assert flowpipe._prefix
    return {
        "descending": (make_node("Union", steps[:0:-1]), 704),
        "gap": (make_node("Union", [steps[1], steps[3]]), 96),
        "two_chains": (make_node("Union", [steps[1], other[2], steps[3]]), 128),
        "signed_zero_chains": (make_node("Union", [A[1], B[2]]), 64),
        "signed_zero_step": (make_node("Union", [C[2], C[3], C[4]]), 192),
        # X_3 has a second parent, lower than the union, so the run's tail is
        # below the heap's top when the union is popped, and it falls back.
        "second_parent": (make_node("MinkowskiSum", [
            flowpipe, make_node("LinearMap", [steps[3]], matrix=_rotation(0.3, 0.9))]), 768),
    }


@pytest.mark.parametrize("name", sorted(_not_prefix_shapes()))
def test_other_unions_keep_their_answers_and_route(leaf_calls, name):
    tree, expected_rows = _not_prefix_shapes()[name]
    assert not tree._prefix
    D = np.array(sc.generate_directions(polar_template(16)))
    for mode in ("exact", "overapproximate"):
        for want in (False, True):
            part = 1 if want else 0
            leaf_calls.clear()
            got = _evaluate(tree, D, CTX, mode, want)[part]
            assert sum(rows for *_, rows in leaf_calls) == expected_rows
            reference = np.array([reference_support_pair(d, tree, CTX, mode, want)[part] for d in D])
            np.testing.assert_allclose(got, reference, rtol=RTOL, atol=RTOL)


def _flowpipe_recurrence(X0, E, phi, D, T):
    """Support values and vectors of ``Union(X_1, ..., X_T)``, with
    ``X_k = phi X_(k-1) + E``, by the sequential numpy recurrence: values
    per step, the first max over k, then that step's vector."""
    def box(B):
        return B @ E.center + np.abs(B) @ E.radius_vector, E.center + np.where(B >= 0.0, 1.0, -1.0) * E.radius_vector

    def zonotope(B):
        BG = B @ X0.generators
        return B @ X0.center + np.abs(BG).sum(axis=1), X0.center + np.where(BG >= 0.0, 1.0, -1.0) @ X0.generators.T

    m = len(D)
    values, sums, B = np.empty((T + 1, m)), np.zeros(m), D
    for k in range(T + 1):
        values[k] = sums + zonotope(B)[0]
        sums = sums + box(B)[0]
        B = B @ phi
    k_best = 1 + np.argmax(values[1:], axis=0)
    vectors, power, B = np.zeros((m, 2)), np.eye(2), D
    for k in range(T + 1):
        at = k_best == k
        vectors[at] += zonotope(B[at])[1] @ power.T
        below = k < k_best
        vectors[below] += box(B[below])[1] @ power.T
        B, power = B @ phi, phi @ power
    return values[1:].max(axis=0), vectors


def test_long_flowpipe_answers_in_linear_rows(leaf_calls):
    # T = 2000 steps: 2 T blocks of 32 rows, T to E and T to X_0, where a
    # walk of each step on its own would stack about T^2 / 2 blocks.
    T = 2000
    steps = _chain(T, np.random.default_rng(53))
    tree = make_node("Union", steps[1:])
    assert tree._prefix
    X0, E, phi = steps[0], steps[1].operands[1], steps[1].operands[0].matrix
    D = np.array(sc.generate_directions(polar_template(32)))
    values, vectors = _flowpipe_recurrence(X0, E, phi, D, T)
    for want in (False, True):
        leaf_calls.clear()
        got = tree.support_batch(D, vectors=want)
        assert sorted(rows for *_, rows in leaf_calls) == [T * 32, T * 32]
        np.testing.assert_allclose(got[0], values, rtol=1e-9)
    np.testing.assert_allclose(got[1], vectors, rtol=1e-9, atol=1e-12)


def test_parsed_flowpipe_is_a_prefix_union(leaf_calls):
    # A document's lazy nodes come back unshared, but its leaves shared, so
    # run summaries make the parsed flowpipe a prefix union all the same.
    T = 64
    steps = _chain(T, np.random.default_rng(59))
    tree = make_node("Union", steps[1:])
    parsed = parse_doc(serialize_doc(tree))
    assert parsed._prefix and parsed.operands[-2] is not parsed.operands[-1].operands[0].operands[0]
    D = np.array(sc.generate_directions(polar_template(16)))
    for want in (False, True):
        expected = tree.support_batch(D, vectors=want)
        leaf_calls.clear()
        got = parsed.support_batch(D, vectors=want)
        assert sorted(rows for *_, rows in leaf_calls) == [T * 16, T * 16]
        np.testing.assert_array_equal(got[0], expected[0])
        if want:
            np.testing.assert_array_equal(got[1], expected[1])
