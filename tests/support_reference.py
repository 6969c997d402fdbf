"""Per-direction recursive support rules for lazy trees, kept as a test oracle.

These are the composition rules as they were evaluated before the batched
evaluator: one Python recursion per direction and node, with support vectors
threaded through the same recursion.  Tests compare the batched pass against
this reference; the library does not use it.
"""

import math

import numpy as np

from concretize_reference import _intersection_hrep_2d
from setcalc.errors import UnsupportedOperationError
from setcalc.numerics import resolve_tolerance
from setcalc.sets import ConcreteSet, _sign_plus


def reference_support_pair(d, X, ctx=None, mode="exact", want_vector=False):
    """``(value, vector_or_None)`` of X along the single direction d."""
    ctx = resolve_tolerance(ctx)
    d = np.asarray(d, dtype=float)
    if isinstance(X, ConcreteSet):
        value = X.support_function(d, ctx)
        vec = X.support_vector(d, ctx) if want_vector else None
        return value, vec

    kind = X.kind
    if kind == "Complement":
        raise UnsupportedOperationError("support queries over a complement are not defined")

    if kind in ("MinkowskiSum", "MinkowskiSumArray"):
        total = 0.0
        vec = np.zeros(X.dim) if want_vector else None
        for op in X.operands:
            value, sigma = reference_support_pair(d, op, ctx, mode, want_vector)
            total = total + value
            if want_vector:
                vec = vec + sigma
        return total, vec

    if kind in ("ConvexHullUnion", "Union"):
        best = -math.inf
        best_op = None
        for op in X.operands:
            value, _ = reference_support_pair(d, op, ctx, mode, False)
            if value > best:
                best, best_op = value, op
        if not want_vector:
            return best, None
        _, sigma = reference_support_pair(d, best_op, ctx, mode, True)
        return best, sigma

    if kind == "CartesianProduct":
        offset = 0
        total = 0.0
        parts = []
        for op in X.operands:
            sub = d[offset : offset + op.dim]
            value, sigma = reference_support_pair(sub, op, ctx, mode, want_vector)
            total += value
            if want_vector:
                parts.append(sigma)
            offset += op.dim
        return total, (np.concatenate(parts) if want_vector else None)

    if kind == "LinearMap":
        value, sigma = reference_support_pair(X.matrix.T @ d, X.operands[0], ctx, mode, want_vector)
        return value, (X.matrix @ sigma if want_vector else None)

    if kind == "AffineMap":
        value, sigma = reference_support_pair(X.matrix.T @ d, X.operands[0], ctx, mode, want_vector)
        value = value + float(d @ X.vector)
        return value, (X.matrix @ sigma + X.vector if want_vector else None)

    if kind == "Translation":
        value, sigma = reference_support_pair(d, X.operands[0], ctx, mode, want_vector)
        return value + float(d @ X.vector), (sigma + X.vector if want_vector else None)

    if kind == "SymmetricIntervalHull":
        child = X.operands[0]
        n = X.dim
        radius = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            up, _ = reference_support_pair(e, child, ctx, mode, False)
            down, _ = reference_support_pair(-e, child, ctx, mode, False)
            radius[i] = max(abs(up), abs(down))
        value = float(np.abs(d) @ radius)
        return value, (_sign_plus(d) * radius if want_vector else None)

    if kind == "Intersection":
        if mode == "overapproximate":
            left, _ = reference_support_pair(d, X.operands[0], ctx, mode, False)
            right, _ = reference_support_pair(d, X.operands[1], ctx, mode, False)
            if not want_vector:
                return min(left, right), None
            raise UnsupportedOperationError(
                "support vectors are not available in overapproximate mode"
            )
        if X.dim == 2:
            region = _intersection_hrep_2d(X, ctx)
            value = region.support_function(d, ctx)
            vec = region.support_vector(d, ctx) if want_vector else None
            return value, vec
        raise UnsupportedOperationError(
            "exact support over a lazy intersection is only available in 2-D; "
            "use mode='overapproximate' for the min-bound"
        )

    raise UnsupportedOperationError(f"support rule missing for kind {kind!r}")
