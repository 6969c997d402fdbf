"""Recursive concretization and membership for lazy trees, kept as a test oracle.

These are ``concretize`` and ``lazy_membership`` as they were before both
moved onto the iterative walkers in ``setcalc.lazyops``: a whole-tree
zonotope test, then one Python recursion per node along the closed-form or
the 2-D polygon route, and ``any``/``all`` recursion for membership.  Tests
compare the walkers against this reference; the library does not use it.
"""

import numpy as np

from setcalc import concrete_ops
from setcalc.approximation import symmetric_interval_hull
from setcalc.errors import EmptySetError, UnsupportedOperationError
from setcalc.lazyops import LazyNode, _fold, _is_singleton
from setcalc.numerics import resolve_tolerance
from setcalc.sets import (
    AbstractHyperrectangle,
    ConcreteSet,
    HalfSpace,
    HPolyhedron,
    Hyperplane,
    VPolygon,
    Zonotope,
    _as_direction,
    _hpolygon_2d,
    _normals_bound,
)

_ZONOTOPAL_KINDS = frozenset(
    {"MinkowskiSum", "MinkowskiSumArray", "LinearMap", "AffineMap", "Translation", "CartesianProduct"}
)


def reference_membership(x, T, ctx=None):
    ctx = resolve_tolerance(ctx)
    x = _as_direction(x, T.dim)
    if isinstance(T, ConcreteSet):
        return T.contains(x, ctx)
    kind = T.kind
    if kind == "Union":
        return any(reference_membership(x, op, ctx) for op in T.operands)
    if kind == "Intersection":
        return all(reference_membership(x, op, ctx) for op in T.operands)
    if kind == "Complement":
        return not reference_membership(x, T.operands[0], ctx)
    if kind == "Translation":
        return reference_membership(x - T.vector, T.operands[0], ctx)
    if kind in ("LinearMap", "AffineMap"):
        M = T.matrix
        if M.shape[0] != M.shape[1]:
            raise UnsupportedOperationError("membership needs an invertible map")
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise UnsupportedOperationError("membership needs an invertible map") from None
        y = x - T.vector if kind == "AffineMap" else x
        return reference_membership(Minv @ y, T.operands[0], ctx)
    if kind == "CartesianProduct":
        offset = 0
        for op in T.operands:
            if not reference_membership(x[offset : offset + op.dim], op, ctx):
                return False
            offset += op.dim
        return True
    if kind in ("MinkowskiSum", "MinkowskiSumArray"):
        points = [_is_singleton(op) for op in T.operands]
        movable = [i for i, p in enumerate(points) if p is None]
        if len(movable) == 1:
            shift = sum((p for p in points if p is not None), np.zeros(T.dim))
            return reference_membership(x - shift, T.operands[movable[0]], ctx)
        if len(movable) == 0:
            shift = sum(points, np.zeros(T.dim))
            return bool(np.all(np.abs(x - shift) <= ctx.atol))
        raise UnsupportedOperationError(
            "membership in a Minkowski sum needs all but one operand to be singletons"
        )
    raise UnsupportedOperationError(f"membership is not defined for lazy kind {kind!r}")


def _is_zonotopal(X):
    return _fold(
        X,
        lambda leaf: isinstance(leaf, (AbstractHyperrectangle, Zonotope)),
        lambda node, flags: node.kind in _ZONOTOPAL_KINDS and all(flags),
    )


def _concretize_zonotopal(X, ctx):
    if isinstance(X, ConcreteSet):
        return concrete_ops._as_zonotope(X)
    kind = X.kind
    children = [_concretize_zonotopal(op, ctx) for op in X.operands]
    if kind in ("MinkowskiSum", "MinkowskiSumArray"):
        out = children[0]
        for child in children[1:]:
            out = concrete_ops.minkowski_sum(out, child, ctx)
        return out
    if kind == "LinearMap":
        return concrete_ops.linear_map(X.matrix, children[0], ctx)
    if kind == "AffineMap":
        return concrete_ops.translate(concrete_ops.linear_map(X.matrix, children[0], ctx), X.vector)
    if kind == "Translation":
        return concrete_ops.translate(children[0], X.vector)
    if kind == "CartesianProduct":
        return concrete_ops.cartesian_product(children[0], children[1], ctx)
    raise UnsupportedOperationError(f"kind {kind!r} does not preserve zonotopes")


def _intersection_hrep_2d(X, ctx):
    """The stacked constraint rows of a 2-D intersection's operand values,
    lazy or concrete; an empty value has none and raises ``EmptySetError``."""
    constraints = []
    for op in X.operands:
        constraints.extend(reference_concretize(op, ctx).constraints_list(ctx))
    return HPolyhedron(constraints, dim=2)


def _value_2d(X, ctx):
    """The form every 2-D node's value takes: a bounded polytope a polygon,
    an empty one the empty polygon, an unbounded set as it is."""
    if isinstance(X, (VPolygon, HalfSpace, Hyperplane)):
        return X
    if not isinstance(X, HPolyhedron):
        return VPolygon(X.vertices_list(ctx))
    if concrete_ops.is_empty(X, ctx):
        return VPolygon([])
    if not _normals_bound(X.A):
        return X
    return VPolygon(_hpolygon_2d(X.A, X.b, ctx)[1])


def _concretize_2d(X, ctx):
    if isinstance(X, ConcreteSet):
        return concrete_ops._to_polygon(X, ctx)

    def as_poly(node):
        return concrete_ops._to_polygon(_concretize_2d(node, ctx), ctx)

    kind = X.kind
    if kind in ("MinkowskiSum", "MinkowskiSumArray"):
        out = as_poly(X.operands[0])
        for op in X.operands[1:]:
            out = concrete_ops._polygon_minkowski(out, as_poly(op), ctx)
        return out
    if kind == "ConvexHullUnion":
        left = as_poly(X.operands[0])
        right = as_poly(X.operands[1])
        return VPolygon(np.vstack([left.vertices, right.vertices]))
    if kind == "LinearMap":
        child = reference_concretize(X.operands[0], ctx)
        return _value_2d(concrete_ops.linear_map(X.matrix, child, ctx), ctx)
    if kind == "AffineMap":
        child = reference_concretize(X.operands[0], ctx)
        mapped = concrete_ops.linear_map(X.matrix, child, ctx)
        return _value_2d(concrete_ops.translate(mapped, X.vector), ctx)
    if kind == "Translation":
        return _value_2d(reference_concretize(X.operands[0], ctx).translate(X.vector), ctx)
    if kind == "Intersection":
        try:
            region = _intersection_hrep_2d(X, ctx)
        except EmptySetError:
            return VPolygon([])
        return _value_2d(region, ctx)
    if kind == "CartesianProduct":
        children = [reference_concretize(op, ctx) for op in X.operands]
        product = children[0]
        for child in children[1:]:
            product = concrete_ops.cartesian_product(product, child, ctx)
        return _value_2d(product, ctx)
    if kind == "SymmetricIntervalHull":
        return _value_2d(symmetric_interval_hull(X.operands[0], ctx), ctx)
    raise UnsupportedOperationError(f"cannot concretize lazy kind {kind!r} in 2-D")


def reference_concretize(T, ctx=None):
    ctx = resolve_tolerance(ctx)
    if isinstance(T, ConcreteSet):
        return T
    if not isinstance(T, LazyNode):
        raise TypeError(f"expected a set, got {type(T).__name__}")
    if _is_zonotopal(T):
        return _concretize_zonotopal(T, ctx)
    if T.dim == 2:
        return _concretize_2d(T, ctx)
    raise UnsupportedOperationError(
        f"cannot concretize kind {T.kind!r} in dimension {T.dim}: outside both "
        "the zonotope-preserving and the 2-D polygon fragments"
    )
