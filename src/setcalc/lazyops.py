"""Lazy set operations as immutable expression-tree nodes.

A :class:`LazyNode` records an operation applied to child sets (lazy or
concrete) without computing anything.  Support queries take a direction
matrix and propagate it down the tree in one iterative, memoized pass:

    rho(d, X + Y)        = rho(d, X) + rho(d, Y)
    rho((d1, d2), X x Z) = rho(d1, X) + rho(d2, Z)
    rho(d, CH(X u Y))    = max(rho(d, X), rho(d, Y))
    rho(d, M X)          = rho(M^T d, X)
    rho(d, X + b)        = rho(d, X) + d . b

plus a box formula for the symmetric interval hull.  An exact support value
over a lazy binary intersection has no composition rule; exact queries
concretize 2-D intersections and refuse otherwise, while the explicit
overapproximate mode returns the upper bound ``min(rho(d, X), rho(d, Y))``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatchError, UnsupportedOperationError
from .numerics import ToleranceContext, resolve_tolerance
from .sets import (
    AbstractHyperrectangle,
    ConcreteSet,
    ConvexSet,
    HPolyhedron,
    VPolygon,
    Zonotope,
    _as_direction,
    _as_vector,
    _axis_directions,
    _sign_plus,
)
from . import concrete_ops
from .approximation import symmetric_interval_hull
from .conversion import tohrep
from .sets import _hrep_vertices_2d, _normals_bound_2d

UNARY_KINDS = frozenset({"LinearMap", "AffineMap", "Translation", "SymmetricIntervalHull", "Complement"})
NARY_KINDS = frozenset({"MinkowskiSumArray", "Union"})
BINARY_KINDS = frozenset({"MinkowskiSum", "Intersection", "CartesianProduct", "ConvexHullUnion"})
KINDS = UNARY_KINDS | NARY_KINDS | BINARY_KINDS

# Kinds under which a tree of zonotopic leaves concretizes in closed form.
_ZONOTOPAL_KINDS = frozenset(
    {"MinkowskiSum", "MinkowskiSumArray", "LinearMap", "AffineMap", "Translation", "CartesianProduct"}
)


class LazyNode(ConvexSet):
    """One operation applied to operand sets, evaluated on demand.

    ``matrix``/``vector`` carry the payload of map and translation kinds.
    Nodes are immutable; build them with :func:`make_node`.
    """

    __slots__ = ("kind", "operands", "matrix", "vector", "_dim")

    def __init__(self, kind, operands, matrix=None, vector=None, _dim=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "operands", tuple(operands))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "_dim", _dim)

    def __setattr__(self, name, value):
        raise AttributeError("LazyNode is immutable")

    @property
    def dim(self) -> int:
        return self._dim

    def __repr__(self):
        inner = ", ".join(repr(op) for op in self.operands)
        return f"LazyNode({self.kind!r}, [{inner}])"

    def __eq__(self, other):
        if not isinstance(other, LazyNode) or self.kind != other.kind:
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        if self.matrix is not None and not np.array_equal(self.matrix, other.matrix):
            return False
        if (self.vector is None) != (other.vector is None):
            return False
        if self.vector is not None and not np.array_equal(self.vector, other.vector):
            return False
        return self.operands == other.operands

    __hash__ = None

    def _support_batch(self, D, ctx, vectors):
        return _evaluate(self, D, resolve_tolerance(ctx), "exact", vectors)

    def contains(self, x, ctx: ToleranceContext | None = None) -> bool:
        return lazy_membership(x, self, ctx)

    def depth(self) -> int:
        return _fold(self, lambda leaf: 1, lambda node, depths: 1 + max(depths))

    def num_leaves(self) -> int:
        """Leaf count of the tree: a leaf reached along several paths counts once per path."""
        return _fold(self, lambda leaf: 1, lambda node, counts: sum(counts))


def _fold(root, leaf, combine):
    """Value of ``root`` from its leaves up, without recursion: ``leaf(X)``
    values a concrete set, ``combine(node, values)`` a lazy node from its
    operands' values.  Shared nodes are expanded once (linear on DAGs)."""
    values = {}
    stack = [root]
    while stack:
        X = stack.pop()
        if type(X) is not LazyNode:
            values[id(X)] = leaf(X)
        elif all(id(op) in values for op in X.operands):
            values[id(X)] = combine(X, [values[id(op)] for op in X.operands])
        else:
            stack.append(X)
            stack.extend(op for op in X.operands if id(op) not in values)
    return values[id(root)]


def make_node(kind: str, operands, matrix=None, vector=None) -> LazyNode:
    """Validated construction of a lazy node; no computation happens.

    Dimensions must be consistent with the kind: cartesian products
    concatenate, maps require matching matrix columns, everything else needs
    equal operand dimensions.
    """
    if kind not in KINDS:
        raise UnsupportedOperationError(f"unknown lazy operation kind {kind!r}")
    operands = tuple(operands)
    if not operands:
        raise ValueError(f"{kind} needs at least one operand")
    for op in operands:
        if not isinstance(op, ConvexSet):
            raise TypeError(f"operand {op!r} is not a set")

    if kind in UNARY_KINDS:
        if len(operands) != 1:
            raise ValueError(f"{kind} takes exactly one operand")
    elif kind in BINARY_KINDS:
        if len(operands) != 2:
            raise ValueError(f"{kind} takes exactly two operands")
    elif len(operands) < 2:
        raise ValueError(f"{kind} takes at least two operands")

    dims = [op.dim for op in operands]
    if kind == "CartesianProduct":
        node_dim = sum(dims)
    elif kind == "LinearMap" or kind == "AffineMap":
        if matrix is None:
            raise ValueError(f"{kind} needs a matrix payload")
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        matrix.flags.writeable = False
        if matrix.shape[1] != dims[0]:
            raise DimensionMismatchError(
                f"{kind} matrix has {matrix.shape[1]} columns, operand "
                f"{type(operands[0]).__name__} has dimension {dims[0]}"
            )
        node_dim = matrix.shape[0]
        if kind == "AffineMap":
            if vector is None:
                raise ValueError("AffineMap needs a vector payload")
            vector = _as_vector(vector, node_dim, "shift")
    elif kind == "Translation":
        if vector is None:
            raise ValueError("Translation needs a vector payload")
        vector = _as_vector(vector, dims[0], "shift")
        node_dim = dims[0]
    else:
        first = dims[0]
        for op, d in zip(operands, dims):
            if d != first:
                raise DimensionMismatchError(
                    f"{kind} operands {type(operands[0]).__name__} (dim {first}) and "
                    f"{type(op).__name__} (dim {d}) have different dimensions"
                )
        node_dim = first
    return LazyNode(kind, operands, matrix, vector, _dim=node_dim)


def _same(X, D, want):
    return (D,) * len(X.operands), want


def _mapped(X, D, want):
    # LinearMap, AffineMap and Translation: rho(d, M Y + b) = rho(M^T d, Y) + d . b
    return (D if X.matrix is None else D.dot(X.matrix),), want


def _sliced(X, D, want):
    return np.split(D, np.cumsum([op.dim for op in X.operands[:-1]]), axis=1), want


def _axes(X, D, want):
    return (_axis_directions(X.dim),), False


def _complement(X, D, want):
    raise UnsupportedOperationError("support queries over a complement are not defined")


def _exact_intersection(X, D, want):
    if X.dim != 2:
        raise UnsupportedOperationError(
            "exact support over a lazy intersection is only available in 2-D; "
            "use mode='overapproximate' for the min-bound"
        )
    return (), want


def _bounded_intersection(X, D, want):
    if want:
        raise UnsupportedOperationError("support vectors are not available in overapproximate mode")
    return (D, D), False


def _sum(X, D, results, want, ctx):
    values, V = results[0]
    for other, W in results[1:]:
        values = values + other
        if want:
            V = V + W
    return values, V


def _product(X, D, results, want, ctx):
    values, _ = _sum(X, D, results, False, ctx)
    return values, (np.hstack([r[1] for r in results]) if want else None)


def _first_max(X, D, results, want, ctx):
    values = functools.reduce(np.maximum, [r[0] for r in results])
    if not want:
        return values, None
    first = np.argmax([r[0] for r in results], axis=0)
    return values, np.stack([r[1] for r in results])[first, np.arange(len(D))]


def _affine(X, D, results, want, ctx):
    values, V = results[0]
    if want and X.matrix is not None:
        V = V.dot(X.matrix.T)
    if X.vector is None:
        return values, V
    return values + D.dot(X.vector), (V + X.vector if want else None)


def _interval_hull(X, D, results, want, ctx):
    extents = np.abs(results[0][0])
    radius = np.maximum(extents[: X.dim], extents[X.dim :])
    return np.abs(D).dot(radius), (_sign_plus(D) * radius if want else None)


def _intersection_2d(X, D, results, want, ctx):
    return _intersection_hrep_2d(X, ctx)._support_batch(D, ctx, want)


def _min_bound(X, D, results, want, ctx):
    return np.minimum(results[0][0], results[1][0]), None


# Kind -> (blocks, combine).  ``blocks(X, D, want)`` returns the direction
# block each operand receives and whether the operands' support vectors are
# needed; ``combine(X, D, results, want, ctx)`` turns the operands' (values,
# vectors) into the node's.  ``ndarray.dot`` beats ``@`` on small operands.
_RULES = {
    "LinearMap": (_mapped, _affine),
    "AffineMap": (_mapped, _affine),
    "Translation": (_mapped, _affine),
    "MinkowskiSum": (_same, _sum),
    "MinkowskiSumArray": (_same, _sum),
    "CartesianProduct": (_sliced, _product),
    "ConvexHullUnion": (_same, _first_max),
    "Union": (_same, _first_max),
    "SymmetricIntervalHull": (_axes, _interval_hull),
    "Intersection": (_exact_intersection, _intersection_2d),
    "Complement": (_complement, None),
}
_MODES = {
    "exact": _RULES,
    "overapproximate": {**_RULES, "Intersection": (_bounded_intersection, _min_bound)},
}


def _evaluate(T, D, ctx, mode, want):
    """Support values of T along the rows of D, and its vectors if ``want``,
    from one iterative post-order walk over (node, direction block) pairs.
    The memo is keyed by their ids, so a shared subtree that receives the
    same block is evaluated once; ``blocks`` keeps every block alive so that
    no new array can reuse the id of a freed one."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rules = _MODES[mode]
    memo = {}
    blocks = [D]
    root = (T, D, want, (id(T), id(D), want), None)
    stack = [root]
    while stack:
        node, block, w, key, children = stack.pop()
        if children is not None:
            memo[key] = rules[node.kind][1](node, block, [memo[c[3]] for c in children], w, ctx)
        elif key in memo:
            continue
        elif type(node) is not LazyNode:
            memo[key] = node._support_batch(block, ctx, w)
        else:
            child_blocks, cw = rules[node.kind][0](node, block, w)
            blocks.extend(child_blocks)
            children = [(op, b, cw, (id(op), id(b), cw), None) for op, b in zip(node.operands, child_blocks)]
            stack.append((node, block, w, key, children))
            stack.extend(children)
    return memo[root[3]]


def lazy_support_function(d, T: ConvexSet, ctx: ToleranceContext | None = None, mode: str = "exact") -> float:
    """Support value of a lazy tree via the composition rules.

    ``mode='exact'`` (default) refuses trees it cannot answer exactly;
    ``mode='overapproximate'`` additionally handles lazy intersections with
    the upper bound ``min`` rule.
    """
    values, _ = _evaluate(T, _as_direction(d, T.dim)[None], resolve_tolerance(ctx), mode, False)
    return float(values[0])


def lazy_support_vector(d, T: ConvexSet, ctx: ToleranceContext | None = None, mode: str = "exact") -> np.ndarray:
    """A maximizer consistent with :func:`lazy_support_function`."""
    return _evaluate(T, _as_direction(d, T.dim)[None], resolve_tolerance(ctx), mode, True)[1][0]


def _is_singleton(X) -> np.ndarray | None:
    if isinstance(X, AbstractHyperrectangle) and np.all(X.radius_vector == 0.0):
        return X.center
    if isinstance(X, Zonotope) and X.num_generators == 0:
        return X.center
    if isinstance(X, (VPolygon,)) and X.num_vertices == 1:
        return X.vertices[0]
    return None


def lazy_membership(x, T: ConvexSet, ctx: ToleranceContext | None = None) -> bool:
    """Exact membership on the boolean-friendly fragment.

    Supported kinds: Union (or), Intersection (and), Complement (negation),
    Translation, invertible LinearMap/AffineMap, CartesianProduct (split),
    and MinkowskiSum with a singleton operand.  Anything else raises.
    """
    ctx = resolve_tolerance(ctx)
    x = _as_direction(x, T.dim)
    if isinstance(T, ConcreteSet):
        return T.contains(x, ctx)
    kind = T.kind
    if kind == "Union":
        return any(lazy_membership(x, op, ctx) for op in T.operands)
    if kind == "Intersection":
        return all(lazy_membership(x, op, ctx) for op in T.operands)
    if kind == "Complement":
        return not lazy_membership(x, T.operands[0], ctx)
    if kind == "Translation":
        return lazy_membership(x - T.vector, T.operands[0], ctx)
    if kind in ("LinearMap", "AffineMap"):
        M = T.matrix
        if M.shape[0] != M.shape[1]:
            raise UnsupportedOperationError("membership needs an invertible map")
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise UnsupportedOperationError("membership needs an invertible map") from None
        y = x - T.vector if kind == "AffineMap" else x
        return lazy_membership(Minv @ y, T.operands[0], ctx)
    if kind == "CartesianProduct":
        offset = 0
        for op in T.operands:
            if not lazy_membership(x[offset : offset + op.dim], op, ctx):
                return False
            offset += op.dim
        return True
    if kind in ("MinkowskiSum", "MinkowskiSumArray"):
        points = [_is_singleton(op) for op in T.operands]
        movable = [i for i, p in enumerate(points) if p is None]
        if len(movable) == 1:
            shift = sum((p for p in points if p is not None), np.zeros(T.dim))
            return lazy_membership(x - shift, T.operands[movable[0]], ctx)
        if len(movable) == 0:
            shift = sum(points, np.zeros(T.dim))
            return bool(np.all(np.abs(x - shift) <= ctx.atol))
        raise UnsupportedOperationError(
            "membership in a Minkowski sum needs all but one operand to be singletons"
        )
    raise UnsupportedOperationError(f"membership is not defined for lazy kind {kind!r}")


def _is_zonotopal(X) -> bool:
    return _fold(
        X,
        lambda leaf: isinstance(leaf, (AbstractHyperrectangle, Zonotope)),
        lambda node, flags: node.kind in _ZONOTOPAL_KINDS and all(flags),
    )


def _concretize_zonotopal(X, ctx) -> Zonotope:
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
        return concrete_ops.translate(
            concrete_ops.linear_map(X.matrix, children[0], ctx), X.vector
        )
    if kind == "Translation":
        return concrete_ops.translate(children[0], X.vector)
    if kind == "CartesianProduct":
        return concrete_ops.cartesian_product(children[0], children[1], ctx)
    raise UnsupportedOperationError(f"kind {kind!r} does not preserve zonotopes")


def _intersection_hrep_2d(X, ctx) -> HPolyhedron:
    """H-representation of a 2-D lazy intersection node.

    Concrete operands contribute their constraint lists directly (so
    half-space and H-polyhedron operands are fine); lazy operands are
    concretized to polygons first.
    """
    constraints = []
    for op in X.operands:
        if isinstance(op, ConcreteSet):
            constraints.extend(op.constraints_list(ctx))
        else:
            poly = concrete_ops._to_polygon(concretize(op, ctx), ctx)
            constraints.extend(tohrep(poly, ctx).constraints)
    return HPolyhedron(constraints, dim=2)


def _concretize_2d(X, ctx) -> ConcreteSet:
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
        child = concretize(X.operands[0], ctx)
        return concrete_ops._to_polygon(concrete_ops.linear_map(X.matrix, child, ctx), ctx)
    if kind == "AffineMap":
        child = concretize(X.operands[0], ctx)
        mapped = concrete_ops.linear_map(X.matrix, child, ctx)
        return concrete_ops._to_polygon(concrete_ops.translate(mapped, X.vector), ctx)
    if kind == "Translation":
        return as_poly(X.operands[0]).translate(X.vector)
    if kind == "Intersection":
        region = _intersection_hrep_2d(X, ctx)
        if concrete_ops.is_empty(region, ctx):
            return VPolygon([])
        if not _normals_bound_2d(region.constraints):
            return region
        vertices = _hrep_vertices_2d(region.constraints, ctx)
        return VPolygon([]) if vertices is None else VPolygon(vertices)
    if kind == "CartesianProduct":
        children = [concretize(op, ctx) for op in X.operands]
        product = children[0]
        for child in children[1:]:
            product = concrete_ops.cartesian_product(product, child, ctx)
        return concrete_ops._to_polygon(product, ctx)
    if kind == "SymmetricIntervalHull":
        return concrete_ops._to_polygon(symmetric_interval_hull(X.operands[0], ctx), ctx)
    raise UnsupportedOperationError(f"cannot concretize lazy kind {kind!r} in 2-D")


def concretize(T: ConvexSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Evaluate a lazy tree into a concrete set.

    Trees whose kinds all preserve zonotopes collapse in closed form (any
    dimension); general 2-D trees over polytopic leaves are evaluated
    bottom-up into a polygon.  Everything else raises.
    """
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
