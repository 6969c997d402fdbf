"""Lazy set operations as immutable expression-tree nodes.

A :class:`LazyNode` records an operation applied to child sets (lazy or
concrete) without computing anything.  Every kind has one row in ``_KINDS``
holding its arity and its rules.  Support queries take a direction matrix and
propagate it down the tree in one iterative, memoized pass:

    rho(d, X + Y)        = rho(d, X) + rho(d, Y)
    rho((d1, d2), X x Z) = rho(d1, X) + rho(d2, Z)
    rho(d, CH(X u Y))    = max(rho(d, X), rho(d, Y))
    rho(d, M X)          = rho(M^T d, X)
    rho(d, X + b)        = rho(d, X) + d . b

plus a box formula for the symmetric interval hull.  An exact support value
over a lazy binary intersection has no composition rule; exact queries
concretize 2-D intersections and refuse otherwise, while the explicit
overapproximate mode returns the upper bound ``min(rho(d, X), rho(d, Y))``.
Concretization and membership walk the same rows without recursion, so deep
and shared trees cost time linear in their distinct nodes.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, UnboundedSetError, UnsupportedOperationError
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
from .conversion import tohrep, tovrep


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
        # A node's text is a (head, operand texts) pair that holds the operand
        # texts by reference, so deep chains cost linear time and memory; the
        # pieces are joined once, in order, by an explicit stack.
        out, stack = [], [_fold(self, repr, lambda node, inner: (f"LazyNode({node.kind!r}, [", inner))]
        while stack:
            piece = stack.pop()
            if isinstance(piece, str):
                out.append(piece)
            else:
                out.append(piece[0])
                stack += ["])", *[s for text in reversed(piece[1]) for s in (", ", text)][1:]]
        return "".join(out)

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


def _fold(root, leaf, combine, operands=lambda X: X.operands, values=None):
    """Value of ``root`` from its leaves up, without recursion: ``leaf(X)``
    values a concrete set, ``combine(node, values)`` a lazy node from the
    values of ``operands(node)``, which are visited left to right.  Shared
    nodes are valued once (linear on DAGs); passing the same ``values`` dict
    to folds with the same rules shares that memo between them."""
    values = {} if values is None else values
    stack = [root]
    while stack:
        X = stack.pop()
        if id(X) in values:
            continue
        if type(X) is not LazyNode:
            values[id(X)] = leaf(X)
            continue
        ops = operands(X)
        if all(id(op) in values for op in ops):
            values[id(X)] = combine(X, [values[id(op)] for op in ops])
        else:
            stack.append(X)
            stack.extend(op for op in reversed(ops) if id(op) not in values)
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

    arity = _KINDS[kind].arity
    if arity is None and len(operands) < 2:
        raise ValueError(f"{kind} takes at least two operands")
    if arity is not None and len(operands) != arity:
        raise ValueError(f"{kind} takes exactly {'one operand' if arity == 1 else 'two operands'}")

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


def _offsets(X):
    # Where a cartesian product's coordinates pass from one operand to the next.
    return np.cumsum([op.dim for op in X.operands[:-1]])


# ---------------------------------------------------------------------------
# Support rules: ``blocks(X, D, want)`` returns the direction block each
# operand receives and whether the operands' support vectors are needed;
# ``combine(X, D, results, want, ctx)`` turns the operands' (values, vectors)
# into the node's.  ``ndarray.dot`` beats ``@`` on small operands.


def _same(X, D, want):
    return (D,) * len(X.operands), want


def _mapped(X, D, want):
    # LinearMap, AffineMap and Translation: rho(d, M Y + b) = rho(M^T d, Y) + d . b
    return (D if X.matrix is None else D.dot(X.matrix),), want


def _sliced(X, D, want):
    return np.split(D, _offsets(X), axis=1), want


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
    # An infinite radius counts only where the direction weights it (0 * inf = 0).
    extents = np.abs(results[0][0])
    radius = np.maximum(extents[: X.dim], extents[X.dim :])
    finite = np.isfinite(radius)
    radius = np.where(finite, radius, 0.0)
    values = np.abs(D).dot(radius)
    values[np.any(D[:, ~finite] != 0.0, axis=1)] = np.inf
    if want and not np.all(np.isfinite(values)):
        raise UnboundedSetError("symmetric interval hull is unbounded in this direction")
    return values, (_sign_plus(D) * radius if want else None)


def _intersection_2d(X, D, results, want, ctx):
    return _intersection_hrep_2d(X, ctx)._support_batch(D, ctx, want)


def _min_bound(X, D, results, want, ctx):
    return np.minimum(results[0][0], results[1][0]), None


# ---------------------------------------------------------------------------
# Concretize rules ``(X, values, ctx)``, over the concrete values of X's
# operands.  A zonotope rule is the closed form on zonotope operands; a
# polygon rule builds a 2-D node from any operand values.


def _mapped_set(X, values, ctx):
    # LinearMap, AffineMap and Translation: M Y + b
    Y = values[0] if X.matrix is None else concrete_ops.linear_map(X.matrix, values[0], ctx)
    return Y if X.vector is None else Y.translate(X.vector)


def _sum_set(X, values, ctx):
    return functools.reduce(lambda A, B: concrete_ops.minkowski_sum(A, B, ctx), values)


def _product_set(X, values, ctx):
    return concrete_ops.cartesian_product(*values, ctx)


def _polygon_of(rule):
    """``rule`` on the operands' values, with its result made a polygon."""
    return lambda X, values, ctx: concrete_ops._to_polygon(rule(X, values, ctx), ctx)


def _on_polygons(rule):
    """``rule`` on the operands' values made polygons."""
    return lambda X, values, ctx: rule(X, [concrete_ops._to_polygon(v, ctx) for v in values], ctx)


def _operand_hrep_2d(X, values, ctx) -> HPolyhedron:
    # Concrete operands contribute their own constraint lists (so half-space
    # and H-polyhedron operands are fine); lazy ones the edges of their polygon.
    constraints = []
    for op, value in zip(X.operands, values):
        constraints.extend((tohrep(value, ctx) if type(op) is LazyNode else value).constraints_list(ctx))
    return HPolyhedron(constraints, dim=2)


def _intersection_set(X, values, ctx):
    region = _operand_hrep_2d(X, values, ctx)
    try:
        return tovrep(region, ctx)
    except EmptySetError:
        return VPolygon([])
    except UnboundedSetError:
        return region


def _interval_hull_set(X, values, ctx):
    return concrete_ops._to_polygon(symmetric_interval_hull(X.operands[0], ctx), ctx)


# ---------------------------------------------------------------------------
# Membership rules ``(X, x, ctx)`` are coroutines: each ``yield (operand, y)``
# asks whether y lies in the operand, and the return value is X's verdict.


def _decided_by(verdict, points=lambda X, x: [x] * len(X.operands)):
    """The rule that asks the operands in order, each at its point, and says
    ``verdict`` once one does, else its negation: ``any`` or ``all``."""

    def rule(X, x, ctx):
        for op, y in zip(X.operands, points(X, x)):
            if bool((yield op, y)) is verdict:
                return verdict
        return not verdict

    return rule


def _negation(X, x, ctx):
    return not (yield X.operands[0], x)


def _preimage(X, x, ctx):
    # LinearMap, AffineMap and Translation: x in M Y + b iff M^-1 (x - b) in Y
    y = x if X.vector is None else x - X.vector
    if X.matrix is not None:
        if X.matrix.shape[0] != X.matrix.shape[1]:
            raise UnsupportedOperationError("membership needs an invertible map")
        try:
            y = np.linalg.inv(X.matrix) @ y
        except np.linalg.LinAlgError:
            raise UnsupportedOperationError("membership needs an invertible map") from None
    return (yield X.operands[0], y)


def _is_singleton(X) -> np.ndarray | None:
    if isinstance(X, AbstractHyperrectangle) and np.all(X.radius_vector == 0.0):
        return X.center
    if isinstance(X, Zonotope) and X.num_generators == 0:
        return X.center
    if isinstance(X, (VPolygon,)) and X.num_vertices == 1:
        return X.vertices[0]
    return None


def _singleton_shift(X, x, ctx):
    # A Minkowski sum whose operands are all single points but at most one.
    points = [_is_singleton(op) for op in X.operands]
    movable = [op for op, p in zip(X.operands, points) if p is None]
    shift = sum((p for p in points if p is not None), np.zeros(X.dim))
    if not movable:
        return bool(np.all(np.abs(x - shift) <= ctx.atol))
    if len(movable) > 1:
        raise UnsupportedOperationError("membership in a Minkowski sum needs all but one operand to be singletons")
    return (yield movable[0], x - shift)


class _Kind(NamedTuple):
    arity: int | None  # operand count; None means two or more
    support: tuple  # (blocks, combine) of the support pass
    zonotope: Callable | None  # concretize: closed form on zonotope operands
    polygon: Callable | None  # concretize: a 2-D node from its operands' values
    member: Callable | None  # membership coroutine
    lazy_operand: bool = False  # the polygon rule reads the operand unconcretized


_KINDS = {
    "LinearMap": _Kind(1, (_mapped, _affine), _mapped_set, _polygon_of(_mapped_set), _preimage),
    "AffineMap": _Kind(1, (_mapped, _affine), _mapped_set, _polygon_of(_mapped_set), _preimage),
    "Translation": _Kind(1, (_mapped, _affine), _mapped_set, _on_polygons(_mapped_set), _preimage),
    "MinkowskiSum": _Kind(2, (_same, _sum), _sum_set, _on_polygons(_sum_set), _singleton_shift),
    "MinkowskiSumArray": _Kind(None, (_same, _sum), _sum_set, _on_polygons(_sum_set), _singleton_shift),
    "CartesianProduct": _Kind(
        2, (_sliced, _product), _product_set, _polygon_of(_product_set),
        _decided_by(False, lambda X, x: np.split(x, _offsets(X))),
    ),
    "ConvexHullUnion": _Kind(
        2, (_same, _first_max), None, _on_polygons(lambda X, P, ctx: concrete_ops.convex_hull_union(*P, ctx)), None
    ),
    "Union": _Kind(None, (_same, _first_max), None, None, _decided_by(True)),
    "Intersection": _Kind(2, (_exact_intersection, _intersection_2d), None, _intersection_set, _decided_by(False)),
    "SymmetricIntervalHull": _Kind(1, (_axes, _interval_hull), None, _interval_hull_set, None, True),
    "Complement": _Kind(1, (_complement, None), None, None, _negation),
}
KINDS = frozenset(_KINDS)

_SUPPORT = {kind: row.support for kind, row in _KINDS.items()}
_MODES = {
    "exact": _SUPPORT,
    "overapproximate": {**_SUPPORT, "Intersection": (_bounded_intersection, _min_bound)},
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


def lazy_membership(x, T: ConvexSet, ctx: ToleranceContext | None = None) -> bool:
    """Exact membership on the boolean-friendly fragment.

    Supported kinds: Union (or), Intersection (and), Complement (negation),
    Translation, invertible LinearMap/AffineMap, CartesianProduct (split),
    and MinkowskiSum with a singleton operand.  Anything else raises.
    Operands are asked left to right and only until the verdict is decided;
    each (node, point) pair is decided once.
    """
    ctx = resolve_tolerance(ctx)

    def root():
        return (yield T, x)

    memo = {}
    running = [(None, root())]  # (key, membership coroutine) of the nodes being decided
    verdict = None
    while running:
        key, rule = running[-1]
        try:
            node, point = rule.send(verdict)
        except StopIteration as done:
            running.pop()
            memo[key] = verdict = done.value
            continue
        point = _as_direction(point, node.dim)
        key = (id(node), point.tobytes())
        if key in memo:
            verdict = memo[key]
        elif type(node) is not LazyNode:
            verdict = memo[key] = node.contains(point, ctx)
        elif _KINDS[node.kind].member is None:
            raise UnsupportedOperationError(f"membership is not defined for lazy kind {node.kind!r}")
        else:
            running.append((key, _KINDS[node.kind].member(node, point, ctx)))
            verdict = None
    return verdict


def _intersection_hrep_2d(X, ctx) -> HPolyhedron:
    """H-representation of a 2-D lazy intersection node."""
    return _operand_hrep_2d(X, [concretize(op, ctx) for op in X.operands], ctx)


def concretize(T: ConvexSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Evaluate a lazy tree into a concrete set.

    A subtree of box and zonotope leaves under zonotope-preserving kinds
    collapses in closed form, in any dimension: the whole tree when it is
    such a subtree, and else every node of a dimension other than 2.  The
    2-D nodes of any other tree are built as polygons from their operands'
    values in one bottom-up pass.  Everything else raises.
    """
    ctx = resolve_tolerance(ctx)
    if not isinstance(T, (ConcreteSet, LazyNode)):
        raise TypeError(f"expected a set, got {type(T).__name__}")
    flags, zonotopes = {}, {}  # memos shared by every closed-form subtree

    def closed_form(X):
        # X as a zonotope, or None where its subtree is not zonotopal throughout.
        zonotopal = _fold(X, lambda leaf: isinstance(leaf, (AbstractHyperrectangle, Zonotope)),
                          lambda Y, fs: _KINDS[Y.kind].zonotope is not None and all(fs), values=flags)
        if not zonotopal:
            return None
        return _fold(X, concrete_ops._as_zonotope, lambda Y, zs: _KINDS[Y.kind].zonotope(Y, zs, ctx),
                     values=zonotopes)

    def operands(X):
        # The operands whose values X's polygon rule reads; none for other
        # nodes, which take the closed form or raise before anything below
        # them is built.
        row = _KINDS[X.kind]
        return X.operands if X.dim == 2 and row.polygon is not None and not row.lazy_operand else ()

    def combine(X, values):
        polygon = _KINDS[X.kind].polygon
        if X.dim != 2:
            value = closed_form(X)
        else:
            value = None if polygon is None else polygon(X, values, ctx)
        if value is None:
            raise UnsupportedOperationError(
                f"cannot concretize lazy kind {X.kind!r} in dimension {X.dim}: outside both "
                "the zonotope-preserving and the 2-D polygon fragments"
            )
        return value

    value = closed_form(T) if type(T) is LazyNode else T
    return value if value is not None else _fold(T, lambda leaf: leaf, combine, operands)
