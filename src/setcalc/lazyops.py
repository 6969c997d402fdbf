"""Lazy set operations as immutable expression-tree nodes.

A :class:`LazyNode` records an operation applied to child sets (lazy or
concrete) without computing anything.  Every kind has one row in ``_KINDS``
holding its arity and its rules.  A support query on a direction matrix runs
in three phases: the direction blocks go down the tree in order of
decreasing height, each node stacking what its parents sent; every leaf
answers all its stacked rows in one call; and each node combines its
operands' rows on the way up.  The rules are

    rho(d, X + Y)        = rho(d, X) + rho(d, Y)
    rho((d1, d2), X x Z) = rho(d1, X) + rho(d2, Z)
    rho(d, CH(X u Y))    = max(rho(d, X), rho(d, Y))
    rho(d, M X)          = rho(M^T d, X)
    rho(d, X + b)        = rho(d, X) + d . b

plus a box formula for the symmetric interval hull.  A step is a square
map, or a sum or translation over one whose other operands are concrete.
Each node that starts a step records at construction how many equal steps
start there and the node after them, so a query takes a whole run of c
equal steps by M as one pair: the blocks B, B M, ..., B M^c come by
repeated squaring, in ceil(log2(c+1)) stacked products by M, M^2, M^4, ...,
and on the way up its support vectors fold in halves with the same powers.
A reach chain ``X_k = Phi X_{k-1} + E`` is the recurrence
``rho(d, X_N) = rho((Phi^T)^N d, X_0) + sum_{i<N} rho((Phi^T)^i d, E)``
(Girard, Le Guernic and Maler, HSCC 2006): one pair, about log2 N products,
one call of E for all its blocks, and one reshape-sum.  A union of the values
after consecutive counts of one run's steps, such as the flowpipe
``Union(X_1, ..., X_T)``, is a prefix union, recorded at construction: it
is the same pair with T tail blocks, and a running sum over E's answers
gives every ``rho(d, X_k)`` in one pass (Le Guernic and Girard, NAHS 2010,
Algorithm 1), where a pair per step would send E T(T+1)/2 blocks.  A run
whose stack of blocks would reach 128 KiB goes in chunks that stay under it:
each comes by the same squaring from the last block of the one before, each
but the last is answered at once and folded like a run into running sums,
and only the last goes down to the tail.  So the memory
of a query does not grow with the length of a run, only with the operand
count of a prefix union.  An exact
support value over a lazy binary intersection has no composition rule;
exact queries concretize 2-D intersections and refuse otherwise, while the
explicit overapproximate mode returns the upper bound
``min(rho(d, X), rho(d, Y))``.  Concretization and membership walk the same
rows without recursion, so deep and shared trees cost time linear in their
distinct nodes.
"""

from __future__ import annotations

import functools
from heapq import heappop, heappush
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
    _finite_sum,
    _sign_plus,
)
from . import concrete_ops
from .approximation import symmetric_interval_hull
from .conversion import tohrep, tovrep


class LazyNode(ConvexSet):
    """One operation applied to operand sets, evaluated on demand.

    ``matrix``/``vector`` carry the payload of map and translation kinds.
    Nodes are immutable; build them with :func:`make_node`.  Besides its
    height, a node keeps a run summary, O(1) and set at construction: how
    many equal steps start at it and the node after the last of them.  A
    union also records whether it is a prefix union: the values after
    consecutive counts of one run's steps.
    """

    __slots__ = ("kind", "operands", "matrix", "vector", "_dim", "_height", "_lazy", "_run", "_end", "_prefix")

    def __init__(self, kind, operands, matrix=None, vector=None, _dim=None):
        operands = tuple(operands)
        # A parent is higher than each operand; a concrete operand has height 0.
        height, lazy = 0, []
        for i, op in enumerate(operands):
            if type(op) is LazyNode:
                lazy.append(i)
                if op._height > height:
                    height = op._height
        # A square map, a translation, or a sum with at most one lazy operand
        # may start a step, which goes on through the operand at this index;
        # every other operand is concrete.  None for any other node, and for
        # a map that changes the dimension.
        step = _KINDS[kind].step and len(lazy) < 2 and (matrix is None or len(matrix) == matrix.shape[1])
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "operands", operands)
        init(self, "matrix", matrix)
        init(self, "vector", vector)
        init(self, "_dim", _dim)
        init(self, "_height", height + 1)
        init(self, "_lazy", (lazy[0] if lazy else 0) if step else None)
        # A step is a square map, or a sum or translation over one: the node
        # and its map, followed by H, the map's operand.  _run counts the
        # equal steps that start here (0 if none does) and _end is the node
        # after the last of them: H's summary, one longer, if H's step is equal.
        run, end = 0, None
        if step:
            L = self if matrix is not None else operands[self._lazy]
            if type(L) is LazyNode and L._lazy is not None and L.matrix is not None:
                H = L.operands[0]
                run, end = 1, H
                if type(H) is LazyNode and H._run and _same_step(self, H):
                    run, end = H._run + 1, H._end
        init(self, "_run", run)
        init(self, "_end", end)
        init(self, "_prefix", _KINDS[kind].union and _prefix_union(operands))

    def __setattr__(self, name, value):
        raise AttributeError("LazyNode is immutable")

    def __reduce__(self):
        # A flat post-order list (an operand is a concrete set or the index of
        # an earlier entry) copies and pickles deep trees without recursion
        # and keeps shared nodes shared; make_node rebuilds it.
        entries = []

        def add(node, operands):
            entries.append((node.kind, tuple(operands), node.matrix, node.vector))
            return len(entries) - 1

        _fold(self, lambda leaf: leaf, add)
        return _unflatten, (entries,)

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
        # An explicit stack compares each pair of nodes once: deep and shared
        # trees cost no recursion.
        seen, stack = set(), [(self, other)]
        while stack:
            X, Y = stack.pop()
            if type(X) is not LazyNode:
                if X is not Y and X != Y:
                    return False
            elif (id(X), id(Y)) not in seen:
                seen.add((id(X), id(Y)))
                if not (isinstance(Y, LazyNode) and X.kind == Y.kind and len(X.operands) == len(Y.operands)
                        and _same_payload(X.matrix, Y.matrix) and _same_payload(X.vector, Y.vector)):
                    return False
                stack.extend(zip(X.operands, Y.operands))
        return True

    __hash__ = None

    def _support_batch(self, D, ctx, vectors):
        return _evaluate(self, D, resolve_tolerance(ctx), "exact", vectors)

    def contains(self, x, ctx: ToleranceContext | None = None) -> bool:
        return lazy_membership(x, self, ctx)

    def depth(self) -> int:
        return self._height + 1

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


def _same_payload(a, b) -> bool:
    return a is b or a is not None and b is not None and np.array_equal(a, b)


def _same_step(X, Y) -> bool:
    # Whether the steps that start at X and Y are equal, node by node down to
    # the map: the same kind and lazy position, the same concrete operands in
    # the same positions, and bitwise-equal payloads (``is``, else equal bytes).
    while True:
        lazy, operands = X._lazy, Y.operands
        if Y.kind != X.kind or Y._lazy != lazy or len(operands) != len(X.operands):
            return False
        for i, op in enumerate(X.operands):
            if i != lazy and op is not operands[i]:
                return False
        a, b, u, v = X.matrix, Y.matrix, X.vector, Y.vector
        if not ((a is b or a.tobytes() == b.tobytes()) and (u is v or u.tobytes() == v.tobytes())):
            return False
        if a is not None:
            return True
        X, Y = X.operands[lazy], operands[lazy]


def _prefix_union(operands) -> bool:
    # Whether the operands, in order, are the values after consecutive counts
    # of one run's equal steps: each ends where the one before it ends, after
    # one more step equal to its own.  The first may be the run's tail itself.
    # Read from run summaries, so copies of the steps qualify too.
    A = operands[0]
    for i, B in enumerate(operands[1:]):
        if type(B) is not LazyNode or not B._run:
            return False
        if not (i == 0 and A is B._end and B._run == 1 or type(A) is LazyNode and A._end is B._end
                and B._run == A._run + 1 and _same_step(B, A)):
            return False
        A = B
    return True


def _unflatten(entries) -> LazyNode:
    """The tree of a :meth:`LazyNode.__reduce__` entry list."""
    built = []
    for kind, operands, matrix, vector in entries:
        built.append(make_node(kind, [built[op] if type(op) is int else op for op in operands], matrix, vector))
    return built[-1]


def make_node(kind: str, operands, matrix=None, vector=None) -> LazyNode:
    """Validated construction of a lazy node; no computation happens.

    Payloads and dimensions follow the kind's row in ``_KINDS``: cartesian
    products concatenate, maps require matching matrix columns, everything
    else needs equal operand dimensions.
    """
    if kind not in KINDS:
        raise UnsupportedOperationError(f"unknown lazy operation kind {kind!r}")
    operands = tuple(operands)
    if not operands:
        raise ValueError(f"{kind} needs at least one operand")
    for op in operands:
        # LazyNode first: isinstance on the abstract ConvexSet is slow.
        if type(op) is not LazyNode and not isinstance(op, ConvexSet):
            raise TypeError(f"operand {op!r} is not a set")

    row = _KINDS[kind]
    if row.arity is None and len(operands) < 2:
        raise ValueError(f"{kind} takes at least two operands")
    if row.arity is not None and len(operands) != row.arity:
        raise ValueError(f"{kind} takes exactly {'one operand' if row.arity == 1 else 'two operands'}")

    # A payload on a kind that takes none would be ignored by some queries
    # and applied by others.
    if matrix is not None and not row.matrix:
        raise ValueError(f"{kind} takes no matrix payload")
    if vector is not None and not row.vector:
        raise ValueError(f"{kind} takes no vector payload")
    dims = [op.dim for op in operands]
    if row.matrix:
        if matrix is None:
            raise ValueError(f"{kind} needs a matrix payload")
        # A copy: freezing the caller's own array would make it read-only.
        matrix = np.array(matrix, dtype=float, ndmin=2)
        if matrix.ndim != 2 or not _finite_sum(matrix.ravel().tolist()) and not np.all(np.isfinite(matrix)):
            raise ValueError(f"{kind} matrix must be 2-D with finite entries")
        matrix.flags.writeable = False
        if matrix.shape[1] != dims[0]:
            raise DimensionMismatchError(
                f"{kind} matrix has {matrix.shape[1]} columns, operand "
                f"{type(operands[0]).__name__} has dimension {dims[0]}"
            )
    node_dim = row.dim(kind, operands, dims, matrix)
    if row.vector:
        if vector is None:
            raise ValueError(f"{kind} needs a vector payload")
        vector = _as_vector(vector, node_dim, "shift")
    return LazyNode(kind, operands, matrix, vector, _dim=node_dim)


def _common_dim(kind, operands, dims, matrix):
    for op, d in zip(operands, dims):
        if d != dims[0]:
            raise DimensionMismatchError(
                f"{kind} operands {type(operands[0]).__name__} (dim {dims[0]}) and "
                f"{type(op).__name__} (dim {d}) have different dimensions"
            )
    return dims[0]


def _offsets(X):
    # Where a cartesian product's coordinates pass from one operand to the next.
    return np.cumsum([op.dim for op in X.operands[:-1]])


# ---------------------------------------------------------------------------
# Support rules of the nodes outside run pairs: ``blocks(X, D, want)`` returns
# the direction block each operand receives and whether the operands' support
# vectors are needed; ``combine(X, D, results, want, ctx)`` turns the
# operands' (values, vectors) into the node's.  ``ndarray.dot`` beats ``@`` on
# small operands.


def _same(X, D, want):
    return (D,) * len(X.operands), want


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


def _mapped(X, D, want):
    return (D.dot(X.matrix),), want


def _map_back(X, D, results, want, ctx):
    # A map, or a translation (no matrix): sigma(d, M Y + b) = M sigma(M^T d, Y) + b.
    values, V = results[0]
    if want and X.matrix is not None:
        V = V.dot(X.matrix.T)
    if X.vector is None:
        return values, V
    return values + D.dot(X.vector), (V + X.vector if want else None)


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
# operands.  On zonotope operands the rule of a ``closed`` kind is the closed
# form; elsewhere ``concretize`` makes its 2-D value a polygon.


def _mapped_set(X, values, ctx):
    # LinearMap, AffineMap and Translation: M Y + b
    Y = values[0] if X.matrix is None else concrete_ops.linear_map(X.matrix, values[0], ctx)
    return Y if X.vector is None else Y.translate(X.vector)


def _sum_set(X, values, ctx):
    return functools.reduce(lambda A, B: concrete_ops.minkowski_sum(A, B, ctx), values)


def _product_set(X, values, ctx):
    return concrete_ops.cartesian_product(*values, ctx)


def _operand_hrep_2d(X, values, ctx) -> HPolyhedron:
    # Concrete operands contribute their own constraint rows (so half-space
    # and H-polyhedron operands are fine); lazy ones the edges of their polygon.
    A, b = zip(*[(tohrep(v, ctx) if type(op) is LazyNode else v)._hrep(ctx) for op, v in zip(X.operands, values)])
    return HPolyhedron._from_arrays(np.vstack(A), np.concatenate(b))


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
    support: tuple | None  # (blocks, combine) of the support pass outside run pairs
    concrete: Callable | None  # concretize: the node's value from its operands' values
    member: Callable | None  # membership coroutine
    closed: bool = False  # keeps zonotopes zonotopes: the closed form on them, else a 2-D value made a polygon
    lazy_operand: bool = False  # the concrete rule reads the operand unconcretized
    step: bool = False  # may start a step when at most one operand is lazy and a matrix is square
    union: bool = False  # the first max over its operands: may be a prefix union
    matrix: bool = False  # takes (and needs) a matrix payload, whose columns match the operand
    vector: bool = False  # takes (and needs) a vector payload, a shift in the node's dimension
    dim: Callable = _common_dim  # (kind, operands, dims, matrix) -> the node's dimension; checks the dims


_MAP = _Kind(1, (_mapped, _map_back), _mapped_set, _preimage, closed=True, step=True, matrix=True,
             dim=lambda kind, ops, dims, matrix: len(matrix))
_SUM = _Kind(2, (_same, _sum), _sum_set, _singleton_shift, closed=True, step=True)
_KINDS = {
    "LinearMap": _MAP,
    "AffineMap": _MAP._replace(vector=True),
    "Translation": _Kind(1, (_same, _map_back), _mapped_set, _preimage, closed=True, step=True, vector=True),
    "MinkowskiSum": _SUM,
    "MinkowskiSumArray": _SUM._replace(arity=None),
    "CartesianProduct": _Kind(
        2, (_sliced, _product), _product_set, _decided_by(False, lambda X, x: np.split(x, _offsets(X))),
        closed=True, dim=lambda kind, ops, dims, matrix: sum(dims),
    ),
    "ConvexHullUnion": _Kind(
        2, (_same, _first_max), lambda X, values, ctx: concrete_ops.convex_hull_union(*values, ctx), None,
        union=True,
    ),
    "Union": _Kind(None, (_same, _first_max), None, _decided_by(True), union=True),
    "Intersection": _Kind(2, (_exact_intersection, _intersection_2d), _intersection_set, _decided_by(False)),
    "SymmetricIntervalHull": _Kind(1, (_axes, _interval_hull), _interval_hull_set, None, lazy_operand=True),
    "Complement": _Kind(1, (_complement, None), None, _negation),
}
KINDS = frozenset(_KINDS)

_SUPPORT = {kind: row.support for kind, row in _KINDS.items()}
_MODES = {
    "exact": _SUPPORT,
    "overapproximate": {**_SUPPORT, "Intersection": (_bounded_intersection, _min_bound)},
}


def _evaluate(T, D, ctx, mode, want):
    """Support values of T along the rows of D, and its vectors if ``want``,
    in three phases over (node, want) pairs.

    Down: pairs leave a heap by decreasing node height, so each comes after
    all its parents, and stack their distinct incoming blocks.  A node X
    that starts c >= 1 equal steps (``_run``; a step is a square map, or a
    sum or translation over one) is one *run pair* if no node it skips can
    be reached another way.  That holds when the node after the skipped
    ones is no lower than the heap's top: the pair then takes all c steps,
    with tail ``_end``, or else X's own step, with tail H, the node after
    it, if X is a lone map or H is that high.  A prefix union (``_prefix``)
    of T operands, the values after first, ..., c steps of the run that
    starts at its last operand, is one run pair of those c steps under the
    same condition on ``_end``, and else calls its kind's rule.  A run pair
    of c steps by M makes the blocks S, S M, ..., S M^c by repeated
    squaring (:func:`_powers`); the steps' concrete operands get the first
    c as one stack, and the tail gets the last, or for a prefix union the
    last T.  A run whose blocks up to its first output would reach
    ``_CHUNK_FLOATS`` floats goes in chunks, each from :func:`_powers` on
    the last block of the one before: the concrete operands answer every
    chunk but the last at once, and :func:`_run_combine` folds it, with a
    zero tail, into running sums; the last chunk goes down as a whole run
    would, so no stack grows with c.  Any other node, and a node whose
    steps cannot be skipped, calls its kind's ``blocks`` rule on its stack.

    Leaves: each concrete set's pair, popped last, makes one
    ``_support_batch`` call on its stack: one call per leaf and want, and
    one more per earlier chunk of a run that has it as an operand.

    Up: in reverse order, a run pair adds to its tail's rows one
    ``reshape``-sum per concrete operand and the shifts ``B . b`` of its
    translations and affine maps, and folds its support vectors in halves
    with the powers of the way down (:func:`_run_combine`).  A prefix union
    adds running sums instead, one per output, and takes the first max
    over its T outputs, as its kind's rule would; each row's vector folds
    the steps up to the output it took.  The earlier chunks' sums add last.
    Any other node calls its ``combine`` rule once.

    No node above the heap's top has a pair or can get one, since all its
    parents are past; so no node is walked twice in one query, the walk is
    linear in the distinct nodes, and a uniform N-step chain is one pair.

    Blocks are told apart by id, so a subtree sent one block by several
    parents evaluates it once; all blocks stay alive until the end, so no
    new array can reuse an id."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rules = _MODES[mode]
    # A pair is [node, {id(block): block}, row slices by block id, result]; its heap
    # entry leads with the unique (-height, id(node), want), so pairs are never compared.
    root = [T, {id(D): D}, None, None]
    pairs = {(id(T), want): root}
    heap = [(-T._height if type(T) is LazyNode else 0, id(T), want, root)]
    up = []
    while heap:
        _, _, w, pair = heappop(heap)
        X, incoming, _, _ = pair
        if len(incoming) == 1:
            (S,) = incoming.values()
        else:
            S = np.concatenate(list(incoming.values()))
            pair[2], end = {}, 0
            for i, B in incoming.items():
                pair[2][i] = slice(end, end + len(B))
                end += len(B)
        if type(X) is not LazyNode:
            pair[3] = X._support_batch(S, ctx, w)
            continue
        # P starts the run: X, or the last operand of a prefix union, whose
        # operands are the values after first, ..., c of its steps.
        P = X.operands[-1] if X._prefix else X
        c = P._run
        if c:
            first = c + 1 - len(X.operands) if P is not X else c
            # The heap's top: no node above it has a pair or can get one.
            top = -heap[0][0] if heap else 0
            operands, Y = P.operands, P._end
            L = P if P.matrix is not None else operands[P._lazy]
            if (Y._height if type(Y) is LazyNode else 0) < top:
                # H is one lower than L: no lower than the top iff L is higher.
                c, Y = (1, L.operands[0]) if P is X and (L is X or L._height > top) else (0, None)
                first = c
        if c:
            concrete = [C for i, C in enumerate(operands) if i != P._lazy]
            shifts = [b for b in (P.vector, None if L is P else L.vector) if b is not None]
            carried = None
            if first > 1 and (first + 1) * S.size >= _CHUNK_FLOATS:
                # The fewest balanced chunks of K steps up to the first output
                # whose K + 1 blocks stay under the budget, or of one step if no
                # 2 blocks do.  Each chunk but the last is answered here, one call
                # per concrete operand, and folds with a zero tail into the sums
                # carried: values, vectors, and M^(jK) after j chunks.
                q = -(-first // max(1, (_CHUNK_FLOATS - 1) // S.size - 1))
                K = -(-first // q)
                for _ in range(q - 1):
                    head, S, powers = _powers(S, L.matrix, K, K)
                    results = [C._support_batch(head, ctx, w) for C in concrete]
                    results.append((np.zeros(len(S)), np.zeros(S.shape) if w else None))
                    values, vectors = _run_combine((K, K, head, powers, shifts, carried), S, results, w, ctx)
                    # M^(jK) carries vectors only: a values query skips it.
                    MK = functools.reduce(np.dot, [p for t, p in enumerate(powers) if K >> t & 1]) if w else None
                    carried = (values, vectors, MK if carried is None or not w else carried[2].dot(MK))
                # The last chunk starts from a copy, which frees the stacks before it.
                c, first, S = c - (q - 1) * K, first - (q - 1) * K, S.copy()
            head, tails, powers = _powers(S, L.matrix, c, first)
            sends = [(C, head) for C in concrete]
            sends.append((Y, tails))
            combine, X, cw = _run_combine, (c, first, head, powers, shifts, carried), w
        else:
            split, combine = rules[X.kind]
            blocks, cw = split(X, S, w)
            sends = zip(X.operands, blocks)
        links = []
        for op, B in sends:
            key = (id(op), cw)
            child = pairs.get(key)
            if child is None:
                child = pairs[key] = [op, {}, None, None]
                heappush(heap, (-op._height if type(op) is LazyNode else 0, id(op), cw, child))
            i = id(B)
            child[1][i] = B
            links.append((child, i))
        up.append((combine, X, S, links, w, pair))
    for combine, X, S, links, w, pair in reversed(up):
        pair[3] = combine(X, S, [c[3] if c[2] is None else _rows(c, i) for c, i in links], w, ctx)
    return root[3]


# The floats a run's stack of blocks stays under: 128 KiB, the default mmap
# threshold of glibc's malloc.  Each larger array is a fresh mmap whose pages
# fault in anew, or else comes from a heap top the allocator trims between
# queries; the answers to a stack and the fold of its vectors are as large.
_CHUNK_FLOATS = 1 << 14


def _powers(S, M, c, first):
    """The blocks S, S M, ..., S M^c of c maps by M, as the stack of the first
    c, the stack of those from S M^first on, and the powers M, M^2, M^4, ...
    that made them.

    Repeated squaring doubles a stack that starts [S; S M]: [S; ...; S M^3],
    [S; ...; S M^7], ..., so c maps cost ceil(log2(c+1)) products of 2-D
    stacks; the way up folds with the same powers.  One map whose last
    block alone is wanted is one product.  Every chunk of a run longer
    than one comes from here too, started from the last block of the one
    before."""
    if c == first == 1:
        return S, S.dot(M), [M]
    m = len(S)
    stack = np.empty(((c + 1) * m, len(M)))
    stack[:m] = S
    np.dot(S, M, out=stack[m : 2 * m])
    powers, k = [M], 2
    while k <= c:
        # Blocks k.. are blocks 0.. times M^k, as many as are still missing.
        powers.append(powers[-1].dot(powers[-1]))
        end = min(2 * k, c + 1)
        np.dot(stack[: (end - k) * m], powers[-1], out=stack[k * m : end * m])
        k = end
    return stack[: c * m], stack[first * m :], powers


def _run_combine(run, S, results, want, ctx):
    # The up step of a run pair, and the fold of each of its earlier chunks
    # (with a zero tail): ``results`` holds the rows of each concrete operand,
    # stacked over the c steps of the chunk, then the tail's rows, stacked
    # over the outputs after k = first, ..., c steps.  A plain run has one
    # output, k = c; a prefix union has one per operand and takes the first
    # max.  The sums carried from the chunks before, if any, add last: values,
    # vectors, and M^s for the s steps they took.
    c, first, head, powers, shifts, carried = run
    m = len(S)

    def fold(rows):
        # Per output, the sum over its first k steps of rows stacked step by
        # step: one sum for one output, else a running sum.
        if first == c:
            return rows if c == 1 else rows.reshape(c, m).sum(axis=0)
        sums = np.zeros((c + 1, m))
        np.add.accumulate(rows.reshape(c, m), out=sums[1:])
        return sums[first:]

    values, V = results[-1]
    if first < c:
        values = values.reshape(c + 1 - first, m)
    if shifts:
        values = values + sum(fold(head.dot(b)) for b in shifts)
    for more, _ in results[:-1]:
        values = values + fold(more)
    if first < c:
        # The first max over the outputs, as the union's own rule takes it.
        taken = values.argmax(axis=0) if want else None
        values = np.maximum.reduce(values)
    if carried is not None:
        values = values + carried[0]
    if not want:
        return values, None
    # sigma(d, M Y + b) = M sigma(M^T d, Y) + b, and a sum adds each concrete
    # operand's vector at its block: the vector is sum_i U_i (M^T)^i, where
    # U_i adds what block i's operands and shifts answered and U_c is the
    # tail's.  A prefix union's row that takes the output after k steps
    # keeps U_i for i < k only, with the tail's vector as U_k.  Folding in
    # halves pairs the terms i and i + h, U_i += U_(i+h) (M^h)^T, for
    # h = ..., 4, 2, 1: the powers of the way down, each in one product of
    # a 2-D stack.
    n = V.shape[1]
    U = np.zeros((c + 1, m, n))
    for _, W in results[:-1]:
        U[:c] += W.reshape(c, m, n)
    for b in shifts:
        U[:c] += b
    if first == c:
        U[c] = V
    else:
        rows = np.arange(m)
        U[np.arange(c + 1)[:, None] >= first + taken] = 0.0
        U[first + taken, rows] = V.reshape(c + 1 - first, m, n)[taken, rows]
    length = c + 1
    for t in range(len(powers) - 1, -1, -1):
        h = 1 << t
        U[: length - h] += U[h:length].reshape(-1, n).dot(powers[t].T).reshape(length - h, m, n)
        length = h
    return values, (U[0] if carried is None else U[0].dot(carried[2].T) + carried[1])


def _rows(pair, block_id):
    # The rows of a pair's stacked result that answer one of its incoming blocks.
    where, (values, V) = pair[2][block_id], pair[3]
    return values[where], (None if V is None else V[where])


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

    A subtree of box and zonotope leaves under ``closed`` kinds collapses in
    closed form, in any dimension: the whole tree when it is such a subtree,
    and else every node of a dimension other than 2.  The 2-D nodes of any
    other tree run their kind's rule on their operands' values in one
    bottom-up pass, and a ``closed`` kind's value becomes a polygon.
    Everything else raises.
    """
    if not isinstance(T, (ConcreteSet, LazyNode)):
        raise TypeError(f"expected a set, got {type(T).__name__}")
    flags, zonotopes = {}, {}  # memos shared by every closed-form subtree

    def closed_form(X):
        # X as a zonotope, or None where its subtree is not zonotopal throughout.
        zonotopal = _fold(X, lambda leaf: isinstance(leaf, (AbstractHyperrectangle, Zonotope)),
                          lambda Y, fs: _KINDS[Y.kind].closed and all(fs), values=flags)
        if not zonotopal:
            return None
        return _fold(X, concrete_ops._as_zonotope, lambda Y, zs: _KINDS[Y.kind].concrete(Y, zs, ctx),
                     values=zonotopes)

    def operands(X):
        # The operands whose values X's rule reads; none for other nodes,
        # which take the closed form or raise before anything below them is
        # built.
        row = _KINDS[X.kind]
        return X.operands if X.dim == 2 and row.concrete is not None and not row.lazy_operand else ()

    def combine(X, values):
        row = _KINDS[X.kind]
        if X.dim == 2 and row.concrete is not None:
            value = row.concrete(X, values, ctx)
            return concrete_ops._to_polygon(value, ctx) if row.closed else value
        value = closed_form(X) if X.dim != 2 else None
        if value is None:
            raise UnsupportedOperationError(
                f"cannot concretize lazy kind {X.kind!r} in dimension {X.dim}: outside both "
                "the zonotope-preserving and the 2-D polygon fragments"
            )
        return value

    value = closed_form(T) if type(T) is LazyNode else T
    return value if value is not None else _fold(T, lambda leaf: leaf, combine, operands)
