"""Eager set operations and binary predicates between concrete sets.

Operations are implemented per representation pair; anything outside the
supported pairs raises ``UnsupportedOperationError`` (the lazy layer is the
fallback for those).  Predicates follow closed-set semantics: sets touching
in a single boundary point are not disjoint, and inclusion tolerates the
context's ``atol`` as a distance from each half-space (:func:`numerics.within`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, UnsupportedOperationError
from .numerics import ToleranceContext, resolve_tolerance, within
from .sets import (
    AbstractHyperrectangle,
    ConcreteSet,
    ConvexSet,
    HalfSpace,
    HPolyhedron,
    HPolytope,
    Hyperplane,
    Hyperrectangle,
    Interval,
    VPolygon,
    VPolytope,
    Zonotope,
    _axes_overlap,
    _row_products,
)


class SingleEntryVector:
    """An n-vector with one nonzero entry; indexes are 0-based."""

    def __init__(self, index: int, length: int, value: float):
        index = int(index)
        length = int(length)
        value = float(value)
        if not 0 <= index < length:
            raise ValueError(f"index {index} out of range for length {length}")
        if value == 0.0:
            raise ValueError("the single entry must be nonzero")
        self.index = index
        self.length = length
        self.value = value

    def dense(self) -> np.ndarray:
        out = np.zeros(self.length)
        out[self.index] = self.value
        return out

    def __repr__(self):
        return f"SingleEntryVector({self.index}, {self.length}, {self.value})"


def _require_same_dim(X: ConvexSet, Y: ConvexSet) -> int:
    if X.dim != Y.dim:
        raise DimensionMismatchError(
            f"{type(X).__name__} has dimension {X.dim}, {type(Y).__name__} has {Y.dim}"
        )
    return X.dim


def _box_to_zonotope(B: AbstractHyperrectangle) -> Zonotope:
    r = B.radius_vector
    return Zonotope(B.center, np.diag(r)[:, r != 0.0])


def _as_zonotope(X: ConcreteSet) -> Zonotope:
    if isinstance(X, Zonotope):
        return X
    if isinstance(X, AbstractHyperrectangle):
        return _box_to_zonotope(X)
    raise UnsupportedOperationError(f"{type(X).__name__} is not a zonotope kind")


def _bottom_edges(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bottom-most vertex of the cycle V and its edges from there on."""
    k = np.lexsort((V[:, 0], V[:, 1]))[0]
    A = np.concatenate((V[k:], V[: k + 1]))
    return A[0], A[1:] - A[:-1]


def _polygon_minkowski(P: VPolygon, Q: VPolygon, ctx: ToleranceContext) -> VPolygon:
    """Counter-clockwise edge merge of two convex polygons.

    Both edge cycles start at their bottom-most vertex, so their angles
    increase in [0, 2pi); one stable sort of all the edges by angle, P's
    first, merges them.  The vertices are the running sum of the merged
    edges from the sum of the two bottom vertices, where a P edge and a Q
    edge next in that order fuse into one step when their angles are within
    1e-9.  The final canonicalization absorbs collinear leftovers.
    """
    if P.num_vertices == 0 or Q.num_vertices == 0:
        return VPolygon([])
    if P.num_vertices == 1:
        return Q.translate(P.vertices[0])
    if Q.num_vertices == 1:
        return P.translate(Q.vertices[0])
    (a0, ea), (b0, eb) = _bottom_edges(P.vertices), _bottom_edges(Q.vertices)
    edges = np.concatenate((ea, eb))
    angles = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * math.pi)
    order = np.argsort(angles, kind="stable")
    t, from_p = angles[order], order < len(ea)
    # fused[k]: sorted edges k and k + 1 make one step.  Of a run of such
    # pairs only the first fuses, so a step never holds two edges of one
    # polygon.
    fused = (from_p[1:] != from_p[:-1]) & (t[1:] - t[:-1] <= 1e-9)
    fused[1:] &= ~fused[:-1]
    # The start point, then the steps; the last step closes the cycle.
    steps = np.concatenate(((a0 + b0)[None], edges[order]))
    steps = np.add.reduceat(steps, np.flatnonzero(np.concatenate(([True, True], ~fused))))
    return VPolygon(np.add.accumulate(steps[:-1]))


def _to_polygon(X: ConcreteSet, ctx: ToleranceContext) -> VPolygon:
    if isinstance(X, VPolygon):
        return X
    if X.dim != 2:
        raise UnsupportedOperationError("polygon conversion needs a 2-D set")
    if isinstance(X, (Zonotope, HPolyhedron)):
        # Their 2-D vertex lists come out of _convex_hull_2d already.
        return VPolygon._from_hull(X.vertices_list(ctx))
    return VPolygon(X.vertices_list(ctx))


# The kinds that are polytopes where bounded, and polygons in 2-D.
_POLYGONAL = (HPolyhedron, VPolygon, VPolytope, AbstractHyperrectangle, Zonotope)


def minkowski_sum(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """X + Y pointwise: boxes stay boxes, zonotope pairs stay zonotopes, and
    any other 2-D pair is summed as two polygons, made in order: the first
    operand without a vertex list raises (an unbounded one ``UnboundedSetError``)."""
    _require_same_dim(X, Y)
    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, AbstractHyperrectangle):
        if isinstance(X, Interval) and isinstance(Y, Interval):
            return Interval(X.lo + Y.lo, X.hi + Y.hi)
        return Hyperrectangle._from_arrays(X.center + Y.center, X.radius_vector + Y.radius_vector)
    zono_kinds = (AbstractHyperrectangle, Zonotope)
    if isinstance(X, zono_kinds) and isinstance(Y, zono_kinds):
        ZX, ZY = _as_zonotope(X), _as_zonotope(Y)
        return Zonotope(ZX.center + ZY.center, np.hstack([ZX.generators, ZY.generators]))
    if X.dim == 2:
        return _polygon_minkowski(_to_polygon(X, ctx), _to_polygon(Y, ctx), ctx)
    raise UnsupportedOperationError(
        f"minkowski_sum is not implemented for {type(X).__name__} and {type(Y).__name__}"
    )


def intersection(
    X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None, prune: bool = False
) -> ConcreteSet:
    """X intersected with Y; possibly empty (check with :func:`is_empty`).

    Box pairs meet intervalwise; an axis-aligned situation in 2-D clips the
    box polygon exactly; everything with available constraint lists falls
    back to constraint concatenation.  ``prune`` removes redundant
    constraints of the concatenated result (one LP per constraint).
    """
    _require_same_dim(X, Y)

    if isinstance(X, HalfSpace) and not isinstance(Y, HalfSpace):
        return intersection(Y, X, ctx, prune)

    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, AbstractHyperrectangle):
        lo = np.maximum(X.low, Y.low)
        hi = np.minimum(X.high, Y.high)
        if np.any(lo > hi):
            return HPolytope(list(X.constraints_list(ctx)) + list(Y.constraints_list(ctx)))
        return Hyperrectangle._from_arrays((lo + hi) / 2.0, (hi - lo) / 2.0)

    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, HalfSpace):
        if X.dim == 2:
            clipped = _clip_polygon(_to_polygon(X, ctx).vertices, Y.normal, Y.offset, ctx)
            return VPolygon(clipped)
        return HPolytope(list(X.constraints_list(ctx)) + [Y])

    if _has_constraints(X) and _has_constraints(Y):
        combined = list(X.constraints_list(ctx)) + list(Y.constraints_list(ctx))
        if prune:
            combined = remove_redundant_constraints(combined, ctx)
        bounded_kind = (
            isinstance(X, (HPolytope, AbstractHyperrectangle, VPolygon, Zonotope))
            or isinstance(Y, (HPolytope, AbstractHyperrectangle, VPolygon, Zonotope))
        )
        cls = HPolytope if bounded_kind else HPolyhedron
        return cls(combined, dim=X.dim)

    raise UnsupportedOperationError(
        f"intersection is not implemented for {type(X).__name__} and {type(Y).__name__}"
    )


def _has_constraints(X: ConcreteSet) -> bool:
    if isinstance(X, (HalfSpace, Hyperplane, HPolyhedron, AbstractHyperrectangle)):
        return True
    if isinstance(X, (VPolygon, VPolytope, Zonotope)):
        return X.dim <= 2
    return False


def _clip_polygon(vertices: np.ndarray, normal: np.ndarray, offset: float, ctx) -> list:
    # Single half-plane Sutherland-Hodgman pass: keep vertices within atol of
    # the half-plane, cut edges that run from deeper than atol to beyond it.
    f = vertices.dot(normal) - offset
    keep = within(f, 0.0, normal, ctx)
    deep = ~within(-f, 0.0, normal, ctx)
    out = []
    k = len(vertices)
    for i in range(k):
        j = (i + 1) % k
        if keep[i]:
            out.append(vertices[i])
        if (deep[i] and not keep[j]) or (not keep[i] and deep[j]):
            t = f[i] / (f[i] - f[j])
            out.append(vertices[i] + t * (vertices[j] - vertices[i]))
    return out


def remove_redundant_constraints(constraints, ctx: ToleranceContext | None = None) -> list[HalfSpace]:
    """Drop constraints implied by the others (one support LP each)."""
    kept = list(constraints)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if not rest:
            break
        probe = HPolyhedron(rest)
        try:
            value = probe.support_function(kept[i].normal, ctx)
        except EmptySetError:
            value = -math.inf  # the others alone are already infeasible
        if within(value, kept[i].offset, kept[i].normal, ctx):
            kept = rest
        else:
            i += 1
    return kept


def intersection_fastpath(
    X: AbstractHyperrectangle, H: HalfSpace, ctx: ToleranceContext | None = None
) -> ConcreteSet:
    """Box clamped by an axis-aligned half-space (single nonzero normal entry).

    Equal, as a set, to the generic intersection, but touches only one
    interval of the box.  An infeasible clamp returns an (empty) H-polytope
    carrying the contradictory bounds.
    """
    nonzero = H.normal.nonzero()[0]
    if nonzero.size != 1:
        raise UnsupportedOperationError("fast path needs a single-entry normal")
    index = int(nonzero[0])
    value = float(H.normal[index])
    if H.dim != X.dim:
        raise DimensionMismatchError(f"box has dimension {X.dim}, half-space {H.dim}")

    center, radius = X.center.copy(), X.radius_vector.copy()
    lo, hi = float(center[index] - radius[index]), float(center[index] + radius[index])
    bound = H.offset / value
    if value > 0:
        hi = min(hi, bound)
    else:
        lo = max(lo, bound)
    if lo > hi:
        n = X.dim
        e = np.zeros(n)
        e[index] = 1.0
        bad = [HalfSpace(e, hi), HalfSpace(-e, -lo)]
        others = [
            c
            for i, c in enumerate(X.constraints_list(ctx))
            if i not in (2 * index, 2 * index + 1)
        ]
        return HPolytope(bad + others)
    center[index], radius[index] = (lo + hi) / 2.0, (hi - lo) / 2.0
    return Hyperrectangle._from_arrays(center, radius)


def cartesian_product(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Concatenate dimensions: boxes stay boxes, zonotope pairs go block-diagonal."""
    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, AbstractHyperrectangle):
        return Hyperrectangle._from_arrays(
            np.concatenate([X.center, Y.center]),
            np.concatenate([X.radius_vector, Y.radius_vector]),
        )
    zono_kinds = (AbstractHyperrectangle, Zonotope)
    if isinstance(X, zono_kinds) and isinstance(Y, zono_kinds):
        ZX, ZY = _as_zonotope(X), _as_zonotope(Y)
        G = np.zeros((ZX.dim + ZY.dim, ZX.num_generators + ZY.num_generators))
        G[: ZX.dim, : ZX.num_generators] = ZX.generators
        G[ZX.dim :, ZX.num_generators :] = ZY.generators
        return Zonotope(np.concatenate([ZX.center, ZY.center]), G)
    raise UnsupportedOperationError(
        f"cartesian_product is not implemented for {type(X).__name__} and {type(Y).__name__}"
    )


def convex_hull_union(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> VPolygon:
    """Convex hull of the union of two 2-D polytopic sets: one hull of both vertex lists."""
    _require_same_dim(X, Y)
    if X.dim != 2:
        raise UnsupportedOperationError("concrete convex hull is only implemented in 2-D")
    rows = [Z.vertices if isinstance(Z, VPolygon) else np.reshape(Z.vertices_list(ctx), (-1, 2)) for Z in (X, Y)]
    return VPolygon(np.concatenate(rows))


def linear_map(M, X: ConcreteSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """The image ``{M x : x in X}``."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != X.dim:
        raise DimensionMismatchError(
            f"matrix has {M.shape[1]} columns, set has dimension {X.dim}"
        )
    if isinstance(X, (AbstractHyperrectangle, Zonotope)):
        Z = _as_zonotope(X)
        return Zonotope(M @ Z.center, M @ Z.generators)
    if isinstance(X, (VPolygon, VPolytope)):
        mapped = (M @ X.vertices.T).T
        if M.shape[0] == 2:
            return VPolygon(mapped)
        return VPolytope(mapped)
    if isinstance(X, (HalfSpace, Hyperplane, HPolyhedron)):
        if M.shape[0] != M.shape[1]:
            raise UnsupportedOperationError(
                "linear_map of an H-representation needs a square matrix"
            )
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise UnsupportedOperationError(
                "linear_map of an H-representation needs an invertible matrix"
            ) from None
        if isinstance(X, HalfSpace):
            return HalfSpace(X.normal @ Minv, X.offset)
        if isinstance(X, Hyperplane):
            return Hyperplane(X.normal @ Minv, X.offset)
        return type(X)._from_arrays(_row_products(X.A, Minv), X.b)
    raise UnsupportedOperationError(f"linear_map is not implemented for {type(X).__name__}")


def translate(X: ConcreteSet, v, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Shift every element of X by v; preserves the representation type."""
    return X.translate(v)


def is_empty(X: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """Emptiness test.  H-representations whose 2-D normals bound them are
    decided by the angle sweep of their constraints (empty: no vertex within
    10 atol of every constraint), other ones by a feasibility LP."""
    if isinstance(X, (AbstractHyperrectangle, Zonotope, HalfSpace, Hyperplane)):
        return False
    if isinstance(X, VPolygon):
        return X.num_vertices == 0
    if isinstance(X, VPolytope):
        return X.vertices.shape[0] == 0
    if isinstance(X, HPolyhedron):
        return X._is_empty(ctx)
    raise UnsupportedOperationError(f"is_empty is not implemented for {type(X).__name__}")


def is_subset(X: ConvexSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """X within Y, decided by support of X against every constraint of Y."""
    _require_same_dim(X, Y)
    A, b = Y._hrep(ctx)
    values, _ = X.support_batch(A, ctx)
    return bool(np.all(within(values, b, A, ctx)))



def is_disjoint(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """Whether X and Y share no point; touching boundaries count as sharing.
    Boxes, half-spaces and bounded 2-D polytopes: iff some axis u has
    ``rho(u, X) + rho(-u, Y) < -atol |u|``; others: iff stacked constraints are empty."""
    ctx = resolve_tolerance(ctx)
    _require_same_dim(X, Y)
    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, AbstractHyperrectangle):
        gap = np.abs(X.center - Y.center) - (X.radius_vector + Y.radius_vector)
        return bool(np.any(gap > ctx.atol))
    if isinstance(Y, HalfSpace) and not isinstance(X, HalfSpace):
        X, Y = Y, X
    if isinstance(X, HalfSpace):
        # X = {a.x <= b} misses Y iff the minimum of a.x over Y exceeds b.
        minimum = -Y.support_function(-X.normal, ctx)
        return not within(minimum, X.offset, X.normal, ctx)
    if X.dim == 2 and isinstance(X, _POLYGONAL) and isinstance(Y, _POLYGONAL) and (
        (PX := _polygon_axes(X, ctx)) is not None and (PY := _polygon_axes(Y, ctx)) is not None
    ):
        (X, NX), (Y, NY) = PX, PY
        return is_empty(X, ctx) or is_empty(Y, ctx) or not _axes_overlap(X, NX, Y, NY, ctx)
    if _has_constraints(X) and _has_constraints(Y):
        (AX, bX), (AY, bY) = X._hrep(ctx), Y._hrep(ctx)
        return is_empty(HPolyhedron._from_arrays(np.vstack((AX, AY)), np.concatenate((bX, bY))), ctx)
    raise UnsupportedOperationError(
        f"is_disjoint is not implemented for {type(X).__name__} and {type(Y).__name__}"
    )


def _polygon_axes(X: ConcreteSet, ctx: ToleranceContext):
    """``(P, N)`` for a bounded 2-D polytope X: P is X in a form that answers
    support queries without an LP or a sweep, and the rows of N are its edge
    normals, with a segment's direction; None for an unbounded X."""
    if isinstance(X, VPolytope):
        X = VPolygon(X.vertices)
    if isinstance(X, HPolyhedron):
        try:
            V = X._polygon_vertices(ctx)
        except EmptySetError:
            V = []
        X = None if V is None else VPolygon._from_hull(V)
    if isinstance(X, VPolygon):
        return X, X._axes()
    if isinstance(X, AbstractHyperrectangle):
        return X, np.eye(2)
    if isinstance(X, Zonotope):
        G = X.generators.T[X.generators.any(axis=0)]
        # A generator's direction is an axis too, in case all are parallel.
        return X, np.vstack((G[:, ::-1] * [1.0, -1.0], G[:1]))
    return None


def is_equivalent(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """Mutual inclusion."""
    return is_subset(X, Y, ctx) and is_subset(Y, X, ctx)
