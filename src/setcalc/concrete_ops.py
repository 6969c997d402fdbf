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
from .numerics import ToleranceContext, is_feasible, resolve_tolerance, within
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
    cols = [i for i in range(B.dim) if r[i] != 0.0]
    G = np.zeros((B.dim, len(cols)))
    for j, i in enumerate(cols):
        G[i, j] = r[i]
    return Zonotope(B.center, G)


def _as_zonotope(X: ConcreteSet) -> Zonotope:
    if isinstance(X, Zonotope):
        return X
    if isinstance(X, AbstractHyperrectangle):
        return _box_to_zonotope(X)
    raise UnsupportedOperationError(f"{type(X).__name__} is not a zonotope kind")


def _bottom_index(vertices: np.ndarray) -> int:
    order = np.lexsort((vertices[:, 0], vertices[:, 1]))
    return int(order[0])


def _edge_angles(vertices: np.ndarray) -> np.ndarray:
    edges = np.roll(vertices, -1, axis=0) - vertices
    return np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * math.pi)


def _polygon_minkowski(P: VPolygon, Q: VPolygon, ctx: ToleranceContext) -> VPolygon:
    """Counter-clockwise edge merge of two convex polygons.

    Both vertex cycles are rotated to start at their bottom-most point so
    edge angles increase monotonically in [0, 2pi); the sum polygon is then
    traced by merging the two edge sequences by angle.  Parallel edges are
    fused, and the final canonicalization absorbs collinear leftovers.
    """
    if P.num_vertices == 0 or Q.num_vertices == 0:
        return VPolygon([])
    if P.num_vertices == 1:
        return Q.translate(P.vertices[0])
    if Q.num_vertices == 1:
        return P.translate(Q.vertices[0])

    def cycle(V):
        k = _bottom_index(V)
        return np.roll(V, -k, axis=0)

    A = cycle(P.vertices)
    B = cycle(Q.vertices)
    ea = np.roll(A, -1, axis=0) - A
    eb = np.roll(B, -1, axis=0) - B
    ta = _edge_angles(A)
    tb = _edge_angles(B)
    na, nb = len(A), len(B)
    angle_eps = 1e-9

    point = A[0] + B[0]
    points = [point]
    i = j = 0
    while i < na or j < nb:
        if i >= na:
            step = eb[j]
            j += 1
        elif j >= nb:
            step = ea[i]
            i += 1
        elif abs(ta[i] - tb[j]) <= angle_eps:
            step = ea[i] + eb[j]
            i += 1
            j += 1
        elif ta[i] < tb[j]:
            step = ea[i]
            i += 1
        else:
            step = eb[j]
            j += 1
        point = point + step
        points.append(point)
    return VPolygon(points[:-1])


def _to_polygon(X: ConcreteSet, ctx: ToleranceContext) -> VPolygon:
    if isinstance(X, VPolygon):
        return X
    if X.dim != 2:
        raise UnsupportedOperationError("polygon conversion needs a 2-D set")
    return VPolygon(X.vertices_list(ctx))


def minkowski_sum(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """X + Y pointwise, for box, zonotope, and 2-D polygon pairs."""
    ctx = resolve_tolerance(ctx)
    _require_same_dim(X, Y)
    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, AbstractHyperrectangle):
        if isinstance(X, Interval) and isinstance(Y, Interval):
            return Interval(X.lo + Y.lo, X.hi + Y.hi)
        return Hyperrectangle(X.center + Y.center, X.radius_vector + Y.radius_vector)
    zono_kinds = (AbstractHyperrectangle, Zonotope)
    if isinstance(X, zono_kinds) and isinstance(Y, zono_kinds):
        ZX, ZY = _as_zonotope(X), _as_zonotope(Y)
        return Zonotope(ZX.center + ZY.center, np.hstack([ZX.generators, ZY.generators]))
    if isinstance(X, VPolygon) and isinstance(Y, VPolygon):
        return _polygon_minkowski(X, Y, ctx)
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
        return Hyperrectangle((lo + hi) / 2.0, (hi - lo) / 2.0)

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
    ctx = resolve_tolerance(ctx)
    nonzero = np.nonzero(H.normal)[0]
    if nonzero.size != 1:
        raise UnsupportedOperationError("fast path needs a single-entry normal")
    index = int(nonzero[0])
    value = float(H.normal[index])
    if H.dim != X.dim:
        raise DimensionMismatchError(f"box has dimension {X.dim}, half-space {H.dim}")

    # The low/high properties already return fresh arrays.
    lo = X.low
    hi = X.high
    bound = H.offset / value
    if value > 0:
        hi[index] = min(hi[index], bound)
    else:
        lo[index] = max(lo[index], bound)
    if lo[index] > hi[index]:
        n = X.dim
        e = np.zeros(n)
        e[index] = 1.0
        bad = [HalfSpace(e, float(hi[index])), HalfSpace(-e, -float(lo[index]))]
        others = [
            c
            for i, c in enumerate(X.constraints_list(ctx))
            if i not in (2 * index, 2 * index + 1)
        ]
        return HPolytope(bad + others)
    return Hyperrectangle((lo + hi) / 2.0, (hi - lo) / 2.0)


def cartesian_product(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Concatenate dimensions: boxes stay boxes, zonotope pairs go block-diagonal."""
    ctx = resolve_tolerance(ctx)
    if isinstance(X, AbstractHyperrectangle) and isinstance(Y, AbstractHyperrectangle):
        return Hyperrectangle(
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
    """Convex hull of the union of two 2-D polytopic sets."""
    ctx = resolve_tolerance(ctx)
    _require_same_dim(X, Y)
    if X.dim != 2:
        raise UnsupportedOperationError("concrete convex hull is only implemented in 2-D")
    points = list(X.vertices_list(ctx)) + list(Y.vertices_list(ctx))
    return VPolygon(points)


def linear_map(M, X: ConcreteSet, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """The image ``{M x : x in X}``."""
    ctx = resolve_tolerance(ctx)
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
        return type(X)(
            [HalfSpace(c.normal @ Minv, c.offset) for c in X.constraints], dim=X.dim
        )
    raise UnsupportedOperationError(f"linear_map is not implemented for {type(X).__name__}")


def translate(X: ConcreteSet, v, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Shift every element of X by v; preserves the representation type."""
    return X.translate(v)


def is_empty(X: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """Emptiness test (feasibility LP for H-representations)."""
    ctx = resolve_tolerance(ctx)
    if isinstance(X, (AbstractHyperrectangle, Zonotope, HalfSpace, Hyperplane)):
        return False
    if isinstance(X, VPolygon):
        return X.num_vertices == 0
    if isinstance(X, VPolytope):
        return X.vertices.shape[0] == 0
    if isinstance(X, HPolyhedron):
        if not X.constraints:
            return False
        return not is_feasible([(c.normal, c.offset) for c in X.constraints], ctx)
    raise UnsupportedOperationError(f"is_empty is not implemented for {type(X).__name__}")


def is_subset(X: ConvexSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """X within Y, decided by support of X against every constraint of Y."""
    _require_same_dim(X, Y)
    constraints = Y.constraints_list(ctx)
    A = np.array([c.normal for c in constraints]).reshape(-1, X.dim)
    values, _ = X.support_batch(A, ctx)
    return bool(np.all(within(values, np.array([c.offset for c in constraints]), A, ctx)))


def is_disjoint(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """Whether X and Y share no point; touching boundaries count as sharing."""
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
    if _has_constraints(X) and _has_constraints(Y):
        return is_empty(HPolyhedron(X.constraints_list(ctx) + Y.constraints_list(ctx), dim=X.dim), ctx)
    raise UnsupportedOperationError(
        f"is_disjoint is not implemented for {type(X).__name__} and {type(Y).__name__}"
    )


def is_equivalent(X: ConcreteSet, Y: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    """Mutual inclusion."""
    return is_subset(X, Y, ctx) and is_subset(Y, X, ctx)
