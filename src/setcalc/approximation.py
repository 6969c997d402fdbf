"""Direction templates and controlled over/under-approximation.

Outer approximations intersect supporting half-spaces over a direction
family (template polytopes, bounding boxes, symmetric interval hulls), or
refine directions adaptively until a Hausdorff-distance guarantee holds
(2-D only).  Zonotope fitting scales generators along candidate directions
by one small LP over support values along candidate facet normals;
underapproximation collects support vectors.  All routines work with any
set (concrete or lazy) that answers support queries; the zonotope fit also
needs its vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, UnboundedSetError, UnsupportedOperationError
from .numerics import LinearProgram, LpStatus, ToleranceContext, resolve_tolerance, solve_lp
from .sets import (
    ConvexSet,
    HPolyhedron,
    HPolytope,
    Hyperrectangle,
    VPolygon,
    VPolytope,
    Zonotope,
    _as_vector,
    _axis_extents,
    _normals_bound,
    _zonotope_normals,
)

_SQRT2 = math.sqrt(2.0)
_REFINEMENT_CAP = 10 ** 4


@dataclass(frozen=True)
class DirectionTemplate:
    """A finite family of query directions of one of the stock kinds.

    ``box`` gives the 2n axis directions, ``oct`` the eight unit normals of
    a regular octagon (2-D only), ``polar`` k unit vectors at angles 2 pi
    j / k starting from (1, 0), ``spherical`` a k x k latitude/longitude
    grid on the unit sphere (3-D only), and ``custom`` a user list.
    """

    kind: str
    dim: int
    count: int = 0
    directions: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("box", "oct", "polar", "spherical", "custom"):
            raise ValueError(f"unknown template kind {self.kind!r}")
        if self.kind == "oct" and self.dim != 2:
            raise UnsupportedOperationError("octagon directions exist only in dimension 2")
        if self.kind == "polar" and (self.dim != 2 or self.count < 1):
            raise ValueError("polar templates need dimension 2 and a positive count")
        if self.kind == "spherical" and (self.dim != 3 or self.count < 2):
            raise ValueError("spherical templates need dimension 3 and count >= 2")
        if self.kind == "custom":
            if not self.directions:
                raise ValueError("custom templates need at least one direction")
            self.matrix  # builds and checks the rows at construction

    def __eq__(self, other):
        # Custom directions compare by value; the rows of a stock kind follow
        # from (kind, dim, count).
        if not isinstance(other, DirectionTemplate):
            return NotImplemented
        return (self.kind, self.dim, self.count) == (other.kind, other.dim, other.count) and (
            self.kind != "custom" or np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        rows = tuple(self.matrix.ravel().tolist()) if self.kind == "custom" else ()
        return hash((self.kind, self.dim, self.count, rows))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The rows of :func:`generate_directions`, built and checked once per
        template: ``dim`` finite entries each, not all zero; read-only."""
        D = _direction_rows(self)
        zero = np.flatnonzero(~D.any(axis=1))
        if len(zero):
            raise ValueError(f"direction {zero[0]} is zero; template directions must be nonzero")
        D.flags.writeable = False
        return D

    @cached_property
    def bounded(self) -> bool:
        """Whether the directions positively span the space, that is, whether
        ``{x : d . x <= 1 for every direction d}`` is bounded
        (:func:`~setcalc.sets._normals_bound`).  The template polytope of a
        nonempty set with finite support values has the same recession cone,
        so it is bounded exactly when this holds."""
        return _normals_bound(self.matrix)


def box_template(n: int) -> DirectionTemplate:
    return DirectionTemplate("box", int(n))


def oct_template(n: int = 2) -> DirectionTemplate:
    return DirectionTemplate("oct", int(n))


def polar_template(k: int) -> DirectionTemplate:
    return DirectionTemplate("polar", 2, int(k))


def spherical_template(k: int) -> DirectionTemplate:
    return DirectionTemplate("spherical", 3, int(k))


def custom_template(directions) -> DirectionTemplate:
    dirs = tuple(_as_vector(d, name=f"direction {i}") for i, d in enumerate(directions))
    if not dirs:
        raise ValueError("custom templates need at least one direction")
    return DirectionTemplate("custom", dirs[0].size, len(dirs), dirs)


def _direction_rows(t: DirectionTemplate) -> np.ndarray:
    """The template's directions as the rows of one new float array."""
    if t.kind == "box":
        # sign * e_i, so the zeros of the negative rows are -0.0.
        return (np.eye(t.dim)[:, None, :] * np.array([1.0, -1.0])[:, None]).reshape(2 * t.dim, t.dim)
    if t.kind == "oct":
        s = 1.0 / _SQRT2
        return np.array([(1.0, 0.0), (s, s), (0.0, 1.0), (-s, s), (-1.0, 0.0), (-s, -s), (0.0, -1.0), (s, -s)])
    if t.kind == "polar":
        angles = [2.0 * math.pi * j / t.count for j in range(t.count)]
        return np.array([[*map(math.cos, angles)], [*map(math.sin, angles)]]).T.copy()
    if t.kind == "spherical":
        k = t.count
        grid = [(math.pi * i / (k - 1), 2.0 * math.pi * j / k) for i in range(k) for j in range(k)]
        return np.array([(math.sin(p) * math.cos(q), math.sin(p) * math.sin(q), math.cos(p)) for p, q in grid])
    return np.array([_as_vector(d, t.dim, f"direction {i}") for i, d in enumerate(t.directions)])


def generate_directions(t: DirectionTemplate) -> list[np.ndarray]:
    """Materialize the template's ordered direction list."""
    return list(_direction_rows(t))


def overapproximate_template(X: ConvexSet, t: DirectionTemplate, ctx: ToleranceContext | None = None):
    """Template polytope: one supporting constraint per template direction.

    Always contains X.  If the directions do not positively span the space
    (``t.bounded``, decided once per template) the result is unbounded; it
    is then returned as an HPolyhedron rather than mistyped as a polytope.
    The template's rows are checked once per template (``t.matrix``), so a
    query checks only the dimension; the result shares the template's
    read-only matrix and holds a read-only copy of the support values.
    """
    if t.dim != X.dim:
        raise DimensionMismatchError(f"template has dimension {t.dim}, the set has dimension {X.dim}")
    values, _ = X._support_batch(t.matrix, ctx, False)
    if (values == math.inf).any():
        raise UnboundedSetError("support of the input set is unbounded along a template direction")
    b = values.copy()
    b.flags.writeable = False
    return (HPolytope if t.bounded else HPolyhedron)._build(t.matrix, b)


def box_approximation(X: ConvexSet, ctx: ToleranceContext | None = None) -> Hyperrectangle:
    """Tightest axis-aligned bounding box, from one batched query on ``[I; -I]``."""
    hi, lo = _axis_extents(X, ctx, "box")
    return Hyperrectangle._from_arrays((lo + hi) / 2.0, (hi - lo) / 2.0)


def symmetric_interval_hull(X: ConvexSet, ctx: ToleranceContext | None = None) -> Hyperrectangle:
    """Smallest origin-symmetric box containing X."""
    hi, lo = _axis_extents(X, ctx, "hull")
    return Hyperrectangle._from_arrays(np.zeros(X.dim), np.maximum(np.abs(hi), np.abs(lo)))


def overapproximate_eps_2d(X: ConvexSet, eps: float, ctx: ToleranceContext | None = None) -> VPolygon:
    """Adaptive outer polygon with Hausdorff distance to X of at most eps.

    Starts from the four axis directions and bisects (in angle) every
    adjacent direction pair whose local error exceeds eps.  The local error
    of a pair is the distance between the intersection point of the two
    supporting lines (a vertex of the outer polygon) and the chord through
    the two support vectors (which lies inside X), a valid local bound on
    the Hausdorff distance.
    """
    eps = float(eps)
    if not eps > 0.0:  # NaN too
        raise ValueError("eps must be positive")
    if X.dim != 2:
        raise UnsupportedOperationError("eps-close approximation is only implemented in 2-D")

    def probe(angles):
        # One row per angle: (angle, direction, support value, support vector).
        rows = np.empty((len(angles), 6))
        rows[:, 0], rows[:, 1], rows[:, 2] = angles, np.cos(angles), np.sin(angles)
        values, vectors = X._support_batch(rows[:, 1:3], ctx, True)
        if not np.all(np.isfinite(values)):
            raise UnboundedSetError("cannot approximate an unbounded set")
        rows[:, 3], rows[:, 4:] = values, vectors
        return rows

    # Work items are adjacent direction pairs (in angle), with the probes of
    # their two ends in the same rows of ``first`` and ``second``.  They are
    # refined breadth first, so that all bisections of a round share one
    # batched query; a split depends only on the pair's endpoints, so the
    # order does not matter.
    first = probe(np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]))
    second = first[[1, 2, 3, 0]]
    refinements, xs, ys = 0, [], []
    while True:
        a1, d1x, d1y, r1, v1x, v1y = first.T
        a2, d2x, d2y, r2, v2x, v2y = second.T
        gap = (a2 - a1) % (2.0 * math.pi)
        # The supporting lines meet at q; its distance to the chord v1 v2
        # (to v1 where the chord is a point) bounds the local error.
        det = d1x * d2y - d1y * d2x
        qx, qy = (r1 * d2y - r2 * d1y) / det, (d1x * r2 - d2x * r1) / det
        cx, cy, px, py = v2x - v1x, v2y - v1y, qx - v1x, qy - v1y
        length = cx * cx + cy * cy
        t = np.minimum(np.maximum((px * cx + py * cy) / np.where(length == 0.0, 1.0, length), 0.0), 1.0)
        split = ~((np.hypot(px - t * cx, py - t * cy) <= eps) | (gap <= 1e-12))
        if not split.any():
            xs.append(qx)
            ys.append(qy)
            return VPolygon(np.column_stack((np.concatenate(xs), np.concatenate(ys))))
        xs.append(qx[~split])
        ys.append(qy[~split])
        refinements += int(np.count_nonzero(split))
        if refinements > _REFINEMENT_CAP:
            raise UnsupportedOperationError(
                f"eps-close refinement exceeded {_REFINEMENT_CAP} bisections"
            )
        middle = probe((a1[split] + gap[split] / 2.0) % (2.0 * math.pi))
        # Each split pair (a, b) becomes (a, middle) and (middle, b), in place.
        first, second = np.repeat(first[split], 2, axis=0), np.repeat(second[split], 2, axis=0)
        first[1::2] = second[::2] = middle


def overapproximate_zonotope(X: ConvexSet, directions, ctx: ToleranceContext | None = None) -> Zonotope:
    """Fit a zonotope over X with generators along the given directions.

    The center c is the vertex centroid of X and generator j is
    ``alpha_j d_j``.  Z contains X iff ``rho(l, X) - c.l <= sum_j alpha_j |l.d_j|``
    for every facet normal l of Z, taken with both signs.  The rows take l
    over the nonzero normals of all (n-1)-subsets of the directions, which
    hold every facet normal, and over the directions themselves, which
    decide a flat Z; the support values come from one batched query.  One
    LP in the m scales minimizes their sum (Guibas, Nguyen and Zhang,
    "Zonotopes as bounding volumes", 2003).  The rows are exact in 1-D and
    2-D; in higher dimensions X must be full-dimensional and the directions
    must span the space, with at most ``_NORMALS_CAP`` subsets.
    """
    ctx = resolve_tolerance(ctx)
    n = X.dim
    D = np.array([_as_vector(d, n, "direction") for d in directions]).reshape(-1, n)
    if not D.size:
        raise ValueError("need at least one candidate direction")
    vertices = X.vertices_list(ctx)
    if not vertices:
        raise EmptySetError("cannot fit a zonotope around an empty set")
    V = np.array(vertices)
    center = V.mean(axis=0)
    rank_x, rank_d = np.linalg.matrix_rank(V - center), np.linalg.matrix_rank(D)
    if rank_d == 0 < rank_x:
        raise UnsupportedOperationError("the candidate directions cannot cover the set")
    if n > 2 and min(rank_x, rank_d) < n:
        raise UnsupportedOperationError(
            "zonotope fits in dimension > 2 need a full-dimensional set and spanning directions"
        )
    normals = _zonotope_normals(D.T)
    if normals is None:
        raise UnsupportedOperationError("too many candidate facet normals")
    L = np.vstack((normals, D))
    values, _ = X.support_batch(np.vstack((L, -L)), ctx)
    lc = L.dot(center)
    need = np.maximum(values[: len(L)] - lc, values[len(L) :] + lc)
    # Rows -|L d_j| alpha <= -need and -alpha <= 0; maximize -sum(alpha).
    m = D.shape[0]
    rows = np.vstack((-np.abs(L.dot(D.T)), -np.eye(m)))
    outcome = solve_lp(LinearProgram(-np.ones(m), rows, np.concatenate((-need, np.zeros(m)))), ctx)
    if outcome.status is not LpStatus.OPTIMAL:
        raise UnsupportedOperationError("the candidate directions cannot cover the set")
    alphas = outcome.optimizer
    # Generators no longer than atol are dropped.
    G = (D.T * alphas)[:, alphas * np.linalg.norm(D, axis=1) > ctx.atol]
    return Zonotope(center, G)


def underapproximate(X: ConvexSet, directions, ctx: ToleranceContext | None = None):
    """Convex hull of the support vectors along the given directions.

    Support vectors are members of X, so the hull is an inner approximation.
    Returns a VPolygon in 2-D, a VPolytope otherwise.
    """
    directions = list(directions)
    try:
        D = np.array(directions, dtype=float)
    except (TypeError, ValueError):
        D = None
    if D is None or D.shape[1:] != (X.dim,) or not np.isfinite(D).all():
        # Converting each direction on its own accepts any shape of vector
        # and names a bad one.
        D = np.array([_as_vector(d, X.dim, "direction") for d in directions]).reshape(-1, X.dim)
    if not len(D):
        raise ValueError("need at least one direction")
    _, points = X._support_batch(D, ctx, True)
    if X.dim == 2:
        return VPolygon(points)
    return VPolytope(points)
