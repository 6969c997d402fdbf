"""Direction templates and controlled over/under-approximation.

Outer approximations intersect supporting half-spaces over a direction
family (template polytopes, bounding boxes, symmetric interval hulls), or
refine directions adaptively until a Hausdorff-distance guarantee holds
(2-D only).  Zonotope fitting synthesizes generators along candidate
directions by linear programming; underapproximation collects support
vectors.  All routines work with any set (concrete or lazy) that answers
support queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySetError, UnboundedSetError, UnsupportedOperationError
from .numerics import LinearProgram, LpStatus, ToleranceContext, resolve_tolerance, solve_lp
from .sets import (
    ConvexSet,
    HalfSpace,
    HPolyhedron,
    HPolytope,
    Hyperrectangle,
    VPolygon,
    VPolytope,
    Zonotope,
    _as_vector,
    _axis_extents,
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
            for d in self.directions:
                if np.max(np.abs(d)) == 0.0:
                    raise ValueError("custom directions must be nonzero")


def box_template(n: int) -> DirectionTemplate:
    return DirectionTemplate("box", int(n))


def oct_template(n: int = 2) -> DirectionTemplate:
    return DirectionTemplate("oct", int(n))


def polar_template(k: int) -> DirectionTemplate:
    return DirectionTemplate("polar", 2, int(k))


def spherical_template(k: int) -> DirectionTemplate:
    return DirectionTemplate("spherical", 3, int(k))


def custom_template(directions) -> DirectionTemplate:
    dirs = tuple(_as_vector(d, name="direction") for d in directions)
    if not dirs:
        raise ValueError("custom templates need at least one direction")
    return DirectionTemplate("custom", dirs[0].size, len(dirs), dirs)


def generate_directions(t: DirectionTemplate) -> list[np.ndarray]:
    """Materialize the template's ordered direction list."""
    if t.kind == "box":
        return [sign * e for e in np.eye(t.dim) for sign in (1.0, -1.0)]
    if t.kind == "oct":
        s = 1.0 / _SQRT2
        return [
            np.array(v)
            for v in [
                (1.0, 0.0),
                (s, s),
                (0.0, 1.0),
                (-s, s),
                (-1.0, 0.0),
                (-s, -s),
                (0.0, -1.0),
                (s, -s),
            ]
        ]
    if t.kind == "polar":
        out = []
        for j in range(t.count):
            angle = 2.0 * math.pi * j / t.count
            out.append(np.array([math.cos(angle), math.sin(angle)]))
        return out
    if t.kind == "spherical":
        out = []
        for i in range(t.count):
            phi = math.pi * i / (t.count - 1)
            for j in range(t.count):
                theta = 2.0 * math.pi * j / t.count
                out.append(
                    np.array(
                        [
                            math.sin(phi) * math.cos(theta),
                            math.sin(phi) * math.sin(theta),
                            math.cos(phi),
                        ]
                    )
                )
        return out
    return [np.array(d, dtype=float) for d in t.directions]


def overapproximate_template(X: ConvexSet, t: DirectionTemplate, ctx: ToleranceContext | None = None):
    """Template polytope: one supporting constraint per template direction.

    Always contains X.  If the directions do not positively span the space
    the result can be unbounded; it is then returned as an HPolyhedron
    rather than silently mistyped as a polytope.
    """
    ctx = resolve_tolerance(ctx)
    D = np.array(generate_directions(t))
    values, _ = X.support_batch(D, ctx)
    if np.any(values == math.inf):
        raise UnboundedSetError("support of the input set is unbounded along a template direction")
    constraints = [HalfSpace(d, value) for d, value in zip(D, values)]
    region = HPolyhedron(constraints)
    if t.kind in ("box", "oct") or (t.kind == "polar" and t.count >= 3):
        return HPolytope(constraints)
    if region.is_bounded(ctx):
        return HPolytope(constraints)
    return region


def box_approximation(X: ConvexSet, ctx: ToleranceContext | None = None) -> Hyperrectangle:
    """Tightest axis-aligned bounding box, from one batched query on ``[I; -I]``."""
    hi, lo = _axis_extents(X, resolve_tolerance(ctx), "box")
    return Hyperrectangle((lo + hi) / 2.0, (hi - lo) / 2.0)


def symmetric_interval_hull(X: ConvexSet, ctx: ToleranceContext | None = None) -> Hyperrectangle:
    """Smallest origin-symmetric box containing X."""
    hi, lo = _axis_extents(X, resolve_tolerance(ctx), "hull")
    return Hyperrectangle(np.zeros(X.dim), np.maximum(np.abs(hi), np.abs(lo)))


def _line_intersection(d1, r1, d2, r2) -> np.ndarray:
    det = d1[0] * d2[1] - d1[1] * d2[0]
    return np.array([(r1 * d2[1] - r2 * d1[1]) / det, (d1[0] * r2 - d2[0] * r1) / det])


def _point_segment_distance(q, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(q - a)))
    s = float((q - a) @ ab) / denom
    s = min(1.0, max(0.0, s))
    return float(np.hypot(*(q - a - s * ab)))


def overapproximate_eps_2d(X: ConvexSet, eps: float, ctx: ToleranceContext | None = None) -> VPolygon:
    """Adaptive outer polygon with Hausdorff distance to X of at most eps.

    Starts from the four axis directions and bisects (in angle) every
    adjacent direction pair whose local error exceeds eps.  The local error
    of a pair is the distance between the intersection point of the two
    supporting lines (a vertex of the outer polygon) and the chord through
    the two support vectors (which lies inside X), a valid local bound on
    the Hausdorff distance.
    """
    ctx = resolve_tolerance(ctx)
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if X.dim != 2:
        raise UnsupportedOperationError("eps-close approximation is only implemented in 2-D")

    def probe(angles):
        D = np.array([(math.cos(a), math.sin(a)) for a in angles])
        values, vectors = X.support_batch(D, ctx, vectors=True)
        if not np.all(np.isfinite(values)):
            raise UnboundedSetError("cannot approximate an unbounded set")
        return list(zip(angles, D, values, vectors))

    entries = probe([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    refinements = 0
    # Work items are adjacent direction pairs (in angle), refined breadth first
    # so that all bisections of a round share one batched query; a split
    # depends only on the pair's endpoints, so the order does not matter.
    work = [(entries[i], entries[(i + 1) % 4]) for i in range(4)]
    vertices = []
    while work:
        split = []
        for first, second in work:
            gap = (second[0] - first[0]) % (2.0 * math.pi)
            q = _line_intersection(first[1], first[2], second[1], second[2])
            error = _point_segment_distance(q, first[3], second[3])
            if error <= eps or gap <= 1e-12:
                vertices.append(q)
            else:
                split.append((first, second, (first[0] + gap / 2.0) % (2.0 * math.pi)))
        refinements += len(split)
        if refinements > _REFINEMENT_CAP:
            raise UnsupportedOperationError(
                f"eps-close refinement exceeded {_REFINEMENT_CAP} bisections"
            )
        middles = probe([angle for _, _, angle in split]) if split else []
        work = [pair for (a, b, _), m in zip(split, middles) for pair in ((a, m), (m, b))]
    return VPolygon(vertices)


def overapproximate_zonotope(X: ConvexSet, directions, ctx: ToleranceContext | None = None) -> Zonotope:
    """Fit a zonotope over X with generators along the given directions.

    Centered at the vertex centroid; scales alpha_j >= 0 and per-vertex
    coefficients beta are chosen by an LP that reproduces every vertex of X
    as ``c + sum_j beta_j d_j`` with |beta_j| <= alpha_j, minimizing the
    total scale.  Containment of X follows from convexity.
    """
    ctx = resolve_tolerance(ctx)
    directions = [_as_vector(d, X.dim, "direction") for d in directions]
    if not directions:
        raise ValueError("need at least one candidate direction")
    vertices = X.vertices_list(ctx)
    if not vertices:
        raise EmptySetError("cannot fit a zonotope around an empty set")
    V = np.array(vertices)
    center = V.mean(axis=0)
    m = len(directions)
    K = V.shape[0]
    n = X.dim

    # Variables: alpha (m) then beta (K * m), row-major by vertex.
    nvars = m + K * m

    def beta_col(v: int, j: int) -> int:
        return m + v * m + j

    constraints = []
    for j in range(m):
        row = np.zeros(nvars)
        row[j] = -1.0
        constraints.append((row.copy(), 0.0))  # alpha_j >= 0
    for v in range(K):
        for j in range(m):
            row = np.zeros(nvars)
            row[beta_col(v, j)] = 1.0
            row[j] = -1.0
            constraints.append((row.copy(), 0.0))  # beta <= alpha
            row = np.zeros(nvars)
            row[beta_col(v, j)] = -1.0
            row[j] = -1.0
            constraints.append((row.copy(), 0.0))  # -beta <= alpha
    rhs_all = V - center
    for v in range(K):
        for i in range(n):
            row = np.zeros(nvars)
            for j in range(m):
                row[beta_col(v, j)] = directions[j][i]
            target = float(rhs_all[v, i])
            constraints.append((row.copy(), target))
            constraints.append((-row, -target))

    objective = np.zeros(nvars)
    objective[:m] = -1.0  # maximize -sum(alpha) == minimize total scale
    outcome = solve_lp(LinearProgram(objective, constraints), ctx)
    if outcome.status is not LpStatus.OPTIMAL:
        raise UnsupportedOperationError(
            "the candidate directions cannot reproduce the vertex offsets"
        )
    alphas = outcome.optimizer[:m]
    # Generators no longer than atol are dropped.
    G = (np.array(directions).T * alphas)[:, alphas * np.linalg.norm(directions, axis=1) > ctx.atol]
    return Zonotope(center, G)


def underapproximate(X: ConvexSet, directions, ctx: ToleranceContext | None = None):
    """Convex hull of the support vectors along the given directions.

    Support vectors are members of X, so the hull is an inner approximation.
    Returns a VPolygon in 2-D, a VPolytope otherwise.
    """
    ctx = resolve_tolerance(ctx)
    directions = [_as_vector(d, X.dim, "direction") for d in directions]
    if not directions:
        raise ValueError("need at least one direction")
    _, points = X.support_batch(np.array(directions), ctx, vectors=True)
    if X.dim == 2:
        return VPolygon(points)
    return VPolytope(points)
