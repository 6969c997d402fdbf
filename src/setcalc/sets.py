"""Concrete convex-set representations and their analytic queries.

Each set type stores exactly its defining parameters (immutable numpy
arrays) and answers queries through a shared method protocol: support
function/vector, membership, vertex and constraint lists, boundedness,
volume, sampling.  Support values use the convention

    rho(d, X) = max { d . x : x in X }

with analytic formulas where the representation allows (boxes, zonotopes,
vertex lists) and an LP fallback for half-space representations.  Unbounded
support directions yield ``math.inf``; querying a support *vector* there
raises instead.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySetError,
    SamplingBudgetError,
    UnboundedSetError,
    UnsupportedOperationError,
)
from .numerics import (
    _PARALLEL_EPS,
    LinearProgram,
    LpStatus,
    ToleranceContext,
    is_feasible,
    feasible_point,
    resolve_tolerance,
    solve_lp,
    within,
)

# Hard cap on the exponential vertex enumeration of boxes (2^n corners).
_ENUM_CAP = 16


def _as_vector(value, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.array(value, dtype=float).reshape(-1)
    # A finite sum of squares proves every entry finite (squares cannot
    # cancel); only on overflow does the elementwise check need to decide.
    if v.size and not math.isfinite(float(v @ v)) and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must have finite entries")
    if n is not None and v.size != n:
        raise DimensionMismatchError(f"{name} has dimension {v.size}, expected {n}")
    v.flags.writeable = False
    return v


def _sign_plus(d: np.ndarray) -> np.ndarray:
    # Tie-break: zero entries take the + sign, keeping support vectors
    # deterministic on faces.
    return np.where(d >= 0.0, 1.0, -1.0)


def _as_direction(d, n: int) -> np.ndarray:
    # Query-input conversion: no copy when already a float vector.  Stored
    # fields go through _as_vector instead, which also freezes.
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size != n:
        raise DimensionMismatchError(f"direction has shape {d.shape}, expected ({n},)")
    if not math.isfinite(float(d @ d)) and not np.all(np.isfinite(d)):
        raise ValueError("direction must have finite entries")
    return d


def _axis_directions(n: int) -> np.ndarray:
    """The 2n rows ``e_1, ..., e_n, -e_1, ..., -e_n``."""
    return np.concatenate((np.eye(n), -np.eye(n)))


def _axis_extents(X, ctx, purpose: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis maximum and minimum of X, from one batched query on ``[I; -I]``."""
    n = X.dim
    values, _ = X.support_batch(_axis_directions(n), ctx)
    if not np.all(np.isfinite(values)):
        raise UnboundedSetError(f"cannot {purpose} an unbounded set")
    return values[:n], -values[n:]


def _convex_hull_2d(points: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Counter-clockwise convex hull (monotone chain), dropping collinear
    points; starts at the lexicographically smallest vertex.

    ``eps`` is a distance: points within it of a kept point merge, and a
    point within it of the chord past it is dropped as collinear.  It
    defaults to the ambient absolute tolerance.
    """
    if eps is None:
        eps = resolve_tolerance(None).atol
    eps2 = eps * eps
    pts = sorted(map(tuple, np.asarray(points, dtype=float).tolist()))
    # A point between two near-duplicates in the sort would keep both, so p
    # is compared with every kept point within eps in x (a suffix of them).
    dedup = []
    for p in pts:
        j = len(dedup) - 1
        while j >= 0 and p[0] - dedup[j][0] <= eps and abs(p[1] - dedup[j][1]) > eps:
            j -= 1
        if j < 0 or p[0] - dedup[j][0] > eps:
            dedup.append(p)
    if len(dedup) <= 2:
        return np.array(dedup, dtype=float).reshape(-1, 2)

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                dx, dy = p[0] - ox, p[1] - oy
                # cross = |p - o| * distance(a, line op); squares avoid the sqrt.
                cross = (ax - ox) * dy - (ay - oy) * dx
                if cross > 0.0 and cross * cross > eps2 * (dx * dx + dy * dy):
                    break
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(dedup), chain(reversed(dedup))
    return np.array(lower[:-1] + upper[:-1], dtype=float)


class ConvexSet(ABC):
    """Common query interface for concrete sets and lazy operation nodes.

    Support queries are batched; a single direction is a batch of one.
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Ambient dimension."""

    @abstractmethod
    def _support_batch(self, D: np.ndarray, ctx, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`support_batch` for a direction matrix that is already validated."""

    def support_batch(self, D, ctx: ToleranceContext | None = None, vectors: bool = False):
        """``(values, vectors)`` along the rows of the (k, n) direction matrix D:
        ``values[i] = rho(D[i], X)`` (may be ``math.inf``) and, if ``vectors``
        is set, the (k, n) maximizers (else None; they raise where unbounded)."""
        D = np.asarray(D, dtype=float)
        if D.ndim != 2 or D.shape[1] != self.dim:
            raise DimensionMismatchError(f"direction matrix has shape {D.shape}, expected (k, {self.dim})")
        if not np.all(np.isfinite(D)):
            raise ValueError("directions must have finite entries")
        return self._support_batch(D, ctx, vectors)

    def support_function(self, d, ctx: ToleranceContext | None = None) -> float:
        """Maximum of ``d . x`` over the set (may be ``math.inf``)."""
        return float(self._support_batch(self._check_direction(d)[None], ctx, False)[0][0])

    def support_vector(self, d, ctx: ToleranceContext | None = None) -> np.ndarray:
        """A maximizer of ``d . x`` over the set."""
        return self._support_batch(self._check_direction(d)[None], ctx, True)[1][0]

    def contains(self, x, ctx: ToleranceContext | None = None) -> bool:
        raise UnsupportedOperationError(
            f"membership is not supported for {type(self).__name__}"
        )

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def _check_direction(self, d) -> np.ndarray:
        return _as_direction(d, self.dim)


def _vertex_support(vertices: np.ndarray, D: np.ndarray, vectors: bool):
    # First maximizing vertex per direction.
    S = D.dot(vertices.T)
    return S.max(axis=1), (vertices[S.argmax(axis=1)] if vectors else None)


class ConcreteSet(ConvexSet):
    """Base class of all non-lazy set representations.

    Values are immutable: the constructor sets each field once.
    """

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"{type(self).__name__} is immutable")
        object.__setattr__(self, name, value)

    def vertices_list(self, ctx: ToleranceContext | None = None) -> list[np.ndarray]:
        raise UnsupportedOperationError(
            f"vertices_list is not supported for {type(self).__name__}"
        )

    def constraints_list(self, ctx: ToleranceContext | None = None) -> list["HalfSpace"]:
        raise UnsupportedOperationError(
            f"constraints_list is not supported for {type(self).__name__}"
        )

    def volume(self) -> float:
        raise UnsupportedOperationError(
            f"volume is not supported for {type(self).__name__}"
        )

    def is_bounded(self, ctx: ToleranceContext | None = None) -> bool:
        raise UnsupportedOperationError(
            f"is_bounded is not supported for {type(self).__name__}"
        )

    def an_element(self, ctx: ToleranceContext | None = None) -> np.ndarray:
        raise UnsupportedOperationError(
            f"an_element is not supported for {type(self).__name__}"
        )

    def translate(self, v) -> "ConcreteSet":
        raise UnsupportedOperationError(
            f"translate is not supported for {type(self).__name__}"
        )


class _FlatSet(ConcreteSet):
    """A region given by a nonzero normal and an offset, shared by half-spaces
    and hyperplanes.  Subclasses set ``_name`` (used in messages) and whether
    the region is ``_one_sided``."""

    _name: str
    _one_sided: bool

    def __init__(self, normal, offset):
        self.normal = _as_vector(normal, name="normal")
        self.offset = float(offset)
        if not self.normal.any():
            raise ValueError(f"{self._name} normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size

    def __repr__(self):
        return f"{type(self).__name__}({self.normal.tolist()}, {self.offset})"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and np.array_equal(self.normal, other.normal)
            and self.offset == other.offset
        )

    __hash__ = None

    def _support_batch(self, D, ctx, vectors):
        # Bounded only along d = lam * normal (lam >= 0 when one-sided),
        # where rho(d) = lam * offset.
        lam = D.dot(self.normal) / float(self.normal @ self.normal)
        scale = np.maximum(1.0, np.abs(D).max(axis=1))
        bounded = np.abs(D - lam[:, None] * self.normal).max(axis=1) <= _PARALLEL_EPS * scale
        if self._one_sided:
            bounded &= lam >= -_PARALLEL_EPS
        if vectors and not bounded.all():
            raise UnboundedSetError(f"{self._name} is unbounded in this direction")
        values = np.where(bounded, lam * self.offset, math.inf)
        return values, (np.tile(self.an_element(), (len(D), 1)) if vectors else None)

    def contains(self, x, ctx=None) -> bool:
        slack = float(self.normal @ _as_vector(x, self.dim, "point")) - self.offset
        return bool(within(slack if self._one_sided else abs(slack), 0.0, self.normal, ctx))

    def an_element(self, ctx=None) -> np.ndarray:
        return self.normal * (self.offset / float(self.normal @ self.normal))

    def translate(self, v):
        v = _as_vector(v, self.dim, "shift")
        return type(self)(self.normal, self.offset + float(self.normal @ v))


class HalfSpace(_FlatSet):
    """The region ``{x : normal . x <= offset}``."""

    _name, _one_sided = "half-space", True

    def constraints_list(self, ctx=None) -> list["HalfSpace"]:
        return [self]

    def is_bounded(self, ctx=None) -> bool:
        return False


class Hyperplane(_FlatSet):
    """The region ``{x : normal . x = offset}``."""

    _name, _one_sided = "hyperplane", False

    def constraints_list(self, ctx=None) -> list[HalfSpace]:
        return [HalfSpace(self.normal, self.offset), HalfSpace(-self.normal, -self.offset)]

    def is_bounded(self, ctx=None) -> bool:
        return self.dim == 1


class AbstractHyperrectangle(ConcreteSet):
    """Shared behavior of box-shaped sets (center plus per-axis radius).

    Subclasses provide ``center`` and ``radius_vector``; everything here is
    expressed in terms of those, so all box kinds behave identically.
    """

    center: np.ndarray

    @property
    def radius_vector(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def low(self) -> np.ndarray:
        return self.center - self.radius_vector

    @property
    def high(self) -> np.ndarray:
        return self.center + self.radius_vector

    def _support_batch(self, D, ctx, vectors):
        r = self.radius_vector
        return D.dot(self.center) + np.abs(D).dot(r), (self.center + _sign_plus(D) * r if vectors else None)

    def contains(self, x, ctx=None) -> bool:
        ctx = resolve_tolerance(ctx)
        x = _as_vector(x, self.dim, "point")
        return bool(np.all(np.abs(x - self.center) <= self.radius_vector + ctx.atol))

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        n = self.dim
        if n > _ENUM_CAP:
            raise UnsupportedOperationError(
                f"vertex enumeration of a {n}-dimensional box ({2 ** n} vertices) exceeds the cap"
            )
        r = self.radius_vector
        c = self.center
        out = []
        seen = set()
        for bits in range(2 ** n):
            signs = np.array([-1.0 if (bits >> j) & 1 else 1.0 for j in range(n)])
            vertex = c + signs * r
            key = tuple(vertex)
            if key not in seen:
                seen.add(key)
                out.append(vertex)
        return out

    def constraints_list(self, ctx=None) -> list[HalfSpace]:
        out = []
        n = self.dim
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            out.append(HalfSpace(e, float(self.high[i])))
            out.append(HalfSpace(-e, -float(self.low[i])))
        return out

    def volume(self) -> float:
        return float(np.prod(2.0 * self.radius_vector))

    def is_bounded(self, ctx=None) -> bool:
        return True

    def an_element(self, ctx=None) -> np.ndarray:
        return self.center

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.radius_vector, other.radius_vector)
        )

    __hash__ = None


class Hyperrectangle(AbstractHyperrectangle):
    """Axis-aligned box given by center and componentwise radius."""

    def __init__(self, center, radius):
        self.center = _as_vector(center, name="center")
        radius = _as_vector(radius, self.center.size, "radius")
        if np.any(radius < 0.0):
            raise ValueError("radius entries must be nonnegative")
        self._radius = radius

    @property
    def radius_vector(self) -> np.ndarray:
        return self._radius

    @property
    def radius(self) -> np.ndarray:
        return self._radius

    def __repr__(self):
        return f"Hyperrectangle({self.center.tolist()}, {self._radius.tolist()})"

    def translate(self, v) -> "Hyperrectangle":
        v = _as_vector(v, self.dim, "shift")
        return Hyperrectangle(self.center + v, self._radius)


class BallInf(AbstractHyperrectangle):
    """Hypercube: all points within ``radius`` of the center in the max norm."""

    def __init__(self, center, radius):
        self.center = _as_vector(center, name="center")
        self.radius = float(radius)
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")
        rv = np.full(self.center.size, self.radius)
        rv.flags.writeable = False
        self._radius_vector = rv

    @property
    def radius_vector(self) -> np.ndarray:
        return self._radius_vector

    def __repr__(self):
        return f"BallInf({self.center.tolist()}, {self.radius})"

    def translate(self, v) -> "BallInf":
        v = _as_vector(v, self.dim, "shift")
        return BallInf(self.center + v, self.radius)


class Interval(AbstractHyperrectangle):
    """One-dimensional box ``[lo, hi]``."""

    def __init__(self, lo, hi):
        self.lo = float(lo)
        self.hi = float(hi)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")
        self.center = _as_vector([0.5 * (self.lo + self.hi)])
        rv = np.array([0.5 * (self.hi - self.lo)])
        rv.flags.writeable = False
        self._radius_vector = rv

    @property
    def radius_vector(self) -> np.ndarray:
        return self._radius_vector

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    __hash__ = None

    def translate(self, v) -> "Interval":
        v = _as_vector(v, 1, "shift")
        return Interval(self.lo + v[0], self.hi + v[0])


class Zonotope(ConcreteSet):
    """Center plus generators: ``{c + G xi : xi in [-1, 1]^m}``."""

    def __init__(self, center, generators):
        self.center = _as_vector(center, name="center")
        G = np.array(generators, dtype=float)
        if G.size == 0:
            G = G.reshape(self.center.size, 0)
        if G.ndim != 2 or G.shape[0] != self.center.size:
            raise DimensionMismatchError(
                f"generator matrix must be {self.center.size} x m, got shape {G.shape}"
            )
        if not np.all(np.isfinite(G)):
            raise ValueError("generators must be finite")
        G.flags.writeable = False
        self.generators = G

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def num_generators(self) -> int:
        return self.generators.shape[1]

    def __repr__(self):
        return f"Zonotope({self.center.tolist()}, {self.generators.tolist()})"

    def __eq__(self, other):
        return (
            isinstance(other, Zonotope)
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.generators, other.generators)
        )

    __hash__ = None

    def _support_batch(self, D, ctx, vectors):
        DG = D.dot(self.generators)
        values = D.dot(self.center) + np.abs(DG).sum(axis=1)
        return values, (self.center + _sign_plus(DG).dot(self.generators.T) if vectors else None)

    def contains(self, x, ctx=None) -> bool:
        # Feasibility of G xi = x - c with xi in [-1, 1]^m.
        ctx = resolve_tolerance(ctx)
        x = _as_vector(x, self.dim, "point")
        m = self.num_generators
        rhs = x - self.center
        if m == 0:
            return bool(np.all(np.abs(rhs) <= ctx.atol))
        constraints = []
        eye = np.eye(m)
        for j in range(m):
            constraints.append((eye[j], 1.0))
            constraints.append((-eye[j], 1.0))
        for i in range(self.dim):
            constraints.append((self.generators[i], float(rhs[i]) + ctx.atol))
            constraints.append((-self.generators[i], -float(rhs[i]) + ctx.atol))
        return is_feasible(constraints, ctx)

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        if self.dim == 1:
            spread = float(np.sum(np.abs(self.generators)))
            lo, hi = float(self.center[0]) - spread, float(self.center[0]) + spread
            return [np.array([lo])] if hi == lo else [np.array([lo]), np.array([hi])]
        if self.dim != 2:
            raise UnsupportedOperationError(
                "zonotope vertex enumeration is only implemented for dimension <= 2"
            )
        # Generators flipped into the upper half-plane and sorted by angle,
        # walked forward then backward from c - sum(g), trace the boundary.
        G = self.generators.T[np.any(self.generators != 0.0, axis=0)]
        G = np.where(((G[:, 1] < 0.0) | ((G[:, 1] == 0.0) & (G[:, 0] < 0.0)))[:, None], -G, G)
        G = G[np.argsort(np.arctan2(G[:, 1], G[:, 0]), kind="stable")]
        start = self.center - G.sum(axis=0)
        points = np.concatenate(([start], start + np.cumsum(np.concatenate((2.0 * G, -2.0 * G)), axis=0)))
        return [row for row in _convex_hull_2d(points)]

    def constraints_list(self, ctx=None) -> list[HalfSpace]:
        if self.dim == 1:
            verts = self.vertices_list(ctx)
            lo, hi = float(verts[0][0]), float(verts[-1][0])
            return [HalfSpace(np.array([1.0]), hi), HalfSpace(np.array([-1.0]), -lo)]
        if self.dim != 2:
            raise UnsupportedOperationError(
                "zonotope constraint lists are only implemented for dimension <= 2"
            )
        verts = self.vertices_list(ctx)
        if len(verts) == 1:
            return _point_constraints_2d(verts[0])
        if len(verts) == 2:
            return _segment_constraints_2d(verts[0], verts[1])
        return VPolygon(verts).constraints_list(ctx)

    def is_bounded(self, ctx=None) -> bool:
        return True

    def an_element(self, ctx=None) -> np.ndarray:
        return self.center

    def translate(self, v) -> "Zonotope":
        v = _as_vector(v, self.dim, "shift")
        return Zonotope(self.center + v, self.generators)


class HPolyhedron(ConcreteSet):
    """Finite intersection of half-spaces; possibly unbounded or empty."""

    def __init__(self, constraints, dim: int | None = None):
        constraints = tuple(constraints)
        for c in constraints:
            if not isinstance(c, HalfSpace):
                raise TypeError("constraints must be HalfSpace instances")
        if constraints:
            n = constraints[0].dim
            for c in constraints[1:]:
                if c.dim != n:
                    raise DimensionMismatchError(
                        f"constraints mix dimensions {n} and {c.dim}"
                    )
            if dim is not None and dim != n:
                raise DimensionMismatchError(f"dim={dim} but constraints have dimension {n}")
        elif dim is None:
            raise ValueError("an unconstrained polyhedron needs an explicit dim")
        else:
            n = int(dim)
        self.constraints = constraints
        self._dim = n

    @property
    def dim(self) -> int:
        return self._dim

    def __repr__(self):
        return f"{type(self).__name__}({list(self.constraints)!r})"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._dim == other._dim
            and self.constraints == other.constraints
        )

    __hash__ = None

    def _lp_constraints(self) -> list[tuple[np.ndarray, float]]:
        return [(c.normal, c.offset) for c in self.constraints]

    def _support_batch(self, D, ctx, vectors):
        # One LP per direction yields both the value and the maximizer.
        ctx = resolve_tolerance(ctx)
        constraints = self._lp_constraints()
        values, points = np.empty(len(D)), np.empty(D.shape)
        for i, d in enumerate(D):
            outcome = solve_lp(LinearProgram(d, constraints), ctx)
            if outcome.status is LpStatus.INFEASIBLE:
                raise EmptySetError("support query on an empty polyhedron")
            if outcome.status is LpStatus.UNBOUNDED:
                if vectors:
                    raise UnboundedSetError("polyhedron is unbounded in this direction")
                values[i] = math.inf
            else:
                values[i], points[i] = outcome.optimum, outcome.optimizer
        return values, (points if vectors else None)

    def contains(self, x, ctx=None) -> bool:
        x = _as_vector(x, self.dim, "point")
        A = np.array([c.normal for c in self.constraints]).reshape(-1, self.dim)
        return bool(np.all(within(A.dot(x), np.array([c.offset for c in self.constraints]), A, ctx)))

    def constraints_list(self, ctx=None) -> list[HalfSpace]:
        return list(self.constraints)

    def is_bounded(self, ctx=None) -> bool:
        ctx = resolve_tolerance(ctx)
        if self.dim == 2:
            if self.constraints and not is_feasible(self._lp_constraints(), ctx):
                raise EmptySetError("is_bounded of an empty polyhedron")
            return _normals_bound_2d(self.constraints)
        for e in np.eye(self.dim):
            if self.support_function(e, ctx) == math.inf or self.support_function(-e, ctx) == math.inf:
                return False
        return True

    def an_element(self, ctx=None) -> np.ndarray:
        ctx = resolve_tolerance(ctx)
        if not self.constraints:
            return np.zeros(self.dim)
        point = feasible_point(self._lp_constraints(), ctx)
        if point is None:
            raise EmptySetError("an_element of an empty polyhedron")
        return point

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        ctx = resolve_tolerance(ctx)
        if self.dim > 2:
            raise UnsupportedOperationError(
                "vertex enumeration of H-representations is only implemented for dimension <= 2"
            )
        if not self.is_bounded(ctx):
            raise UnboundedSetError("vertex enumeration of an unbounded polyhedron")
        if self.dim == 1:
            (hi,), (lo,) = _axis_extents(self, ctx, "enumerate")
            if lo > hi + ctx.atol:
                raise EmptySetError("vertex enumeration of an empty polyhedron")
            return [np.array([lo])] if hi - lo <= ctx.atol else [np.array([lo]), np.array([hi])]
        verts = _hrep_vertices_2d(self.constraints, ctx)
        if verts is None:
            raise EmptySetError("vertex enumeration of an empty polyhedron")
        return [row for row in verts]

    def translate(self, v) -> "HPolyhedron":
        v = _as_vector(v, self.dim, "shift")
        return type(self)([c.translate(v) for c in self.constraints], dim=self.dim)


class HPolytope(HPolyhedron):
    """H-representation polytope; carries the promise of boundedness."""


def _point_constraints_2d(p: np.ndarray) -> list[HalfSpace]:
    out = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        out.append(HalfSpace(e.copy(), float(p[i])))
        out.append(HalfSpace(-e, -float(p[i])))
    return out


def _segment_constraints_2d(a: np.ndarray, b: np.ndarray) -> list[HalfSpace]:
    u = b - a
    n = np.array([-u[1], u[0]])
    return [
        HalfSpace(u, float(u @ b)),
        HalfSpace(-u, -float(u @ a)),
        HalfSpace(n, float(n @ a)),
        HalfSpace(-n, -float(n @ a)),
    ]


def _normals_bound_2d(constraints) -> bool:
    """Whether nonempty regions cut out by these 2-D half-planes are bounded:
    no cyclic gap between the unit normals, sorted by angle, reaches pi.  A
    gap over 90 degrees is read from its sine (the cross product), up to the
    rounding of the normalization, so antiparallel normals make a gap of pi."""
    if not constraints:
        return False
    U = np.array([c.normal for c in constraints])
    theta = np.arctan2(U[:, 1], U[:, 0])
    order = np.argsort(theta)
    U = U[order] / np.linalg.norm(U[order], axis=1)[:, None]
    V = np.roll(U, -1, axis=0)
    gap = np.diff(theta[order], append=theta[order[0]] + 2.0 * math.pi)
    sine = U[:, 0] * V[:, 1] - U[:, 1] * V[:, 0]
    return not np.any(np.where((U * V).sum(axis=1) < 0.0, sine <= 1e-14, gap > math.pi))


def _hrep_vertices_2d(constraints, ctx: ToleranceContext) -> np.ndarray | None:
    """Vertices of a bounded 2-D H-representation.

    Intersects every constraint pair, keeps the feasible points, and hulls
    them, so redundant constraints do not change the outcome.  Returns None
    for an empty region.
    """
    A = np.array([c.normal for c in constraints], dtype=float).reshape(-1, 2)
    b = np.array([c.offset for c in constraints], dtype=float)
    i, j = np.triu_indices(len(b), 1)
    a1, a2, b1, b2 = A[i], A[j], b[i], b[j]
    det = a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0]
    keep = np.abs(det) > 1e-14 * np.maximum(1.0, np.abs(a1).max(axis=1) * np.abs(a2).max(axis=1))
    a1, a2, b1, b2, det = a1[keep], a2[keep], b1[keep], b2[keep], det[keep]
    P = np.stack(((b1 * a2[:, 1] - b2 * a1[:, 1]) / det, (a1[:, 0] * b2 - a2[:, 0] * b1) / det), axis=1)
    # The (pairs x m) feasibility test runs in blocks of at most 8
    # constraints spread through the list, each on the points that passed
    # the blocks before: the same verdicts, with most entries never computed.
    # The slack is 10 atol: at 1 atol, rounding drops true vertices of thin regions.
    loose = ToleranceContext(10.0 * ctx.atol)
    k = -(-len(b) // 8)
    for s in range(k):
        P = P[np.all(within(P[:, :1] * A[s::k, 0] + P[:, 1:] * A[s::k, 1], b[s::k], A[s::k], loose), axis=1)]
    return _convex_hull_2d(P) if len(P) else None


class VPolygon(ConcreteSet):
    """Two-dimensional polytope as a counter-clockwise vertex list.

    The constructor canonicalizes: duplicate points are merged, the convex
    hull is taken, collinear points dropped, and the cycle starts at the
    lexicographically smallest vertex.
    """

    def __init__(self, vertices):
        pts = np.array(list(vertices), dtype=float)
        if pts.size == 0:
            self.vertices = np.zeros((0, 2))
        else:
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise DimensionMismatchError("polygon vertices must be 2-D points")
            if not np.all(np.isfinite(pts)):
                raise ValueError("polygon vertices must be finite")
            self.vertices = _convex_hull_2d(pts)
        self.vertices.flags.writeable = False

    @property
    def dim(self) -> int:
        return 2

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self):
        return f"VPolygon({self.vertices.tolist()})"

    def __eq__(self, other):
        return isinstance(other, VPolygon) and np.array_equal(self.vertices, other.vertices)

    __hash__ = None

    def _require_nonempty(self):
        if self.num_vertices == 0:
            raise EmptySetError("operation on an empty polygon")

    def _support_batch(self, D, ctx, vectors):
        self._require_nonempty()
        return _vertex_support(self.vertices, D, vectors)

    def contains(self, x, ctx=None) -> bool:
        # atol is a distance: from the segment when there are one or two
        # vertices, else from each edge's line (the cross product over the
        # edge length).  Python floats: k is small and most calls exit early.
        ctx = resolve_tolerance(ctx)
        px, py = _as_vector(x, 2, "point").tolist()
        V = self.vertices.tolist()
        if not V:
            return False
        if len(V) <= 2:
            (ax, ay), (bx, by) = V[0], V[-1]
            ex, ey = bx - ax, by - ay
            t = min(1.0, max(0.0, ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey))) if len(V) == 2 else 0.0
            return math.hypot(px - ax - t * ex, py - ay - t * ey) <= ctx.atol
        for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -ctx.atol * math.hypot(bx - ax, by - ay):
                return False
        return True

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        return [row for row in self.vertices]

    def constraints_list(self, ctx=None) -> list[HalfSpace]:
        from .errors import DegeneratePolygonError

        k = self.num_vertices
        if k < 3:
            raise DegeneratePolygonError(
                f"polygon with {k} vertices is degenerate (collinear); no H-representation"
            )
        out = []
        for i in range(k):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % k]
            edge = b - a
            normal = np.array([edge[1], -edge[0]])
            out.append(HalfSpace(normal, float(normal @ a)))
        return out

    def is_bounded(self, ctx=None) -> bool:
        return True

    def an_element(self, ctx=None) -> np.ndarray:
        self._require_nonempty()
        return self.vertices[0]

    def translate(self, v) -> "VPolygon":
        v = _as_vector(v, 2, "shift")
        return VPolygon(self.vertices + v)

    def area(self) -> float:
        """Shoelace area (zero for degenerate polygons)."""
        k = self.num_vertices
        if k < 3:
            return 0.0
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        return 0.5 * float(np.abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


class VPolytope(ConcreteSet):
    """Polytope as the convex hull of a stored point list (any dimension)."""

    def __init__(self, vertices):
        pts = np.array(list(vertices), dtype=float)
        if pts.size == 0:
            raise ValueError("VPolytope needs at least one vertex")
        if pts.ndim != 2:
            raise DimensionMismatchError("vertices must be a list of equal-length points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("vertices must be finite")
        # Drop exact duplicates, keeping first occurrences.
        seen = set()
        rows = []
        for row in pts:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        self.vertices = np.array(rows)
        self.vertices.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __repr__(self):
        return f"VPolytope({self.vertices.tolist()})"

    def __eq__(self, other):
        return isinstance(other, VPolytope) and np.array_equal(self.vertices, other.vertices)

    __hash__ = None

    def _support_batch(self, D, ctx, vectors):
        return _vertex_support(self.vertices, D, vectors)

    def contains(self, x, ctx=None) -> bool:
        # x is a convex combination of the vertices: lambda >= 0, sum = 1,
        # V^T lambda = x, checked as LP feasibility.
        ctx = resolve_tolerance(ctx)
        x = _as_vector(x, self.dim, "point")
        k = self.vertices.shape[0]
        eye = np.eye(k)
        ones = np.ones(k)
        constraints = [(-eye[i], 0.0) for i in range(k)]
        constraints.append((ones, 1.0 + ctx.atol))
        constraints.append((-ones, -1.0 + ctx.atol))
        for i in range(self.dim):
            col = self.vertices[:, i]
            constraints.append((col, float(x[i]) + ctx.atol))
            constraints.append((-col, -float(x[i]) + ctx.atol))
        return is_feasible(constraints, ctx)

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        if self.dim == 2:
            return [row for row in _convex_hull_2d(self.vertices)]
        return [row for row in self.vertices]

    def constraints_list(self, ctx=None) -> list[HalfSpace]:
        if self.dim != 2:
            raise UnsupportedOperationError(
                "constraint lists of V-polytopes are only implemented in dimension 2"
            )
        return VPolygon(self.vertices).constraints_list(ctx)

    def is_bounded(self, ctx=None) -> bool:
        return True

    def an_element(self, ctx=None) -> np.ndarray:
        return self.vertices[0]

    def translate(self, v) -> "VPolytope":
        v = _as_vector(v, self.dim, "shift")
        return VPolytope(self.vertices + v)


# ---------------------------------------------------------------------------
# Module-level operation surface (thin wrappers over the method protocol).


def dim(X: ConvexSet) -> int:
    return X.dim


def support_function(d, X: ConvexSet, ctx: ToleranceContext | None = None) -> float:
    return X.support_function(d, ctx)


def support_vector(d, X: ConvexSet, ctx: ToleranceContext | None = None) -> np.ndarray:
    return X.support_vector(d, ctx)


def membership(x, X: ConvexSet, ctx: ToleranceContext | None = None) -> bool:
    return X.contains(x, ctx)


def vertices_list(X: ConcreteSet, ctx: ToleranceContext | None = None) -> list[np.ndarray]:
    return X.vertices_list(ctx)


def constraints_list(X: ConcreteSet, ctx: ToleranceContext | None = None) -> list[HalfSpace]:
    return X.constraints_list(ctx)


def volume(X: ConcreteSet) -> float:
    return X.volume()


def is_bounded(X: ConcreteSet, ctx: ToleranceContext | None = None) -> bool:
    return X.is_bounded(ctx)


def an_element(X: ConcreteSet, ctx: ToleranceContext | None = None) -> np.ndarray:
    return X.an_element(ctx)


def sample(X: ConcreteSet, k: int, seed: int, ctx: ToleranceContext | None = None) -> list[np.ndarray]:
    """Draw k members of X by rejection from its bounding box.

    Budget of 1e6 draws per point; exceeding it (or an empty/unbounded X)
    raises.
    """
    ctx = resolve_tolerance(ctx)
    if k < 0:
        raise ValueError("sample count must be nonnegative")
    hi, lo = _axis_extents(X, ctx, "sample from")
    rng = np.random.default_rng(seed)
    out = []
    budget = 10 ** 6
    for _ in range(k):
        for _attempt in range(budget):
            x = rng.uniform(lo, hi)
            if X.contains(x, ctx):
                out.append(x)
                break
        else:
            raise SamplingBudgetError(
                f"rejection sampling exhausted {budget} draws for one point"
            )
    return out
