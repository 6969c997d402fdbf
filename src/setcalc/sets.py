"""Concrete convex-set representations and their analytic queries.

Each set type stores exactly its defining parameters (immutable numpy
arrays) and answers queries through a shared method protocol: support
function/vector, membership, vertex and constraint lists, boundedness,
volume, sampling.  Support values use the convention

    rho(d, X) = max { d . x : x in X }

with analytic formulas where the representation allows (boxes, zonotopes,
vertex lists, bounded 2-D half-space representations through their
vertices) and an LP fallback for other half-space representations.  Unbounded
support directions yield ``math.inf``; querying a support *vector* there
raises instead.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from .errors import (
    DegeneratePolygonError,
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

# Hard caps on the exponential enumerations: box corners (2^n) and the
# (n-1)-subsets of generators whose normals are candidate zonotope facets.
_ENUM_CAP = 16
_NORMALS_CAP = 4096


def _finite_sum(entries: list) -> bool:
    # A finite sum proves every entry finite: an infinite or NaN entry makes
    # the sum infinite or NaN.  Python floats overflow to inf without the
    # RuntimeWarning a numpy sum raises, so finite entries past the float
    # range only leave the verdict to the caller's elementwise check.
    return math.isfinite(sum(entries))


def _as_vector(value, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.array(value, dtype=float).reshape(-1)
    if not _finite_sum(v.tolist()) and not np.all(np.isfinite(v)):
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
    if not _finite_sum(d.tolist()) and not np.all(np.isfinite(d)):
        raise ValueError("direction must have finite entries")
    return d


def _axis_directions(n: int) -> np.ndarray:
    """The 2n rows ``e_1, ..., e_n, -e_1, ..., -e_n``."""
    return np.concatenate((np.eye(n), -np.eye(n)))


def _axis_extents(X, ctx, purpose: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis maximum and minimum of X, from one batched query on ``[I; -I]``."""
    n = X.dim
    values, _ = X._support_batch(_axis_directions(n), ctx, False)
    if not np.all(np.isfinite(values)):
        raise UnboundedSetError(f"cannot {purpose} an unbounded set")
    return values[:n], -values[n:]


def _zonotope_normals(G: np.ndarray) -> np.ndarray | None:
    """Candidate facet normals of a zonotope with the n x m generator matrix G.

    One row per (n-1)-subset of G's columns whose generalized cross product
    is nonzero: entry i is (-1)^i times the minor of the subset without row
    i, one batched determinant for all of them.  In 2-D the rows are the
    generators turned by a quarter, in 1-D the single normal 1.  None where
    there are more than ``_NORMALS_CAP`` subsets.
    """
    n, m = G.shape
    if math.comb(m, n - 1) > _NORMALS_CAP:
        return None
    subsets = list(itertools.combinations(range(m), n - 1))
    subsets = np.array(subsets, dtype=int).reshape(len(subsets), n - 1)
    rows = np.array([np.delete(np.arange(n), i) for i in range(n)], dtype=int).reshape(n, n - 1)
    N = np.linalg.det(G[rows[None, :, :, None], subsets[:, None, None, :]]) * (-1.0) ** np.arange(n)
    return N[(N != 0.0).any(axis=1)]


def _convex_hull_2d(points: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Counter-clockwise convex hull (monotone chain), dropping collinear
    points; starts at the lexicographically smallest vertex.

    ``eps`` is a distance: points within it of a kept point merge, and a
    point within it of the chord past it is dropped as collinear if it
    projects onto the chord (else it stays, so the hull contains every
    point).  It defaults to the ambient absolute tolerance.
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
                if cross > 0.0 and (cross * cross > eps2 * (dd := dx * dx + dy * dy) or not 0.0 <= (ax - ox) * dx + (ay - oy) * dy <= dd):
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

    def _hrep(self, ctx) -> tuple[np.ndarray, np.ndarray]:
        """``(A, b)`` with the set equal to ``{x : A x <= b}``."""
        raise UnsupportedOperationError(
            f"constraints_list is not supported for {type(self).__name__}"
        )

    def constraints_list(self, ctx: ToleranceContext | None = None) -> list["HalfSpace"]:
        return [HalfSpace(a, c) for a, c in zip(*self._hrep(ctx))]

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
        if not np.count_nonzero(self.normal):
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

    def _hrep(self, ctx):
        return self.normal[None], np.array([self.offset])

    def is_bounded(self, ctx=None) -> bool:
        return False


class Hyperplane(_FlatSet):
    """The region ``{x : normal . x = offset}``."""

    _name, _one_sided = "hyperplane", False

    def _hrep(self, ctx):
        return np.array([self.normal, -self.normal]), np.array([self.offset, -self.offset])

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

    def _hrep(self, ctx):
        # Rows e_i <= high_i and -e_i <= -low_i, interleaved by axis.
        n = self.dim
        A, b = np.empty((2 * n, n)), np.empty(2 * n)
        A[0::2], A[1::2] = np.eye(n), -np.eye(n)
        b[0::2], b[1::2] = self.high, -self.low
        return A, b

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
        if (radius < 0.0).any():
            raise ValueError("radius entries must be nonnegative")
        self._radius = radius

    @classmethod
    def _from_arrays(cls, center, radius) -> "Hyperrectangle":
        """The box of a float center and radius of one shape, which it keeps
        and freezes instead of copying: pass arrays no one else writes.  The
        constructor's checks stay: finite entries (a midpoint may overflow)
        and a nonnegative radius."""
        radii = radius.tolist()
        if not _finite_sum(center.tolist()) or not _finite_sum(radii):
            # A sum past the float range or an entry that is not finite: the
            # constructor's checks decide.
            _as_vector(center, name="center")
            _as_vector(radius, name="radius")
        if min(radii, default=0.0) < 0.0:  # cheaper than numpy's min on small boxes
            raise ValueError("radius entries must be nonnegative")
        center.setflags(write=False)
        radius.setflags(write=False)
        box = object.__new__(cls)
        box.__dict__["center"], box.__dict__["_radius"] = center, radius
        return box

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
        return Hyperrectangle._from_arrays(self.center + v, self._radius)


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

    @cached_property
    def _facets(self):
        # (N, h): candidate facet normals and the half-widths sum_i |N g_i|
        # along them; None where they do not decide membership, that is
        # generators of rank < n or more subsets than _NORMALS_CAP.
        G = self.generators
        N = _zonotope_normals(G) if np.linalg.matrix_rank(G) == self.dim else None
        return None if N is None else (N, np.abs(N.dot(G)).sum(axis=1))

    def contains(self, x, ctx=None) -> bool:
        # With generators of full rank, x is a member iff |N (x - c)| <= h
        # along every facet normal (Althoff, Stursberg and Buss, 2010), each
        # row within atol as a distance; otherwise feasibility of
        # G xi = x - c with xi in [-1, 1]^m, within atol per coordinate.
        x = _as_vector(x, self.dim, "point")
        m = self.num_generators
        rhs = x - self.center
        if m == 0:
            return bool(np.all(np.abs(rhs) <= resolve_tolerance(ctx).atol))
        if self._facets is not None:
            N, h = self._facets
            return bool(np.all(within(np.abs(N.dot(rhs)), h, N, ctx)))
        ctx = resolve_tolerance(ctx)
        eye, G = np.eye(m), self.generators
        offsets = np.concatenate((np.ones(2 * m), rhs + ctx.atol, ctx.atol - rhs))
        return solve_lp(LinearProgram(np.zeros(m), np.vstack((eye, -eye, G, -G)), offsets), ctx).status is LpStatus.OPTIMAL

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

    def _hrep(self, ctx):
        if self.dim > 2:
            raise UnsupportedOperationError(
                "zonotope constraint lists are only implemented for dimension <= 2"
            )
        verts = self.vertices_list(ctx)
        if self.dim == 1:
            return np.array([[1.0], [-1.0]]), np.array([verts[-1][0], -verts[0][0]])
        if len(verts) == 1:
            return Hyperrectangle(verts[0], np.zeros(2))._hrep(ctx)
        if len(verts) == 2:
            return _segment_hrep_2d(verts[0], verts[1])
        return VPolygon._from_hull(verts)._hrep(ctx)

    def is_bounded(self, ctx=None) -> bool:
        return True

    def an_element(self, ctx=None) -> np.ndarray:
        return self.center

    def translate(self, v) -> "Zonotope":
        v = _as_vector(v, self.dim, "shift")
        return Zonotope(self.center + v, self.generators)


class HPolyhedron(ConcreteSet):
    """Finite intersection of half-spaces ``{x : A x <= b}``; possibly unbounded
    or empty.  Queries read the read-only arrays ``A`` (m x n, the normals) and
    ``b`` (m, the offsets); ``constraints`` views the same rows as a tuple of
    :class:`HalfSpace`, built on first read (or kept from the constructor)."""

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
        A = np.array([c.normal for c in constraints], dtype=float).reshape(len(constraints), n)
        b = np.array([c.offset for c in constraints], dtype=float)
        A.flags.writeable = b.flags.writeable = False
        self.A, self.b, self._constraints = A, b, constraints

    @classmethod
    def _from_arrays(cls, A, b) -> "HPolyhedron":
        """``{x : A x <= b}`` from copies of an (m, n) matrix and an m-vector, with the
        constructor's checks on the rows; zero rows make the whole space R^n."""
        A, b = np.array(A, dtype=float), np.array(b, dtype=float)
        if A.ndim != 2 and A.size == 0:
            raise ValueError("an unconstrained polyhedron needs an explicit dim")
        if A.ndim != 2 or b.shape != A.shape[:1]:
            raise DimensionMismatchError(f"normals of shape {A.shape} do not match offsets of shape {b.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("normal must have finite entries")
        if not A.any(axis=1).all():
            raise ValueError("half-space normal must be nonzero")
        A.flags.writeable = b.flags.writeable = False
        return cls._build(A, b)

    @classmethod
    def _build(cls, A, b) -> "HPolyhedron":
        """``{x : A x <= b}`` sharing read-only arrays that already pass the
        checks of :meth:`_from_arrays`; checks nothing itself."""
        P = object.__new__(cls)
        P.__dict__.update(A=A, b=b, _constraints=None)
        return P

    def __reduce__(self):
        return type(self)._from_arrays, (self.A, self.b)

    @property
    def constraints(self) -> tuple[HalfSpace, ...]:
        if self._constraints is None:
            self.__dict__["_constraints"] = tuple(HalfSpace(a, c) for a, c in zip(self.A, self.b))
        return self._constraints

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.constraints)!r})"

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b)

    __hash__ = None

    def _hrep(self, ctx):
        return self.A, self.b

    def _polygon_vertices(self, ctx) -> np.ndarray | None:
        """In 2-D, where the normals bound the region, its vertices from one
        angle sweep of the constraints (:func:`_hpolygon_2d`; no vertex:
        ``EmptySetError``).  Otherwise None."""
        if self.dim == 2:
            bounded, vertices = _hpolygon_2d(self.A, self.b, resolve_tolerance(ctx))
            if bounded:
                if vertices is None:
                    raise EmptySetError("the polyhedron is empty")
                return vertices
        return None

    def _support_batch(self, D, ctx, vectors):
        """Where :meth:`_polygon_vertices` gives the vertices, they answer
        every direction without an LP.  Otherwise one LP per direction yields
        the value and the maximizer."""
        if (vertices := self._polygon_vertices(ctx)) is not None:
            return _vertex_support(vertices, D, vectors)
        values, points = np.empty(len(D)), np.empty(D.shape)
        for i, d in enumerate(D):
            outcome = solve_lp(LinearProgram(d, self.A, self.b), ctx)
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
        return bool(np.all(within(self.A.dot(x), self.b, self.A, ctx)))

    def _is_empty(self, ctx) -> bool:
        """Emptiness: in 2-D, where the normals bound the region, by the same
        angle sweep as its vertices (a point within 10 atol of every
        constraint counts); otherwise by a feasibility LP."""
        try:
            if self._polygon_vertices(ctx) is not None:
                return False
        except EmptySetError:
            return True
        return not is_feasible(self.A, self.b, ctx)

    def is_bounded(self, ctx=None) -> bool:
        """Whether the normals bound the region (:func:`_normals_bound`; in 2-D
        read from the sweep of :meth:`_polygon_vertices`); it must be nonempty."""
        if self._polygon_vertices(ctx) is not None:
            return True
        if not is_feasible(self.A, self.b, ctx):
            raise EmptySetError("is_bounded of an empty polyhedron")
        return self.dim != 2 and _normals_bound(self.A)

    def an_element(self, ctx=None) -> np.ndarray:
        point = feasible_point(self.A, self.b, ctx)
        if point is None:
            raise EmptySetError("an_element of an empty polyhedron")
        return point

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        """Vertices of a bounded region of dimension <= 2.  In 2-D, normals
        that bound the region give them without an LP (no vertex:
        ``EmptySetError``); otherwise a feasibility LP tells an empty region
        (``EmptySetError``) from an unbounded one (``UnboundedSetError``)."""
        ctx = resolve_tolerance(ctx)
        if self.dim > 2:
            raise UnsupportedOperationError(
                "vertex enumeration of H-representations is only implemented for dimension <= 2"
            )
        if (vertices := self._polygon_vertices(ctx)) is not None:
            return list(vertices)
        if self.dim == 2:
            if not is_feasible(self.A, self.b, ctx):
                raise EmptySetError("vertex enumeration of an empty polyhedron")
            raise UnboundedSetError("vertex enumeration of an unbounded polyhedron")
        if not self.is_bounded(ctx):
            raise UnboundedSetError("vertex enumeration of an unbounded polyhedron")
        (hi,), (lo,) = _axis_extents(self, ctx, "enumerate")
        if lo > hi + ctx.atol:
            raise EmptySetError("vertex enumeration of an empty polyhedron")
        return [np.array([lo])] if hi - lo <= ctx.atol else [np.array([lo]), np.array([hi])]

    def translate(self, v) -> "HPolyhedron":
        v = _as_vector(v, self.dim, "shift")
        return type(self)._from_arrays(self.A, self.b + _row_products(self.A, v))


class HPolytope(HPolyhedron):
    """H-representation polytope; carries the promise of boundedness."""


def _segment_hrep_2d(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = b - a
    n = np.array([-u[1], u[0]])
    return np.array([u, -u, n, -n]), np.array([u @ b, -(u @ a), n @ a, -(n @ a)])


def _row_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[i] @ B`` for every row of A, each rounded as that row's own product
    (``A @ B`` may round differently), so rows match per-row construction."""
    return np.matmul(A[:, None, :], B)[:, 0]


def _normal_angles(U: np.ndarray) -> np.ndarray:
    # + 0.0 turns a -0.0 component into +0.0, so no normal reads -pi.
    return np.arctan2(U[:, 1] + 0.0, U[:, 0])


def _gap_rule(U: np.ndarray, theta: list) -> tuple[int, bool]:
    """For 2-D normals U sorted by their angles theta (a list): the index of
    the first normal after the largest cyclic gap (ties go to the gap that
    wraps around, then to the first), and whether no gap reaches pi, so that
    nonempty regions ``{x : U x <= b}`` are bounded.  Where the largest gap
    is within 1e-9 of pi, a gap over 90 degrees is read from its sine, up to
    the rounding of the normalization, so antiparallel normals make pi."""
    k, largest = 0, theta[0] + 2.0 * math.pi - theta[-1]  # gap k ends at normal k
    for i in range(1, len(theta)):
        if theta[i] - theta[i - 1] > largest:
            k, largest = i, theta[i] - theta[i - 1]
    if abs(largest - math.pi) > 1e-9:
        return k, largest < math.pi
    gap = np.concatenate(([theta[0] + 2.0 * math.pi - theta[-1]], np.diff(theta)))
    V = U / np.hypot(U[:, 0], U[:, 1])[:, None]
    W = np.concatenate((V[-1:], V[:-1]))
    sine = W[:, 0] * V[:, 1] - W[:, 1] * V[:, 0]
    return k, not np.where((W * V).sum(axis=1) < 0.0, sine <= 1e-14, gap > math.pi).any()


def _normals_bound(U: np.ndarray) -> bool:
    """Whether the rows of U positively span the space, so that nonempty
    regions ``{x : U x <= b}`` are bounded.  In 2-D by the gap rule of the
    normals sorted by angle (:func:`_gap_rule`, as the H-polygon kernel);
    otherwise exactly when U has rank n and no x has ``U x <= 0`` with
    ``U x != 0`` (Farkas: some y > 0 has ``U^T y = 0``).  One LP tells:
    ``-(sum of the rows) . x`` is bounded over that cone, which holds the
    origin, so the LP needs no phase 1."""
    if U.shape[1] == 2:
        theta = _normal_angles(U)
        order = np.argsort(theta, kind="stable")
        return len(U) > 0 and _gap_rule(U[order], theta[order].tolist())[1]
    if np.linalg.matrix_rank(U) < U.shape[1]:
        return False
    return solve_lp(LinearProgram(-U.sum(axis=0), U, np.zeros(len(U)))).status is LpStatus.OPTIMAL


_hpolygon_kernel = None


def _hpolygon_2d(A: np.ndarray, b: np.ndarray, ctx: ToleranceContext) -> tuple[bool, np.ndarray | None]:
    """Boundedness and vertices of the 2-D region ``{x : A x <= b}``: see
    :func:`setcalc.hpolygon.hpolygon_2d`.  That module is imported on first
    use, so only processes that query 2-D H-polygons compile it."""
    global _hpolygon_kernel
    if _hpolygon_kernel is None:
        from .hpolygon import hpolygon_2d as _hpolygon_kernel
    return _hpolygon_kernel(A, b, ctx)


def _axes_overlap(X, NX, Y, NY, ctx) -> bool:
    """Whether the nonempty bounded 2-D polytopes X and Y, with separating
    axes NX and NY (edge normals; none for a point), share a point up to
    atol: iff on every axis u, with both signs (two points: their
    difference), ``rho(u, X) + rho(-u, Y) >= -atol |u|`` (Gottschalk, Lin
    and Manocha, "OBBTree", 1996)."""
    U = np.concatenate((NX, NY)) if len(NX) + len(NY) else (X.an_element() - Y.an_element())[None]
    D = np.concatenate((U, -U))
    return bool(np.all(within(-Y._support_batch(-D, ctx, False)[0], X._support_batch(D, ctx, False)[0], D, ctx)))


class VPolygon(ConcreteSet):
    """Two-dimensional polytope as a counter-clockwise vertex list.

    The constructor canonicalizes: duplicate points are merged, the convex
    hull is taken, and the cycle starts at the lexicographically smallest
    vertex.  Collinear points are dropped, but a near-collinear extreme
    point (one beyond the ends of the chord it is near) stays a vertex.
    """

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.size == 0:
            self.vertices = np.zeros((0, 2))
        else:
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise DimensionMismatchError("polygon vertices must be 2-D points")
            if not np.all(np.isfinite(pts)):
                raise ValueError("polygon vertices must be finite")
            self.vertices = _convex_hull_2d(pts)
        self.vertices.flags.writeable = False

    @classmethod
    def _from_hull(cls, vertices) -> "VPolygon":
        # Vertices that _convex_hull_2d returned: no second hull.
        P = object.__new__(cls)
        P.vertices = np.array(vertices, dtype=float).reshape(-1, 2)
        P.vertices.flags.writeable = False
        return P

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
        # The separating-axis rule of is_disjoint for the point and the
        # polygon (:func:`_axes_overlap`), so both read the same verdict.
        ctx = resolve_tolerance(ctx)
        P = VPolygon._from_hull(_as_vector(x, 2, "point"))
        return self.num_vertices > 0 and _axes_overlap(P, P.vertices[:0], self, self._axes(), ctx)

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        return [row for row in self.vertices]

    def _axes(self) -> np.ndarray:
        """The separating axes: the outward edge normals, a segment's
        direction and normal (:func:`_segment_hrep_2d`), none for a point."""
        V = self.vertices
        if len(V) > 2:
            # Each edge to the next vertex, turned a quarter clockwise.
            return (np.concatenate((V[1:], V[:1])) - V)[:, ::-1] * [1.0, -1.0]
        return _segment_hrep_2d(*V)[0] if len(V) == 2 else V[:0]

    def _hrep(self, ctx):
        k = self.num_vertices
        if k < 3:
            raise DegeneratePolygonError(
                f"polygon with {k} vertices is degenerate (collinear); no H-representation"
            )
        N = self._axes()
        return N, np.matmul(N[:, None, :], self.vertices[:, :, None])[:, 0, 0]

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
        V = self.vertices
        (x, y), (x1, y1) = V.T, np.concatenate((V[1:], V[:1])).T
        return 0.5 * float(np.abs(np.sum(x * y1 - x1 * y)))


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
        # In 2-D the polygon's rule, atol a distance; else V^T lambda = x with
        # lambda >= 0, sum 1, within atol per coordinate.  These LPs (here and in
        # Zonotope.contains) keep their rows: is_feasible's unit rows would
        # scale each coordinate's atol by the norm of its row of V (or G).
        if self.dim == 2:
            return VPolygon(self.vertices).contains(x, ctx)
        ctx = resolve_tolerance(ctx)
        x = _as_vector(x, self.dim, "point")
        k, V = self.vertices.shape[0], self.vertices.T
        normals = np.vstack((-np.eye(k), np.ones(k), -np.ones(k), V, -V))
        offsets = np.concatenate((np.zeros(k), [1.0 + ctx.atol, ctx.atol - 1.0], x + ctx.atol, ctx.atol - x))
        return solve_lp(LinearProgram(np.zeros(k), normals, offsets), ctx).status is LpStatus.OPTIMAL

    def vertices_list(self, ctx=None) -> list[np.ndarray]:
        if self.dim == 2:
            return [row for row in _convex_hull_2d(self.vertices)]
        return [row for row in self.vertices]

    def _hrep(self, ctx):
        if self.dim != 2:
            raise UnsupportedOperationError(
                "constraint lists of V-polytopes are only implemented in dimension 2"
            )
        return VPolygon(self.vertices)._hrep(ctx)

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
