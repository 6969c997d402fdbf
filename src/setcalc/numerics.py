"""Floating-point comparison policy and a dense two-phase simplex LP solver.

Every approximate comparison in the library reads ``atol``, a distance, from a
:class:`ToleranceContext`; every half-space slack test goes through
:func:`within`.  A process-wide immutable default is installed at import time;
callers either pass a context explicitly or rely on the default.
The solver handles ``max c.x  s.t.  A x <= b`` with free variables, which is
the only LP shape the geometry needs (emptiness checks, polyhedral support
values, zonotope membership, zonotope fitting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError

# Unitless thresholds, unrelated to atol.
_PIVOT_EPS = 1e-10  # simplex pivots
_PARALLEL_EPS = 1e-8  # a direction parallel to a flat set's normal
_ZERO_OBJECTIVE_EPS = 1e-8  # an LP objective that is zero


@dataclass(frozen=True)
class ToleranceContext:
    """The absolute tolerance ``atol``, read as a Euclidean distance.

    A point within ``atol`` of a half-space (see :func:`within`), or of every
    edge of a polygon, counts as its member; scalars within ``atol`` of each
    other are equal.  Instances are immutable.
    """

    atol: float = 1e-8

    def __post_init__(self):
        value = float(self.atol)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"atol must be finite and nonnegative, got {value!r}")
        object.__setattr__(self, "atol", value)


_DEFAULT_CONTEXT = ToleranceContext()


def default_tolerance() -> ToleranceContext:
    """Return the process-wide default tolerance context."""
    return _DEFAULT_CONTEXT


def set_default_tolerance(ctx: ToleranceContext) -> None:
    """Install a new process-wide default.

    Meant to be called once, before any set computation starts; the library
    never mutates the default itself.
    """
    global _DEFAULT_CONTEXT
    if not isinstance(ctx, ToleranceContext):
        raise TypeError("expected a ToleranceContext")
    _DEFAULT_CONTEXT = ctx


def resolve_tolerance(ctx: ToleranceContext | None) -> ToleranceContext:
    return _DEFAULT_CONTEXT if ctx is None else ctx


def approx_eq(a: float, b: float, ctx: ToleranceContext | None = None) -> bool:
    """Tolerance-aware scalar equality: ``a == b`` or ``|a - b| <= atol``."""
    return a == b or abs(a - b) <= resolve_tolerance(ctx).atol


def within(values, offsets, normals, ctx: ToleranceContext | None = None):
    """Elementwise ``values <= offsets + atol * norm(normals)``.

    With ``values = normals . x`` this holds where x lies within ``atol`` of
    the half-space ``normals . x <= offsets``, whatever the scale of the
    normal.  ``normals`` is an array of one normal, or one normal per row,
    broadcast against ``values`` and ``offsets``.
    """
    return values <= offsets + resolve_tolerance(ctx).atol * np.sqrt((normals * normals).sum(axis=-1))


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Result of :func:`solve_lp`; optimizer/optimum are set iff optimal."""

    status: LpStatus
    optimizer: np.ndarray | None = None
    optimum: float | None = None


class LinearProgram:
    """``max objective . x`` subject to ``normal_i . x <= offset_i``, x free.

    Constraints are given as ``(normal, offset)`` pairs over a common
    dimension n and stored stacked as an (m, n) matrix and an m-vector.
    """

    def __init__(self, objective, constraints):
        self.objective = np.asarray(objective, dtype=float).reshape(-1)
        n = self.objective.size
        if n < 1:
            raise ValueError("objective must have dimension >= 1")
        normals = []
        offsets = []
        for normal, offset in constraints:
            a = np.asarray(normal, dtype=float).reshape(-1)
            if a.size != n:
                raise DimensionMismatchError(
                    f"constraint normal has dimension {a.size}, objective has {n}"
                )
            normals.append(a)
            offsets.append(float(offset))
        self.normals = np.array(normals, dtype=float) if normals else np.zeros((0, n))
        self.offsets = np.asarray(offsets, dtype=float)

    @property
    def dim(self) -> int:
        return self.objective.size


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])


def _run_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Maximize ``cost . y`` on a canonical tableau, Bland's rule throughout.

    T is m x (N+1) with the rhs in the last column and basis columns forming
    an identity; returns "optimal" or "unbounded".  Bland's pivoting rule
    (lowest eligible index for both entering and leaving variable) guarantees
    termination on the small, possibly degenerate programs seen here.
    """
    m, width = T.shape
    ncols = width - 1
    while True:
        reduced = cost[basis] @ T[:, :ncols] - cost
        eligible = np.nonzero(reduced < -_PIVOT_EPS)[0]
        if eligible.size == 0:
            return "optimal"
        enter = int(eligible[0])
        column = T[:, enter]
        rows = np.nonzero(column > _PIVOT_EPS)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, ncols] / column[rows]
        best = np.min(ratios)
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(T, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram, ctx: ToleranceContext | None = None) -> LpOutcome:
    """Solve the LP with a dense two-phase simplex.

    Free variables are split into positive/negative parts; rows with a
    negative right-hand side get an artificial variable for phase 1.  An
    empty constraint list makes the program unbounded unless the objective
    is the zero vector, in which case the origin is reported optimal.
    """
    ctx = resolve_tolerance(ctx)
    n = lp.dim
    m = lp.offsets.size
    c = lp.objective

    if m == 0:
        if np.all(np.abs(c) <= _ZERO_OBJECTIVE_EPS):
            return LpOutcome(LpStatus.OPTIMAL, np.zeros(n), 0.0)
        return LpOutcome(LpStatus.UNBOUNDED)

    # Columns: x+ (n), x- (n), slacks (m), then artificials for rows with b < 0.
    nstruct = 2 * n + m
    body = np.hstack([lp.normals, -lp.normals, np.eye(m)])
    rhs = lp.offsets.copy()
    neg = rhs < 0.0
    body[neg] *= -1.0
    rhs[neg] *= -1.0

    art_rows = np.nonzero(neg)[0]
    nart = art_rows.size
    T = np.zeros((m, nstruct + nart + 1))
    T[:, :nstruct] = body
    T[:, -1] = rhs
    basis = np.arange(2 * n, 2 * n + m)
    for k, i in enumerate(art_rows):
        T[i, nstruct + k] = 1.0
        basis[i] = nstruct + k

    if nart > 0:
        phase1 = np.zeros(nstruct + nart)
        phase1[nstruct:] = -1.0
        _run_simplex(T, basis, phase1)
        residual = float(phase1[basis] @ T[:, -1])
        if residual < -max(ctx.atol, 1e-9):
            return LpOutcome(LpStatus.INFEASIBLE)
        # Pivot surviving artificials out of the basis, dropping rows that
        # turned out redundant, then cut the artificial columns.
        keep = np.ones(T.shape[0], dtype=bool)
        for i in range(T.shape[0]):
            if basis[i] >= nstruct:
                candidates = np.nonzero(np.abs(T[i, :nstruct]) > _PIVOT_EPS)[0]
                if candidates.size == 0:
                    keep[i] = False
                else:
                    _pivot(T, i, int(candidates[0]))
                    basis[i] = int(candidates[0])
        T = np.hstack([T[keep, :nstruct], T[keep, -1:]])
        basis = basis[keep]

    phase2 = np.zeros(T.shape[1] - 1)
    phase2[:n] = c
    phase2[n : 2 * n] = -c
    status = _run_simplex(T, basis, phase2)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    values = np.zeros(T.shape[1] - 1)
    values[basis] = T[:, -1]
    x = values[:n] - values[n : 2 * n]
    return LpOutcome(LpStatus.OPTIMAL, x, float(c @ x))


def feasible_point(constraints, ctx: ToleranceContext | None = None) -> np.ndarray | None:
    """Return a point satisfying all ``(normal, offset)`` constraints, or None.

    Constraints must share a common dimension; an empty list is feasible at
    the origin of the (then unknowable) ambient space and is rejected.
    """
    constraints = list(constraints)
    if not constraints:
        raise ValueError("feasible_point needs at least one constraint")
    lp = LinearProgram(np.zeros(np.asarray(constraints[0][0]).size), constraints)
    outcome = solve_lp(lp, ctx)
    if outcome.status is LpStatus.OPTIMAL:
        return outcome.optimizer
    return None


def is_feasible(constraints, ctx: ToleranceContext | None = None) -> bool:
    """Phase-1 feasibility of a list of ``(normal, offset)`` constraints."""
    return feasible_point(constraints, ctx) is not None
