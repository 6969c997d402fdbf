"""Univariate Taylor-model vectors and their zonotope/box enclosures.

A Taylor model is a polynomial plus an interval remainder over a domain; a
vector of them (sharing expansion point and domain) describes a tube of
trajectories.  The zonotope enclosure keeps the linear dependence on the
domain variable in one generator shared across components, which makes it
exact for linear models; the box enclosure evaluates each component's
range with interval arithmetic on the domain-recentered polynomial, so the
zonotope's bounding box is never wider than the box enclosure.

Interval arithmetic here runs in ordinary floating point; a slack of a few
ulps is folded into every remainder radius so that the enclosures stay
sound at the scales this library targets, without directed rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import DimensionMismatchError
from .sets import Hyperrectangle, Zonotope


def _interval(lo: float, hi: float) -> tuple[float, float]:
    if lo > hi:
        raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
    return (float(lo), float(hi))


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def interval_eval(p, J) -> tuple[float, float]:
    """Interval extension of the polynomial ``sum p_k t^k`` over J (Horner).

    Sound (contains the true range) but not tight: the Horner product loses
    the dependency between repeated occurrences of the variable.
    """
    coeffs = [float(c) for c in p]
    J = _interval(*J)
    if not coeffs:
        return (0.0, 0.0)
    acc = (coeffs[-1], coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = _iadd(_imul(acc, J), (c, c))
    return acc


@dataclass(frozen=True)
class TaylorModel1:
    """Polynomial coefficients, interval remainder, expansion point, domain.

    Represents ``{ p(t - x0) + r : t in D, r in remainder }``.
    """

    coefficients: tuple
    remainder: tuple
    expansion_point: float
    domain: tuple

    def __init__(self, coefficients, remainder, expansion_point, domain):
        coefficients = tuple(float(c) for c in coefficients)
        if not coefficients:
            raise ValueError("a Taylor model needs at least one coefficient")
        remainder = _interval(*remainder)
        domain = _interval(*domain)
        expansion_point = float(expansion_point)
        if not domain[0] <= expansion_point <= domain[1]:
            raise ValueError("the expansion point must lie in the domain")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "remainder", remainder)
        object.__setattr__(self, "expansion_point", expansion_point)
        object.__setattr__(self, "domain", domain)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def argument_range(self) -> tuple[float, float]:
        """The polynomial argument interval ``D - x0``."""
        return (
            self.domain[0] - self.expansion_point,
            self.domain[1] - self.expansion_point,
        )

    def evaluate(self, t: float) -> float:
        return float(npp.polyval(t - self.expansion_point, self.coefficients))


@dataclass(frozen=True)
class TaylorModelVector:
    """Components sharing one expansion point and domain."""

    components: tuple

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a Taylor model vector needs at least one component")
        first = components[0]
        for tm in components[1:]:
            if tm.domain != first.domain or tm.expansion_point != first.expansion_point:
                raise DimensionMismatchError(
                    "all components must share the domain and expansion point"
                )
        object.__setattr__(self, "components", components)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def domain(self) -> tuple[float, float]:
        return self.components[0].domain


def _recenter(coefficients, m: float) -> np.ndarray:
    """Coefficients of ``p(m + s)`` as a polynomial in s."""
    out = np.array([0.0])
    shift = np.array([m, 1.0])
    for c in reversed(coefficients):
        out = npp.polyadd(npp.polymul(out, shift), np.array([c]))
    return out


def _monomial_range(k: int, r: float) -> tuple[float, float]:
    # Exact range of s^k over the symmetric interval [-r, r].
    power = r ** k
    return (0.0, power) if k % 2 == 0 else (-power, power)


def _residual_range(q: np.ndarray, r: float) -> tuple[float, float]:
    """Range enclosure of ``sum_{k>=2} q_k s^k`` over ``[-r, r]``.

    Summing exact monomial ranges is tighter than interval Horner on a
    symmetric domain, which keeps the zonotope's box hull inside the plain
    interval evaluation used by the box enclosure.
    """
    lo = hi = 0.0
    for k in range(2, len(q)):
        mlo, mhi = _monomial_range(k, r)
        coeff = q[k]
        term = (coeff * mlo, coeff * mhi)
        lo += min(term)
        hi += max(term)
    return (lo, hi)


def _ulp_slack(scale: float) -> float:
    return 4.0 * float(np.spacing(max(1.0, abs(scale))))


def _split_arg_ranges(J: tuple[float, float], splits: int) -> list[tuple[float, float]]:
    edges = np.linspace(J[0], J[1], splits + 1)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(splits)]


def _zonotope_for_range(v: TaylorModelVector, J: tuple[float, float]) -> Zonotope:
    n = v.dim
    mid = 0.5 * (J[0] + J[1])
    rad = 0.5 * (J[1] - J[0])
    center = np.empty(n)
    shared = np.empty(n)
    axis = np.empty(n)
    for i, tm in enumerate(v.components):
        q = _recenter(tm.coefficients, mid)
        linear = q[1] if len(q) > 1 else 0.0
        res_lo, res_hi = _residual_range(q, rad)
        rem_lo, rem_hi = tm.remainder
        center[i] = q[0] + 0.5 * (rem_lo + rem_hi) + 0.5 * (res_lo + res_hi)
        shared[i] = linear * rad
        spread = 0.5 * (rem_hi - rem_lo) + 0.5 * (res_hi - res_lo)
        if spread > 0.0:
            spread += _ulp_slack(abs(center[i]) + abs(shared[i]) + spread)
        axis[i] = spread
    columns = []
    if np.any(shared != 0.0):
        columns.append(shared)
    for i in range(n):
        if axis[i] != 0.0:
            e = np.zeros(n)
            e[i] = axis[i]
            columns.append(e)
    G = np.array(columns).T if columns else np.zeros((n, 0))
    return Zonotope(center, G)


def _box_for_range(v: TaylorModelVector, J: tuple[float, float]) -> Hyperrectangle:
    # Interval evaluation over the recentered (symmetric) argument interval.
    # This centered Horner form soundly encloses the range and dominates the
    # zonotope's per-axis extent: Horner treats even powers of the symmetric
    # variable as sign-symmetric, while the zonotope's residual bound keeps
    # their exact one-sided ranges.
    n = v.dim
    mid = 0.5 * (J[0] + J[1])
    rad = 0.5 * (J[1] - J[0])
    center = np.empty(n)
    radius = np.empty(n)
    for i, tm in enumerate(v.components):
        q = _recenter(tm.coefficients, mid)
        lo, hi = interval_eval(q, (-rad, rad))
        lo += tm.remainder[0]
        hi += tm.remainder[1]
        center[i] = 0.5 * (lo + hi)
        radius[i] = 0.5 * (hi - lo)
        if radius[i] > 0.0:
            radius[i] += _ulp_slack(abs(center[i]) + radius[i])
    return Hyperrectangle._from_arrays(center, radius)


def tm_to_zonotope(v: TaylorModelVector, splits: int = 1):
    """Zonotope enclosure of a Taylor model vector.

    One generator shared across components carries the linear dependence on
    the domain variable (scaled by the domain radius after recentering at
    the domain midpoint); per-component generators absorb the remainders
    and the range of the nonlinear residual.  For models of degree <= 1 the
    enclosure is exact.

    With ``splits > 1`` the domain is partitioned into that many blocks and
    a list of per-block zonotopes is returned; their union is a tighter
    enclosure of the same tube.
    """
    splits = int(splits)
    if splits < 1:
        raise ValueError("splits must be >= 1")
    J = v.components[0].argument_range()
    if splits == 1:
        return _zonotope_for_range(v, J)
    return [_zonotope_for_range(v, block) for block in _split_arg_ranges(J, splits)]


def tm_to_box(v: TaylorModelVector, splits: int = 1):
    """Box enclosure: componentwise interval evaluation plus remainder.

    With ``splits > 1`` returns one box per domain block.
    """
    splits = int(splits)
    if splits < 1:
        raise ValueError("splits must be >= 1")
    J = v.components[0].argument_range()
    if splits == 1:
        return _box_for_range(v, J)
    return [_box_for_range(v, block) for block in _split_arg_ranges(J, splits)]
