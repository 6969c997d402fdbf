"""Vertices and boundedness of 2-D H-polygons from one sort by normal angle.

Each row of ``A x <= b`` is scaled once to a unit normal, so that the
determinant of two rows is the sine of their angle and a residual is a
distance, whatever the scale of the input.  The rows are sorted by the angle
of their normals; the largest angular gap decides boundedness, and one pass
over a deque keeps the lines that bound the region (the half-plane
intersection of de Berg, Cheong, van Kreveld and Overmars, *Computational
Geometry*, ch. 4 and 8) in O(m log m) for m rows.  The answer is, bit for
bit, that of intersecting every pair of unit rows and keeping the
intersections that pass the membership test (``tests/hrep_reference.py``).
:mod:`setcalc.sets` imports this module on the first 2-D H-polygon query.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import sets
from .numerics import ToleranceContext
from .sets import _gap_rule, _normal_angles

_EPS = float(np.finfo(float).eps)


def _parallel(ax: list, ay: list, i: int, j: int) -> bool:
    """Whether the normals of lines i and j are parallel up to the rounding
    of their cross product."""
    return abs(ax[i] * ay[j] - ay[i] * ax[j]) <= 4.0 * _EPS * (abs(ax[i] * ay[j]) + abs(ay[i] * ax[j]))


def _outside_exactly(ax: list, ay: list, b: list, L: int, i: int, j: int) -> bool:
    """Whether the exact intersection of lines i and j lies strictly outside
    the half-plane of line L.  It runs only where floating point cannot
    decide, so fractions is imported here, off the package's import path."""
    from fractions import Fraction

    ai, ci, bi = Fraction(ax[i]), Fraction(ay[i]), Fraction(b[i])
    aj, cj, bj = Fraction(ax[j]), Fraction(ay[j]), Fraction(b[j])
    det = ai * cj - ci * aj
    num = Fraction(ax[L]) * (bi * cj - bj * ci) + Fraction(ay[L]) * (ai * bj - aj * bi) - Fraction(b[L]) * det
    return num * det > 0


def _sweep(th: list, ax: list, ay: list, b: list, closed: bool):
    """Half-plane intersection of ``ax[i] x + ay[i] y <= b[i]`` (unit normals)
    over lines sorted by normal angle ``th``, in one pass over a deque.

    Returns the lines that bound the region, in order, and the vertices
    between consecutive ones as coordinate lists ``vx, vy`` with a bound
    ``ve`` on their rounding error, as a distance.  ``closed`` reads the
    lines cyclically (a bounded region: None if it is empty); otherwise they
    form an open chain (None if it has no vertex).  Lines whose normals are
    parallel up to rounding count as parallel, and only the tighter of two
    with equal directions is kept.  A vertex is tested against a line in
    floating point unless the rounding could flip the answer; then the test
    is exact, so the kept lines always bound a convex region.
    """
    eps4 = 4.0 * _EPS
    dq, vx, vy, ve = [], [], [], []  # live deque dq[h:]; vertex t joins dq[t], dq[t + 1]
    h = 0

    def outside(L, t):
        r = ax[L] * vx[t] + ay[L] * vy[t] - b[L]
        if abs(r) > ve[t] + eps4 * abs(b[L]):
            return r > 0.0
        return _outside_exactly(ax, ay, b, L, dq[t], dq[t + 1])

    def push_vertex(i, j):
        ai, ci, bi, aj, cj, bj = ax[i], ay[i], b[i], ax[j], ay[j], b[j]
        det = ai * cj - ci * aj
        x, y = (bi * cj - bj * ci) / det, (ai * bj - aj * bi) / det
        s = abs(x) + abs(y)
        vx.append(x)
        vy.append(y)
        ve.append(eps4 * ((abs(bi) + abs(bj) + 2.0 * s) / abs(det) + 2.0 * s))

    def pop():
        dq.pop()
        vx.pop()
        vy.pop()
        ve.pop()

    for L in range(len(b)):
        if len(dq) > h:
            B = dq[-1]
            if th[L] - th[B] < 1e-9 and ax[B] * ax[L] + ay[B] * ay[L] > 0.0 and _parallel(ax, ay, B, L):
                # Equal directions: keep the tighter line.
                if b[L] >= b[B]:
                    continue
                if len(dq) - h == 1:
                    dq[-1] = L
                    continue
                pop()
        # outside(L, t), inlined: this loop runs for every line.
        aL, cL, bL = ax[L], ay[L], b[L]
        eL = eps4 * abs(bL)
        while len(dq) - h > 1:
            r = aL * vx[-1] + cL * vy[-1] - bL
            if r < -(ve[-1] + eL) or r <= ve[-1] + eL and not _outside_exactly(ax, ay, b, L, dq[-2], dq[-1]):
                break
            pop()
        while len(dq) - h > 1:
            r = aL * vx[h] + cL * vy[h] - bL
            if r < -(ve[h] + eL) or r <= ve[h] + eL and not _outside_exactly(ax, ay, b, L, dq[h], dq[h + 1]):
                break
            h += 1
        if len(dq) > h:
            if _parallel(ax, ay, dq[-1], L):
                return None  # opposite normals met (equal ones merged above): an empty strip, or no vertex
            push_vertex(dq[-1], L)
        dq.append(L)
    if closed:
        while len(dq) - h > 2 and outside(dq[h], len(dq) - 2):
            pop()
        while len(dq) - h > 2 and outside(dq[-1], h):
            h += 1
        if len(dq) - h < 3 or _parallel(ax, ay, dq[-1], dq[h]):
            return None
        push_vertex(dq[-1], dq[h])
    if len(dq) - h < 2:
        return None
    return dq[h:], vx[h:], vy[h:], ve[h:]


def hpolygon_2d(A: np.ndarray, b: np.ndarray, ctx: ToleranceContext) -> tuple[bool, np.ndarray | None]:
    """Boundedness and vertices of the 2-D region ``{x : A x <= b}`` from one
    sort of the rows by normal angle.

    ``bounded`` is the gap rule that 2-D templates read too
    (:func:`setcalc.sets._gap_rule`).  The vertices are the hull of every
    pairwise intersection of the unit rows ``(a, b) / |a|`` that passes the
    membership test against every unit row: 10 atol, plus 16 eps |p| for the
    rounding of ``a . p``.  None if no intersection passes.  For an
    unbounded region they are those of the open chain that starts after the
    gap of pi.

    The sweep (:func:`_sweep`) finds the lines that bound the region relaxed
    by ``w`` (twice that slack), so a region within 10 atol of empty keeps
    its vertices.  Each vertex of the relaxed region gets the group of lines
    that pass within ``R`` of it, from one test of every line against every
    vertex.  Where the group is just the two lines that meet there, their
    intersection is the only candidate, and only those two rows can reject
    it.  A larger group (concurrent, duplicated or near-touching rows) has
    every pairwise intersection as a candidate.  So the candidates are
    exactly the passing pairwise intersections that the hull can keep, and
    the result is the pairwise enumeration's, bit for bit.
    """
    m = len(b)
    if not m:
        return False, None
    theta = _normal_angles(A)
    order = np.argsort(theta, kind="stable")
    th = theta[order].tolist()
    norms = np.hypot(A[:, 0], A[:, 1])
    U, c = A / norms[:, None], b / norms
    g, bounded = _gap_rule(U[order], th)
    if not np.isfinite(c).all():
        # A row with offset +inf holds everywhere; one with -inf or nan nowhere.
        if np.isnan(c).any() or (c == -math.inf).any():
            return bounded, None
        finite = c < math.inf
        return bounded, hpolygon_2d(A[finite], b[finite], ctx)[1]
    # Start after the largest gap: an open chain begins there, and a closed
    # pass never meets two lines of nearly equal angle across its ends.
    order = np.concatenate((order[g:], order[:g]))
    th, rows = th[g:] + th[:g], order.tolist()
    ax, ay, bl = np.column_stack((U, c))[order].T.tolist()
    atol10 = 10.0 * ctx.atol
    reach = max(map(abs, bl))
    w = 2.0 * (atol10 + 16.0 * _EPS * reach)
    for _ in range(2):
        swept = _sweep(th, ax, ay, [o + w for o in bl], bounded)
        if swept is None:
            return bounded, None
        K, vx, vy, ve = swept
        # The slack at a point p of the relaxed region, 10 atol + 16 eps |p|,
        # should not exceed w; far from the origin, relax once more.
        far = max(map(abs, vx)) + max(map(abs, vy))
        if atol10 + 16.0 * _EPS * far <= w:
            break
        w = 2.0 * (atol10 + 32.0 * _EPS * far)
    # Every line through a point of the relaxed region passes within 3 w of
    # the nearer end of the edge nearest that point; R adds the rounding.
    R = 4.0 * w + 2.0 * max(ve) + 16.0 * _EPS * (far + reach)
    V = np.column_stack((vx, vy))
    points, tests = [], {}
    eps16 = 16.0 * _EPS
    step = max(1, (1 << 18) // m)  # vertices per block: about 2^18 row-vertex tests at a time
    for t0 in range(0, len(vx), step):
        near = V[t0:t0 + step] @ U.T >= c - R  # near[t - t0, row]: the row passes within R of vertex t
        for t, count in enumerate(near.sum(axis=1).tolist(), t0):
            if count > 2:
                group = np.flatnonzero(near[t - t0]).tolist()
                for i, j in itertools.combinations(group, 2):
                    tests.setdefault((i, j), (t, group))
                continue
            # Vertex t joins lines K[t] and K[t + 1], the only rows near it.
            i, j = K[t], K[(t + 1) % len(K)]
            if rows[i] > rows[j]:
                i, j = j, i
            ai, ci, bi, aj, cj, bj = ax[i], ay[i], bl[i], ax[j], ay[j], bl[j]
            det = ai * cj - ci * aj
            if abs(det) <= 1e-14:
                continue
            x, y = (bi * cj - bj * ci) / det, (ai * bj - aj * bi) / det
            # The membership test of its two rows, decided here where the rounding
            # of the slack cannot matter.
            slack = atol10 + eps16 * math.hypot(x, y)
            ri, rj = x * ai + y * ci - bi, x * aj + y * cj - bj
            passes = ri < 0.5 * slack and rj < 0.5 * slack
            if abs(x - vx[t]) + abs(y - vy[t]) >= 0.75 * R or not (passes or ri > 2.0 * slack or rj > 2.0 * slack):
                tests[rows[i], rows[j]] = (t, [rows[i], rows[j]])
            elif passes:
                points.append((x, y))
    P = np.array(points).reshape(-1, 2)
    if tests:
        P = np.concatenate((P, _tested_points(U, c, tests, V, 0.75 * R, ctx)))
    return bounded, (sets._convex_hull_2d(P, ctx.atol) if len(P) else None)


def _tested_points(A, b, tests, V, reach, ctx) -> np.ndarray:
    """The intersections of the unit row pairs ``(i, j)`` of ``tests``
    (i < j) that pass the membership test.  ``tests[i, j] = (t, rows)``:
    within ``reach`` of vertex ``V[t]`` only those rows can reject the point;
    farther away, every row is tested, in blocks of about 2^18 row tests, so
    memory stays bounded when many candidates are far."""
    (i, j), (t, rows) = np.array(list(tests)).T, zip(*tests.values())
    ax, ay = A[:, 0], A[:, 1]
    det = ax[i] * ay[j] - ay[i] * ax[j]
    keep = np.abs(det) > 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        P = np.column_stack(((b[i] * ay[j] - b[j] * ay[i]) / det, (ax[i] * b[j] - ax[j] * b[i]) / det))
    P, t, rows = P[keep], np.array(t)[keep], [r for r, k in zip(rows, keep) if k]
    ok = _pass_all(P, A, b, rows, ctx)
    far = np.flatnonzero(ok & (np.abs(P - V[t]).sum(axis=1) >= reach))
    step = max(1, (1 << 18) // len(b))  # far points per block: about 2^18 row tests at a time
    for s in range(0, len(far), step):
        k = far[s : s + step]
        Q = P[k]
        slack = 10.0 * ctx.atol + 16.0 * _EPS * np.hypot(Q[:, 0], Q[:, 1])
        ok[k] = (Q[:, :1] * A[:, 0] + Q[:, 1:] * A[:, 1] <= b + slack[:, None]).all(axis=1)
    return P[ok]


def _pass_all(P, A, b, rows, ctx) -> np.ndarray:
    """Whether each point ``P[k]`` passes the membership test of every unit
    row in ``rows[k]``: 10 atol, plus 16 eps |p|, the rounding of ``a . p``
    at a far point p (with less, thin regions lose true vertices)."""
    n = np.array([len(r) for r in rows], dtype=int)
    r = np.fromiter(itertools.chain.from_iterable(rows), dtype=int, count=int(n.sum()))
    k = np.repeat(np.arange(len(P)), n)
    slack = 10.0 * ctx.atol + 16.0 * _EPS * np.hypot(P[k, 0], P[k, 1])
    ok = P[k, 0] * A[r, 0] + P[k, 1] * A[r, 1] <= b[r] + slack
    return np.bincount(k[~ok], minlength=len(P)) == 0
