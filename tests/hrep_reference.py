"""The pairwise H-to-V loop for 2-D constraint lists, kept as a test oracle.

This is the vertex enumeration as it was before the angle-sweep kernel: one
Python iteration per constraint pair, each candidate tested against every
constraint with the kernel's slack (10 atol, plus the rounding of ``a . x``,
16 eps |x|).  Each row is first scaled to a unit normal, ``(a, b) / |a|``
with ``|a|`` from ``np.hypot``, as the kernel scales it: the determinant of
two unit rows is the sine of their angle, so the cutoff ``|det| <= 1e-14``
means the same at every scale, and a residual is a distance.  Tests compare
the vertices of ``sets._hpolygon_2d`` against it bit for bit; the library
does not use it.
"""

import numpy as np

from setcalc.sets import _convex_hull_2d


def reference_hrep_vertices_2d(constraints, ctx):
    """Hull of the feasible pairwise intersections, or None if there are none."""
    A = np.array([c.normal for c in constraints], dtype=float).reshape(-1, 2)
    b = np.array([c.offset for c in constraints], dtype=float)
    norms = np.hypot(A[:, 0], A[:, 1])
    A, b = A / norms[:, None], b / norms
    candidates = []
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
            if abs(det) <= 1e-14:
                continue
            x = np.array([(b[i] * A[j, 1] - b[j] * A[i, 1]) / det, (A[i, 0] * b[j] - A[j, 0] * b[i]) / det])
            slack = 10.0 * ctx.atol + 16.0 * np.finfo(float).eps * float(np.hypot(*x))
            if all(float(a @ x) <= c + slack for a, c in zip(A, b)):
                candidates.append(x)
    if not candidates:
        return None
    return _convex_hull_2d(np.array(candidates))
