"""The pairwise H-to-V loop for 2-D constraint lists, kept as a test oracle.

This is the vertex enumeration as it was before the vectorized kernel: one
Python iteration per constraint pair, each candidate tested against every
constraint with the kernel's slack (10 atol as a distance, plus the rounding
of ``a . x``, 16 eps |a| |x|).  Tests compare the vertices of
``sets._hpolygon_2d`` against it; the library does not use it.
"""

import numpy as np

from setcalc.sets import _convex_hull_2d


def reference_hrep_vertices_2d(constraints, ctx):
    """Hull of the feasible pairwise intersections, or None if there are none."""
    items = list(constraints)
    candidates = []
    for i in range(len(items)):
        a1, b1 = items[i].normal, items[i].offset
        for j in range(i + 1, len(items)):
            a2, b2 = items[j].normal, items[j].offset
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if abs(det) <= 1e-14 * max(1.0, float(np.max(np.abs(a1))) * float(np.max(np.abs(a2)))):
                continue
            x = np.array([(b1 * a2[1] - b2 * a1[1]) / det, (a1[0] * b2 - a2[0] * b1) / det])
            slack = 10.0 * ctx.atol + 16.0 * np.finfo(float).eps * float(np.hypot(*x))
            if all(float(c.normal @ x) <= c.offset + slack * float(np.hypot(*c.normal)) for c in items):
                candidates.append(x)
    if not candidates:
        return None
    return _convex_hull_2d(np.array(candidates))
