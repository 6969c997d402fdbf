"""The zonotope fit as one LP over the scales and every vertex's coefficients,
kept as a test oracle.

This is the program the library solved before it fitted from support values:
each vertex v of X is reproduced as ``c + sum_j beta_vj d_j`` with
``|beta_vj| <= alpha_j``, minimizing ``sum_j alpha_j``; containment follows
from convexity.  It has m + K m variables for K vertices and is solved here
by HiGHS.  Tests compare the library's fit against it; the library does not
use it.
"""

import numpy as np
import pytest

from setcalc.errors import UnsupportedOperationError


def reference_fit_scales(X, directions, ctx=None) -> np.ndarray:
    """The optimal scales alpha of the vertex LP, centered at the vertex centroid."""
    directions = [np.asarray(d, dtype=float) for d in directions]
    V = np.array(X.vertices_list(ctx))
    center = V.mean(axis=0)
    m = len(directions)
    K, n = V.shape

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
    objective[:m] = 1.0  # minimize the total scale
    normals, offsets = zip(*constraints)
    optimize = pytest.importorskip("scipy.optimize")
    result = optimize.linprog(objective, A_ub=np.array(normals), b_ub=np.array(offsets),
                              bounds=[(None, None)] * nvars, method="highs")
    if result.status == 2:
        raise UnsupportedOperationError(
            "the candidate directions cannot reproduce the vertex offsets"
        )
    assert result.status == 0, result.message
    return result.x[:m]
