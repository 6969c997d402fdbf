"""Independent oracles: numpy closed forms and scipy (qhull, HiGHS).

Nothing here calls setcalc.  scipy is imported on first use, after the timed
region, so it adds neither to set-up time nor to the measured peak memory.
"""

from __future__ import annotations

import numpy as np

from common import CHECK_DIRECTIONS, close


def chain_support_steps(spec: dict, D: np.ndarray, steps: int) -> np.ndarray:
    """``rho(d, X_k)`` for k = 1..steps, one row per k, one column per row of D.

    ``rho(d, X_k) = rho((Phi^k)^T d, X0) + sum_{i<k} rho((Phi^i)^T d, E)``.
    """
    W = np.array(D, dtype=float)
    acc = np.zeros(W.shape[0])
    out = np.empty((steps, W.shape[0]))
    for k in range(1, steps + 1):
        acc = acc + W @ spec["cE"] + np.abs(W) @ spec["rE"]
        W = W @ spec["phi"]
        out[k - 1] = acc + W @ spec["c0"] + np.sum(np.abs(W @ spec["G0"]), axis=1)
    return out


def chain_support(spec: dict, D: np.ndarray) -> np.ndarray:
    return chain_support_steps(spec, D, spec["steps"])[-1]


def chain_zonotope(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Center and generator matrix of ``X_N`` built with numpy."""
    phi = spec["phi"]
    center = spec["c0"].copy()
    gens = spec["G0"].copy()
    box = np.diag(spec["rE"])
    extra = []
    for _ in range(spec["steps"]):
        center = phi @ center + spec["cE"]
        gens = phi @ gens
        extra = [phi @ g for g in extra] + [box]
    return center, np.hstack([gens] + extra)


def zonotope_points(c, G) -> np.ndarray:
    """All ``c + G s`` with s in {-1, 1}^m (a superset of the vertices)."""
    m = G.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)
    return c + signs @ G.T


def points_support(P, D) -> np.ndarray:
    return np.max(np.asarray(P) @ D.T, axis=0)


def hull_vertices(points) -> np.ndarray:
    from scipy.spatial import ConvexHull

    points = np.asarray(points, dtype=float)
    return points[ConvexHull(points).vertices]


def _linprog(c, A, b):
    from scipy.optimize import linprog

    n = A.shape[1]
    return linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")


def lp_max(A, b, d) -> float | None:
    """``max d.x`` s.t. ``A x <= b``; None when infeasible, inf when unbounded."""
    res = _linprog(-np.asarray(d, dtype=float), A, b)
    if res.status == 2:
        return None
    if res.status == 3:
        return float("inf")
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return -float(res.fun)


def lp_feasible(A, b) -> bool:
    return lp_max(A, b, np.zeros(A.shape[1])) is not None


def zonotope_contains(c, G, x, tol=1e-7) -> bool:
    """``x in c + G [-1, 1]^m``, as feasibility of ``|G xi - (x - c)| <= tol``."""
    m = G.shape[1]
    rhs = np.asarray(x, dtype=float) - c
    eye = np.eye(m)
    A = np.vstack([G, -G, eye, -eye])
    b = np.concatenate([rhs + tol, -rhs + tol, np.ones(m), np.ones(m)])
    return lp_feasible(A, b)


def polygon_hrep(V) -> tuple[np.ndarray, np.ndarray]:
    """Outward edge constraints ``A x <= b`` of a counter-clockwise polygon."""
    V = np.asarray(V, dtype=float)
    E = np.roll(V, -1, axis=0) - V
    A = np.column_stack([E[:, 1], -E[:, 0]])
    A /= np.linalg.norm(A, axis=1)[:, None]
    return A, np.sum(A * V, axis=1)


def compare_polygon(result_vertices, expected_vertices) -> str | None:
    """Same support values on 360 directions, and every returned vertex is
    one of the expected extreme points."""
    got = np.asarray(result_vertices, dtype=float).reshape(-1, 2)
    want = np.asarray(expected_vertices, dtype=float)
    if got.shape[0] == 0:
        return "empty vertex list"
    scale = float(np.max(np.abs(want)))
    rho_got = points_support(got, CHECK_DIRECTIONS)
    rho_want = points_support(want, CHECK_DIRECTIONS)
    if not close(rho_got, rho_want, scale):
        worst = float(np.max(np.abs(rho_got - rho_want)))
        return f"support differs from the qhull oracle by {worst:.3g}"
    dist = np.min(np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2), axis=1)
    if np.max(dist) > 1e-6 * (1.0 + scale):
        return f"{int(np.sum(dist > 1e-6 * (1.0 + scale)))} vertices are not extreme points"
    return None


def eps_gap(result_vertices, rho_exact, eps: float) -> str | None:
    """``0 <= rho(d, P) - rho(d, X) <= eps + 1e-8`` on the 360 check directions."""
    got = np.asarray(result_vertices, dtype=float).reshape(-1, 2)
    gap = points_support(got, CHECK_DIRECTIONS) - rho_exact
    scale = float(np.max(np.abs(rho_exact)))
    if np.min(gap) < -1e-7 * (1.0 + scale):
        return f"not an outer approximation: gap {float(np.min(gap)):.3g}"
    if np.max(gap) > eps + 1e-8:
        return f"gap {float(np.max(gap)):.6g} exceeds eps {eps}"
    return None


def inner_check(result_vertices, D, rho_D, rho_exact) -> str | None:
    """An inner approximation through the support vectors along the rows of
    D: it reaches ``rho(d)`` on every row and stays inside X on the 360
    check directions."""
    got = np.asarray(result_vertices, dtype=float).reshape(-1, 2)
    scale = float(np.max(np.abs(rho_exact)))
    if not close(points_support(got, D), rho_D, scale):
        return "a support vector misses its support value"
    excess = points_support(got, CHECK_DIRECTIONS) - rho_exact
    if np.max(excess) > 1e-7 * (1.0 + scale):
        return f"not an inner approximation: excess {float(np.max(excess)):.3g}"
    return None
