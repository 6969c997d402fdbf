"""The ``geometry`` workload: eager and concrete work, no deep lazy trees.

It builds the kinds of sets that ``reach`` only queries: it concretizes small
2-D trees, enumerates zonotope and H-polytope vertices, and answers
LP-backed support, membership, fitting and predicate questions.  The time
goes to ``numerics.solve_lp`` and the 2-D kernels (hull, Minkowski merge,
H-to-V); lazy support dispatch is bypassed.
"""

from __future__ import annotations

import math

import numpy as np

import setcalc as sc
from common import Op, close, ellipse_polygon, memo, rotation
import oracles

# The mix is weighted so that LP work and 2-D kernel work each take about a
# third of the time or more (see README.md for the measured shares), and so
# that the median latency falls inside zonotope_membership, whose cost varies
# little between inputs: about 45 % of the operations are cheaper.
# eps-close approximation of polygons is left out: its result misses the set
# on a small share of inputs today (reach.probe_eps_hull counts it).
SCHEDULE = (
    "concretize_tree",
    "zonotope_membership",
    "subset_pair",
    "tovrep_hpoly",
    "disjoint_pair",
    "zonotope_to_vpolygon",
    "concretize_tree",
    "zonotope_membership",
    "oct_support_hpoly",
    "disjoint_pair",
    "tovrep_hpoly",
    "concretize_tree",
    "zonofit_polar8",
    "zonotope_membership",
    "subset_pair",
    "zonotope_to_vpolygon",
    "disjoint_pair",
    "oct_support_hpoly",
    "concretize_tree",
    "zonotope_membership",
    "tovrep_hpoly",
    "zonotope_to_vpolygon",
)

POOL = 24


def _leaf(rng):
    """A random full-dimensional 2-D leaf: (setcalc set, numpy point cloud)."""
    kind = rng.integers(4)
    center = rng.uniform(-1.0, 1.0, size=2)
    if kind == 0:
        r = rng.uniform(0.1, 0.6)
        return sc.BallInf(center, r), center + r * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    if kind == 1:
        r = rng.uniform(0.1, 0.6, size=2)
        return sc.Hyperrectangle(center, r), center + r * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    if kind == 2:
        G = rng.uniform(-0.4, 0.4, size=(2, int(rng.integers(2, 5))))
        return sc.Zonotope(center, G), oracles.zonotope_points(center, G)
    V = ellipse_polygon(rng, int(rng.integers(4, 8)), rng.uniform(0.2, 0.8), center)
    return sc.VPolygon(V), V


def random_tree(rng, depth: int):
    """A 2-D tree of the given depth with its oracle point cloud.

    Inner kinds are MinkowskiSum, ConvexHullUnion, LinearMap and Translation;
    the cloud follows the same kinds with numpy and qhull.
    """
    if depth == 0:
        return _leaf(rng)
    kind = ("MinkowskiSum", "ConvexHullUnion", "LinearMap", "Translation")[rng.integers(4)]
    if kind in ("LinearMap", "Translation"):
        child, cloud = random_tree(rng, depth - 1)
        if kind == "LinearMap":
            M = rotation(rng.uniform(0, 2 * math.pi)) @ np.diag(rng.uniform(0.5, 1.5, size=2))
            return sc.make_node("LinearMap", [child], matrix=M), cloud @ M.T
        v = rng.uniform(-1.0, 1.0, size=2)
        return sc.make_node("Translation", [child], vector=v), cloud + v
    left, lcloud = random_tree(rng, depth - 1)
    right, rcloud = random_tree(rng, int(rng.integers(0, depth)))
    if kind == "MinkowskiSum":
        cloud = (lcloud[:, None, :] + rcloud[None, :, :]).reshape(-1, 2)
    else:
        cloud = np.vstack([lcloud, rcloud])
    return sc.make_node(kind, [left, right]), cloud


def _is_polygonal(tree) -> bool:
    # Trees with only box and zonotope leaves under zonotope-preserving kinds
    # concretize in closed form; the workload wants the polygon route.
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, sc.VPolygon) or getattr(node, "kind", None) == "ConvexHullUnion":
            return True
        stack.extend(getattr(node, "operands", ()))
    return False


def polygonal_tree(rng, depth: int):
    """A random tree that concretizes through the 2-D polygon route."""
    while True:
        tree, cloud = random_tree(rng, depth)
        if _is_polygonal(tree):
            return tree, cloud


def pair_oracle(relation: str, VA, VB) -> bool:
    """Disjointness by HiGHS feasibility of both H-representations; inclusion
    by testing A's vertices against B's edges."""
    hA, hB = oracles.polygon_hrep(VA), oracles.polygon_hrep(VB)
    if relation == "disjoint":
        return not oracles.lp_feasible(np.vstack([hA[0], hB[0]]), np.concatenate([hA[1], hB[1]]))
    return bool(np.all(VA @ hB[0].T <= hB[1] + 1e-9))


def hpolytope_from_polygon(rng, V, total: int):
    """Edge constraints of V plus redundant ones, shuffled, ``total`` in all."""
    A, b = oracles.polygon_hrep(V)
    extra = total - A.shape[0]
    D = rng.normal(size=(extra, 2))
    D /= np.linalg.norm(D, axis=1)[:, None]
    slack = rng.uniform(0.05, 0.5, size=extra)
    A = np.vstack([A, D])
    b = np.concatenate([b, oracles.points_support(V, D) + slack])
    order = rng.permutation(total)
    A, b = A[order], b[order]
    return sc.HPolytope([sc.HalfSpace(a, float(c)) for a, c in zip(A, b)]), A, b


def polygon_pair(rng, relation: str, inside: bool):
    """Polygons A, B whose subset or disjoint verdict is clear by a margin."""
    VB = ellipse_polygon(rng, int(rng.integers(5, 10)), 1.0)
    cB = VB.mean(axis=0)
    if relation == "subset":
        # Scaling B about an interior point keeps it inside for a factor
        # below 1 and pushes every vertex out for a factor above 1.
        shrink = rng.uniform(0.3, 0.8) if inside else rng.uniform(1.1, 1.4)
        return cB + shrink * (VB - cB), VB
    VA = ellipse_polygon(rng, int(rng.integers(4, 8)), rng.uniform(0.2, 0.5), np.zeros(2))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.cos(angle), math.sin(angle)])
    if inside:
        # A's own center point lies strictly inside B: they overlap.
        target = cB + rng.uniform(0.0, 0.8) * (VB[np.argmax(VB @ u)] - cB)
        return VA - VA.mean(axis=0) + target, VB
    gap = rng.uniform(0.05, 0.3)
    shift = (float(np.max(VB @ u)) + gap - float(np.min(VA @ u))) * u
    return VA + shift, VB


def make_op(cls: str, inst: int, rng) -> Op:
    if cls == "concretize_tree":
        depth = 2 + inst % 3
        tree, cloud = polygonal_tree(rng, depth)
        expected = memo(lambda: oracles.hull_vertices(cloud))

        def run():
            return sc.concretize(tree)

        def check(result):
            if not isinstance(result, sc.VPolygon):
                return f"expected a VPolygon, got {type(result).__name__}"
            return oracles.compare_polygon(result.vertices, expected())

        return Op(cls, inst, run, check, {"depth": depth, "leaves": tree.num_leaves()}, tree)

    if cls == "zonotope_to_vpolygon":
        m = 6 + inst % 5
        c = rng.uniform(-1.0, 1.0, size=2)
        G = rng.uniform(-0.5, 0.5, size=(2, m))
        Z = sc.Zonotope(c, G)
        expected = memo(lambda: oracles.hull_vertices(oracles.zonotope_points(c, G)))

        def run():
            return sc.convert_to(sc.VPolygon, Z)

        def check(result):
            return oracles.compare_polygon(result.vertices, expected())

        return Op(cls, inst, run, check, {"dim": 2, "generators": m})

    if cls in ("tovrep_hpoly", "oct_support_hpoly"):
        total = 12 + (inst * 7) % 25
        V = ellipse_polygon(rng, int(rng.integers(5, min(total, 16) + 1)), 1.0)
        H, A, b = hpolytope_from_polygon(rng, V, total)
        props = {"dim": 2, "constraints": total, "vertices": V.shape[0]}
        if cls == "tovrep_hpoly":
            def run():
                return sc.tovrep(H)

            def check(result):
                return oracles.compare_polygon(result.vertices, V)

            return Op(cls, inst, run, check, props)

        template = sc.oct_template()
        D = np.array(sc.generate_directions(template))
        expected = memo(lambda: np.array([oracles.lp_max(A, b, d) for d in D]))

        def run():
            return sc.overapproximate_template(H, template)

        def check(result):
            offsets = np.array([c.offset for c in result.constraints])
            want = expected()
            if not close(offsets, want, float(np.max(np.abs(want)))):
                return f"LP support differs from HiGHS by {float(np.max(np.abs(offsets - want))):.3g}"
            return None

        return Op(cls, inst, run, check, props)

    if cls == "zonotope_membership":
        n = 2 + inst % 3
        m = 6 + inst % 5
        c = rng.uniform(-1.0, 1.0, size=n)
        G = rng.uniform(-0.5, 0.5, size=(n, m))
        Z = sc.Zonotope(c, G)
        points = []
        for k in range(4):
            u = rng.normal(size=n)
            sigma = c + G @ np.where(u @ G >= 0.0, 1.0, -1.0)
            s = rng.uniform(0.3, 0.9) if k % 2 == 0 else rng.uniform(1.1, 1.6)
            points.append(c + s * (sigma - c))
        expected = memo(lambda: [oracles.zonotope_contains(c, G, x) for x in points])

        def run():
            return [sc.membership(x, Z) for x in points]

        def check(result):
            if list(result) != expected():
                return f"membership {list(result)} but HiGHS says {expected()}"
            return None

        return Op(cls, inst, run, check, {"dim": n, "generators": m, "points": len(points)})

    if cls == "zonofit_polar8":
        k = 5 + inst % 4
        V = ellipse_polygon(rng, k, 1.0)
        P = sc.VPolygon(V)
        directions = sc.generate_directions(sc.polar_template(8))

        def run():
            return sc.overapproximate_zonotope(P, directions)

        def check(result):
            c, G = np.asarray(result.center), np.asarray(result.generators)
            outside = [v for v in V if not oracles.zonotope_contains(c, G, v)]
            if outside:
                return f"{len(outside)} polygon vertices lie outside the fitted zonotope"
            return None

        return Op(cls, inst, run, check, {"dim": 2, "vertices": k, "template": 8})

    if cls in ("disjoint_pair", "subset_pair"):
        relation = cls.split("_")[0]
        VA, VB = polygon_pair(rng, relation, inside=inst % 2 == 0)
        A, B = sc.VPolygon(VA), sc.VPolygon(VB)
        predicate = sc.is_disjoint if relation == "disjoint" else sc.is_subset
        expected = memo(lambda: pair_oracle(relation, VA, VB))

        def run():
            return predicate(A, B)

        def check(result):
            if bool(result) != expected():
                return f"{relation} verdict {result} but the oracle says {expected()}"
            return None

        return Op(cls, inst, run, check, {"dim": 2, "vertices": VA.shape[0] + VB.shape[0]})

    raise ValueError(f"unknown geometry class {cls!r}")
