"""The two-pointer edge merge for 2-D Minkowski sums, kept as a test oracle.

This is the polygon Minkowski sum as it was before the grouped-sum kernel:
both vertex cycles are rotated by ``np.roll`` to start at their bottom-most
vertex, and one Python iteration per output edge compares the two head edge
angles, fusing the heads when they are within 1e-9 rad.  Tests compare the
vertices of ``concrete_ops._polygon_minkowski`` against it bit for bit; the
library does not use it.
"""

import math

import numpy as np

from setcalc.sets import VPolygon


def _bottom_index(vertices: np.ndarray) -> int:
    order = np.lexsort((vertices[:, 0], vertices[:, 1]))
    return int(order[0])


def _edge_angles(vertices: np.ndarray) -> np.ndarray:
    edges = np.roll(vertices, -1, axis=0) - vertices
    return np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * math.pi)


def reference_polygon_minkowski(P: VPolygon, Q: VPolygon, ctx=None) -> VPolygon:
    """Counter-clockwise edge merge of two convex polygons.

    Both vertex cycles are rotated to start at their bottom-most point so
    edge angles increase monotonically in [0, 2pi); the sum polygon is then
    traced by merging the two edge sequences by angle.  Parallel edges are
    fused, and the final canonicalization absorbs collinear leftovers.
    """
    if P.num_vertices == 0 or Q.num_vertices == 0:
        return VPolygon([])
    if P.num_vertices == 1:
        return Q.translate(P.vertices[0])
    if Q.num_vertices == 1:
        return P.translate(Q.vertices[0])

    def cycle(V):
        k = _bottom_index(V)
        return np.roll(V, -k, axis=0)

    A = cycle(P.vertices)
    B = cycle(Q.vertices)
    ea = np.roll(A, -1, axis=0) - A
    eb = np.roll(B, -1, axis=0) - B
    ta = _edge_angles(A)
    tb = _edge_angles(B)
    na, nb = len(A), len(B)
    angle_eps = 1e-9

    point = A[0] + B[0]
    points = [point]
    i = j = 0
    while i < na or j < nb:
        if i >= na:
            step = eb[j]
            j += 1
        elif j >= nb:
            step = ea[i]
            i += 1
        elif abs(ta[i] - tb[j]) <= angle_eps:
            step = ea[i] + eb[j]
            i += 1
            j += 1
        elif ta[i] < tb[j]:
            step = ea[i]
            i += 1
        else:
            step = eb[j]
            j += 1
        point = point + step
        points.append(point)
    return VPolygon(points[:-1])
