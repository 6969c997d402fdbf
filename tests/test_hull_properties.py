"""Property tests: the 2-D hull's, polygon membership's and every half-space
slack test's verdicts do not depend on scale or rotation."""

import math

import numpy as np
import pytest

import setcalc as sc
from setcalc.concrete_ops import intersection, is_disjoint, is_subset, remove_redundant_constraints
from setcalc.conversion import tohrep
from setcalc.numerics import resolve_tolerance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    jitter=st.lists(st.floats(0.0, 0.4), min_size=3, max_size=12),
    log_scale=st.floats(-6.0, 6.0),
    turn=st.floats(0.0, 2.0 * math.pi),
)
def test_vertex_count_invariant_under_scale_and_rotation(jitter, log_scale, turn):
    # A convex polygon on the unit circle whose consecutive vertices are at
    # least 0.6 * 2 pi / k apart, so no vertex is near-collinear at any scale.
    k = len(jitter)
    angles = (np.arange(k) + np.array(jitter)) * (2.0 * math.pi / k)
    base = np.column_stack((np.cos(angles), np.sin(angles)))
    rotation = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    moved = sc.VPolygon(10.0**log_scale * base @ rotation.T)
    assert sc.VPolygon(base).num_vertices == moved.num_vertices == k


def _distance_to_polygon(x, V):
    # Distance from x to the closed boundary cycle of V, one projection per
    # edge; for a point outside a convex polygon this is its distance to it.
    E = np.roll(V, -1, axis=0) - V
    length2 = np.einsum("ij,ij->i", E, E)
    t = np.clip(np.einsum("ij,ij->i", x - V, E) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    return float(np.min(np.linalg.norm(x - (V + t[:, None] * E), axis=1)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    jitter=st.lists(st.floats(0.0, 0.4), min_size=1, max_size=8),
    log_scale=st.floats(-4.0, 4.0),
    turn=st.floats(0.0, 2.0 * math.pi),
    edge=st.integers(0, 7),
    where=st.floats(0.05, 0.95),
    past_end=st.booleans(),
    factor=st.sampled_from([0.5, 2.0]),
)
def test_polygon_membership_tolerance_is_a_distance(jitter, log_scale, turn, edge, where, past_end, factor):
    # A point factor * atol outside a point, a segment (beside it or past an
    # end) or a polygon edge is accepted at 0.5 and rejected at 2.
    k = len(jitter)
    angles = (np.arange(k) + np.array(jitter)) * (2.0 * math.pi / k)
    base = np.column_stack((np.cos(angles), np.sin(angles)))
    rotation = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    P = sc.VPolygon(10.0**log_scale * base @ rotation.T)
    assert P.num_vertices == k
    V = P.vertices
    offset = factor * resolve_tolerance(None).atol
    if k == 1:
        x = V[0] + offset * np.array([math.cos(2.0 * math.pi * where), math.sin(2.0 * math.pi * where)])
    else:
        a, b = V[edge % k], V[(edge + 1) % k]
        u = (b - a) / np.linalg.norm(b - a)
        if k == 2 and past_end:
            x = b + offset * u
        else:
            x = a + where * (b - a) + offset * np.array([u[1], -u[0]])
    assert _distance_to_polygon(x, V) == pytest.approx(offset, rel=1e-2)
    assert P.contains(x) == (factor < 1.0)


def test_polygon_membership_tolerance_examples():
    atol = resolve_tolerance(None).atol
    large = sc.VPolygon([[0.0, 0.0], [1e4, 0.0], [0.0, 1e4]])
    assert sc.membership([5e3, -0.5 * atol], large)
    assert sc.membership([5e3, -0.5 * atol], sc.box_approximation(large))
    small = sc.VPolygon([[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4]])
    assert not sc.membership([5e-5, -50.0 * atol], small)
    segment = sc.VPolygon([[0.0, 0.0], [1e4, 0.0]])
    assert not sc.membership([1e4 + 5e3 * atol, 0.0], segment)
    assert sc.membership([1e4 + 0.5 * atol, 0.0], segment)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    log_scale=st.floats(-4.0, 4.0),
    edge=st.integers(0, 2),
    where=st.floats(0.2, 0.8),
    factor=st.sampled_from([0.5, 2.0]),
    outside=st.booleans(),
)
def test_triangle_verdicts_match_distance_oracle(log_scale, edge, where, factor, outside):
    # A point factor * atol off the middle of an edge of the triangle with
    # legs k: the polygon, its H-representation, the inclusion of the point,
    # each edge's half-space and the bounding box agree with numpy distances.
    atol = resolve_tolerance(None).atol
    k = 10.0**log_scale
    P = sc.VPolygon([[0.0, 0.0], [k, 0.0], [0.0, k]])
    V = P.vertices
    a, b = V[edge], V[(edge + 1) % 3]
    u = (b - a) / np.linalg.norm(b - a)
    x = a + where * (b - a) + (1.0 if outside else -1.0) * factor * atol * np.array([u[1], -u[0]])
    # Signed distance from x to each edge's line, positive outside.
    E = np.roll(V, -1, axis=0) - V
    outward = (E[:, 0] * (x[1] - V[:, 1]) - E[:, 1] * (x[0] - V[:, 0])) / -np.linalg.norm(E, axis=1)
    assert outward[edge] == pytest.approx((1.0 if outside else -1.0) * factor * atol, rel=1e-2)
    inside = bool(np.all(outward <= atol))
    assert P.contains(x) == inside
    assert tohrep(P).contains(x) == inside
    assert is_subset(sc.VPolygon([x]), P) == inside
    for H, distance in zip(P.constraints_list(), outward):
        assert H.contains(x) == (distance <= atol)
    box = sc.box_approximation(P)
    assert box.contains(x) == bool(np.max(np.maximum(box.low - x, x - box.high)) <= atol)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    log_scale=st.floats(-4.0, 4.0),
    turn=st.floats(0.1, 0.5 * math.pi - 0.1),
    quadrant=st.integers(0, 3),
    factor=st.sampled_from([0.5, 2.0]),
)
def test_scaled_normal_gives_the_same_verdict(log_scale, turn, quadrant, factor):
    # (k a, k b) is the same half-space or hyperplane as (a, b) for a unit
    # normal a; each predicate gives the same verdict on both, and the one a
    # distance of factor * atol calls for.
    atol = resolve_tolerance(None).atol
    k = 10.0**log_scale
    angle = turn + quadrant * 0.5 * math.pi
    a = np.array([math.cos(angle), math.sin(angle)])
    near = factor < 1.0

    x = np.array([0.3, -0.7])
    b = float(a @ x) + factor * atol
    assert sc.Hyperplane(k * a, k * b).contains(x) == sc.Hyperplane(a, b).contains(x) == near

    # The half-space ends factor * atol short of the triangle.
    T = sc.VPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = -T.support_function(-a) - factor * atol
    verdicts = [is_disjoint(sc.HalfSpace(s * a, s * b), T) for s in (1.0, k)]
    assert verdicts == [not near] * 2
    assert [is_disjoint(T, sc.HalfSpace(s * a, s * b)) for s in (1.0, k)] == verdicts

    # The half-space cuts factor * atol into a corner of the box.
    box = sc.Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    b = box.support_function(a) - factor * atol
    kept = [remove_redundant_constraints(box.constraints_list() + [sc.HalfSpace(s * a, s * b)]) for s in (1.0, k)]
    assert [len(c) for c in kept] == [4 if near else 5] * 2
    clipped = [intersection(box, sc.HalfSpace(s * a, s * b)) for s in (1.0, k)]
    assert [P.num_vertices for P in clipped] == [4 if near else 5] * 2
    assert np.allclose(clipped[0].vertices, clipped[1].vertices, rtol=0.0, atol=1e-12)
