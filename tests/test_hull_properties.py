"""Property tests: the 2-D hull's and polygon membership's verdicts do not
depend on scale or rotation."""

import math

import numpy as np
import pytest

import setcalc as sc
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
