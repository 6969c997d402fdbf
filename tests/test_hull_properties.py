"""Property tests: the 2-D hull's verdicts do not depend on scale or rotation."""

import math

import numpy as np
import pytest

import setcalc as sc

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
