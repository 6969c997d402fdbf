import tracemalloc

import numpy as np
import pytest

import setcalc as sc
import setcalc.approximation
import setcalc.numerics
import setcalc.sets


@pytest.fixture
def lp_calls(monkeypatch):
    """The list of every LP the library solves while the test runs."""
    calls = []

    def counting(lp, ctx=None, solve=setcalc.numerics.solve_lp):
        calls.append(lp)
        return solve(lp, ctx)

    for module in (setcalc.numerics, setcalc.sets, setcalc.approximation):
        monkeypatch.setattr(module, "solve_lp", counting)
    return calls


@pytest.fixture
def hpolygon_calls(monkeypatch):
    """The list of every 2-D H-polygon sweep the library runs while the test
    runs, as the ``(A, b)`` pair it was given."""
    calls = []

    def counting(A, b, ctx, sweep=setcalc.sets._hpolygon_2d):
        calls.append((A, b))
        return sweep(A, b, ctx)

    monkeypatch.setattr(setcalc.sets, "_hpolygon_2d", counting)
    return calls


@pytest.fixture
def hull_calls(monkeypatch):
    """The list of every 2-D vertex hull the library takes while the test
    runs, as the number of points it was given."""
    calls = []

    def counting(points, eps=None, hull=setcalc.sets._convex_hull_2d):
        calls.append(len(points))
        return hull(points, eps)

    monkeypatch.setattr(setcalc.sets, "_convex_hull_2d", counting)
    return calls


@pytest.fixture
def leaf_calls(monkeypatch):
    """``(id(leaf), vectors, rows)`` for every ``_support_batch`` call a
    concrete set answers while the test runs."""
    calls = []
    classes = [setcalc.sets.ConcreteSet]
    for cls in classes:
        classes.extend(sub for sub in cls.__subclasses__() if sub not in classes)
    for cls in classes:
        if "_support_batch" in vars(cls):
            def counting(self, D, ctx, vectors, original=vars(cls)["_support_batch"]):
                calls.append((id(self), vectors, len(D)))
                return original(self, D, ctx, vectors)

            monkeypatch.setattr(cls, "_support_batch", counting)
    return calls


@pytest.fixture
def traced_peak():
    """``traced_peak(call, *args, **kwargs)``: what the call returns and the
    peak, in bytes, of the memory tracemalloc traced while it ran."""

    def run(call, *args, **kwargs):
        tracemalloc.start()
        try:
            result = call(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture
def demo_polygon():
    """The seven-vertex demo polygon used across the docs."""
    return sc.VPolygon(
        [[-3, 0.6], [-2, -2], [0, -2], [1, -1], [2, 1], [0, 2], [-0.8, 1.8]]
    )


@pytest.fixture
def state_matrix():
    return np.array([[0.95105652, 0.02459079], [-3.88322208, 0.95105652]])


@pytest.fixture
def initial_tree(state_matrix):
    """CH(X0, Phi*X0 + E) with the standard reach-step numbers."""
    X0 = sc.BallInf([1.0, 0.0], 0.1)
    E = sc.Hyperrectangle(np.zeros(2), [0.05477208, 0.07676220])
    mapped = sc.make_node("LinearMap", [X0], matrix=state_matrix)
    summed = sc.make_node("MinkowskiSum", [mapped, E])
    return sc.make_node("ConvexHullUnion", [X0, summed])


def random_polygon(rng, scale=3.0, max_points=9):
    k = rng.integers(3, max_points + 1)
    points = rng.uniform(-scale, scale, size=(k, 2))
    poly = sc.VPolygon(points)
    if poly.num_vertices < 3:
        return random_polygon(rng, scale, max_points)
    return poly


def random_zonotope_2d(rng, max_generators=4):
    m = rng.integers(1, max_generators + 1)
    return sc.Zonotope(rng.uniform(-2, 2, 2), rng.uniform(-1.5, 1.5, (2, m)))


def random_box_2d(rng):
    return sc.Hyperrectangle(rng.uniform(-2, 2, 2), rng.uniform(0.1, 2.0, 2))


def random_unit_direction(rng, n=2):
    while True:
        d = rng.normal(size=n)
        norm = np.linalg.norm(d)
        if norm > 1e-6:
            return d / norm
