"""Shared pieces of the benchmark: the operation record and seeded shapes.

Every shape is drawn from one ``numpy.random.Generator`` that the workload
builds from ``--seed``, so one seed always gives the same inputs.  Shapes are
plain numpy data; the workload modules turn them into setcalc objects, and the
oracles read the numpy data directly, never the setcalc objects.
"""

from __future__ import annotations

import math

import numpy as np


class Op:
    """One benchmark operation on one input instance.

    ``run`` is called inside the timed region and returns the raw result;
    ``check(result)`` runs afterwards and returns ``None`` when the result
    agrees with the oracle, else a one-line description of the mismatch.
    ``props`` holds the input properties recorded with every result.
    """

    __slots__ = ("cls", "inst", "run", "check", "props", "tree")

    def __init__(self, cls, inst, run, check, props, tree=None):
        self.cls = cls
        self.inst = inst
        self.run = run
        self.check = check
        self.props = props
        # The queried set expression, when there is one, for the node walk.
        self.tree = tree


def memo(fn):
    """A zero-argument callable that computes ``fn()`` once, on first call;
    oracles are evaluated lazily so unused instances cost nothing."""
    cache = []

    def wrapper():
        if not cache:
            cache.append(fn())
        return cache[0]

    return wrapper


def node_counts(tree) -> tuple[int, int]:
    """Nodes of a set expression counted with and without repetition.

    An iterative post-order walk over ``operands``, keyed by object identity;
    the first number is what a walk that re-visits shared subtrees touches.
    """
    with_repeats = {}
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in with_repeats:
            continue
        children = getattr(node, "operands", ())
        if expanded or not children:
            with_repeats[id(node)] = 1 + sum(with_repeats[id(c)] for c in children)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children if id(c) not in with_repeats)
    return with_repeats[id(tree)], len(with_repeats)


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def stable_matrix(rng, n: int) -> np.ndarray:
    """A normal matrix with spectral norm < 1: contracting 2x2 rotations,
    conjugated by a random orthogonal basis when n > 2."""
    blocks = np.zeros((n, n))
    for i in range(0, n, 2):
        rate = rng.uniform(0.97, 0.995)
        block = rate * rotation(rng.uniform(0.05, 0.3))
        size = min(2, n - i)
        blocks[i : i + size, i : i + size] = block[:size, :size]
    if n == 2:
        return blocks
    q = random_orthogonal(rng, n)
    return q @ blocks @ q.T


def chain_spec(rng, n: int, steps: int) -> dict:
    """Data of ``X_k = Phi X_{k-1} + E`` with a zonotope X0 and a box E."""
    return {
        "phi": stable_matrix(rng, n),
        "c0": rng.uniform(-1.0, 1.0, size=n),
        "G0": rng.uniform(-0.3, 0.3, size=(n, n + 1)),
        "cE": rng.uniform(-0.01, 0.01, size=n),
        "rE": rng.uniform(0.01, 0.04, size=n),
        "steps": steps,
    }


def ellipse_polygon(rng, k: int, scale: float = 1.0, center=None) -> np.ndarray:
    """k points in strictly convex position, counter-clockwise, on a random
    ellipse; stratified angles keep neighbouring points apart."""
    offset = rng.uniform(0.0, 2.0 * math.pi)
    angles = offset + 2.0 * math.pi * (np.arange(k) + rng.uniform(0.15, 0.85, size=k)) / k
    axes = scale * rng.uniform(0.5, 1.0, size=2)
    pts = np.column_stack([axes[0] * np.cos(angles), axes[1] * np.sin(angles)])
    pts = pts @ rotation(rng.uniform(0.0, math.pi)).T
    if center is None:
        center = rng.uniform(-1.0, 1.0, size=2)
    return pts + center


def unit_directions(count: int) -> np.ndarray:
    """``count`` unit vectors at evenly spaced angles, one per row."""
    angles = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


CHECK_DIRECTIONS = unit_directions(360)


def close(a, b, scale) -> bool:
    """Agreement to 1e-7 relative to the magnitude of the compared sets."""
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 1e-7 * (1.0 + scale)))
