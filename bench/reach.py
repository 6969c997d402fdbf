"""The ``reach`` workload: lazy reach-set queries through the Python API.

Each input is an N-step chain ``X_k = Phi X_{k-1} + E`` (zonotope X0, box E,
stable random Phi) built with ``make_node`` and never concretized.  The same
kind of tree is read through a direction template, through support vectors
(inner approximation), through the adaptive eps-close refinement, and as a
flowpipe ``Union(X_1..X_T)``, whose steps share subtrees.  Nearly all the time
is lazy dispatch and leaf support; the LP and the 2-D kernels are bypassed.
"""

from __future__ import annotations

import numpy as np

import setcalc as sc
from common import CHECK_DIRECTIONS, Op, chain_spec, close, memo, unit_directions
import oracles

EPS = 0.01

# Operation classes in the order one schedule round visits them.  Weights
# follow cost so that the median falls in the middle of under_polar16_n50
# (40-60 % of the operations) and the 90th percentile in the middle of
# template_polar64_n200 (the top 20 %): a percentile near the edge between
# two classes would jump with small changes in the mix.
SCHEDULE = (
    "template_polar64_n10",
    "under_polar16_n50",
    "template_polar64_n200",
    "template_polar64_n10",
    "flowpipe_t8_polar32",
    "template_custom32_d6_n50",
    "template_polar64_n10",
    "under_polar16_n50",
    "template_polar64_n200",
    "template_polar64_n10",
    "eps001_n50",
    "under_polar16_n50",
    "template_polar64_n10",
    "template_polar64_n200",
    "template_polar64_n50",
    "template_polar64_n10",
    "flowpipe_t8_polar32",
    "under_polar16_n50",
    "template_polar64_n200",
    "template_polar64_n10",
    "template_custom32_d6_n50",
    "flowpipe_t16_polar32",
    "template_polar64_n10",
    "under_polar16_n50",
    "template_polar64_n200",
)

POOL = 12  # distinct inputs per class; later uses of a class cycle through them


def chain_steps(spec: dict) -> list:
    """``[X_0, ..., X_N]`` as setcalc objects; every step shares its parent."""
    X = sc.Zonotope(spec["c0"], spec["G0"])
    E = sc.Hyperrectangle(spec["cE"], spec["rE"])
    out = [X]
    for _ in range(spec["steps"]):
        X = sc.make_node("MinkowskiSum", [sc.make_node("LinearMap", [X], matrix=spec["phi"]), E])
        out.append(X)
    return out


def _template_op(cls, inst, tree, template, D, expected_fn, props):
    def run():
        return sc.overapproximate_template(tree, template)

    def check(result):
        normals = np.array([c.normal for c in result.constraints])
        offsets = np.array([c.offset for c in result.constraints])
        if normals.shape != D.shape or not np.allclose(normals, D, rtol=0.0, atol=1e-12):
            return "template normals differ from the template directions"
        want = expected_fn()
        if not close(offsets, want, float(np.max(np.abs(want)))):
            return f"support values differ from the closed form by {float(np.max(np.abs(offsets - want))):.3g}"
        return None

    return Op(cls, inst, run, check, props, tree)


def make_op(cls: str, inst: int, rng) -> Op:
    if cls.startswith("template_polar64_n"):
        steps = int(cls.rsplit("_n", 1)[1])
        spec = chain_spec(rng, 2, steps)
        tree = chain_steps(spec)[-1]
        D = unit_directions(64)
        props = {"steps": steps, "dim": 2, "template": 64}
        return _template_op(cls, inst, tree, sc.polar_template(64), D,
                            memo(lambda: oracles.chain_support(spec, D)), props)

    if cls == "template_custom32_d6_n50":
        spec = chain_spec(rng, 6, 50)
        tree = chain_steps(spec)[-1]
        D = rng.normal(size=(32, 6))
        D /= np.linalg.norm(D, axis=1)[:, None]
        props = {"steps": 50, "dim": 6, "template": 32}
        return _template_op(cls, inst, tree, sc.custom_template(list(D)), D,
                            memo(lambda: oracles.chain_support(spec, D)), props)

    if cls.startswith("flowpipe_t"):
        horizon = int(cls.split("_")[1][1:])
        spec = chain_spec(rng, 2, horizon)
        tree = sc.make_node("Union", chain_steps(spec)[1:])
        D = unit_directions(32)
        props = {"steps": horizon, "dim": 2, "template": 32, "flowpipe": horizon}
        expected = memo(lambda: np.max(oracles.chain_support_steps(spec, D, horizon), axis=0))
        return _template_op(cls, inst, tree, sc.polar_template(32), D, expected, props)

    if cls == "under_polar16_n50":
        spec = chain_spec(rng, 2, 50)
        tree = chain_steps(spec)[-1]
        D = unit_directions(16)
        directions = list(D)

        def run():
            return sc.underapproximate(tree, directions)

        exact = memo(lambda: (oracles.chain_support(spec, D), oracles.chain_support(spec, CHECK_DIRECTIONS)))

        def check(result):
            rho_D, rho_all = exact()
            return oracles.inner_check(result.vertices, D, rho_D, rho_all)

        return Op(cls, inst, run, check, {"steps": 50, "dim": 2, "template": 16}, tree)

    if cls == "eps001_n50":
        spec = chain_spec(rng, 2, 50)
        tree = chain_steps(spec)[-1]

        def run():
            return sc.overapproximate_eps_2d(tree, EPS)

        exact = memo(lambda: oracles.chain_support(spec, CHECK_DIRECTIONS))

        def check(result):
            return oracles.eps_gap(result.vertices, exact(), EPS)

        return Op(cls, inst, run, check, {"steps": 50, "dim": 2, "eps": EPS}, tree)

    raise ValueError(f"unknown reach class {cls!r}")


# Known defects, probed in the traced run on fixed inputs (the same on every
# seed, so the counts compare exactly across commits).  They stay out of the
# timed mix, whose operations must all succeed.
PROBE_SEED = 2024


def probe_deep_chain(tries: int = 3, steps: int = 1000) -> tuple[int, dict]:
    """Box queries on chains deeper than the recursion limit allows today."""
    rng = np.random.default_rng([PROBE_SEED, 1])
    failures = {}
    for _ in range(tries):
        tree = chain_steps(chain_spec(rng, 2, steps))[-1]
        try:
            sc.box_approximation(tree)
        except Exception as exc:  # the failure is what the probe reports
            failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
    return tries, failures


def probe_eps_hull(tries: int = 60, steps: int = 10) -> tuple[int, dict]:
    """eps-close polygons of short chains, checked like ``eps001_n50``.

    On such sparse inputs the result can miss part of the set: the polygon
    constructor's hull drops a vertex when near-equal points arrive out of
    order.
    """
    rng = np.random.default_rng([PROBE_SEED, 2])
    outcomes = {}
    for _ in range(tries):
        spec = chain_spec(rng, 2, steps)
        try:
            result = sc.overapproximate_eps_2d(chain_steps(spec)[-1], EPS)
            verdict = oracles.eps_gap(result.vertices, oracles.chain_support(spec, CHECK_DIRECTIONS), EPS)
            kind = None if verdict is None else "wrong answer"
        except Exception as exc:  # the failure is what the probe reports
            kind = type(exc).__name__
        if kind is not None:
            outcomes[kind] = outcomes.get(kind, 0) + 1
    return tries, outcomes
