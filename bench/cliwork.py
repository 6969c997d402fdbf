"""The ``cli`` workload: ``python -m setcalc`` subcommands as child processes.

Every operation starts one interpreter on a JSON document that the set-up
wrote, so interpreter start-up, ``import setcalc``, ``parse_doc`` and
``serialize_doc`` are in every latency; the other two workloads bypass all
of them.  Children are started one at a time and waited for.

Children get a bytecode cache that the benchmark owns
(``PYTHONPYCACHEPREFIX`` under the run's work directory) with
``PYTHONDONTWRITEBYTECODE`` removed, and the set-up warms that cache before
timing.  A call then costs what it costs an installed user, whose modules
were compiled at install time, and not a recompile of numpy and setcalc.
"""

from __future__ import annotations

import collections
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

from common import CHECK_DIRECTIONS, Op, chain_spec, close, memo, node_counts, unit_directions
import geometry
import oracles

EPS = 0.01
CHILD_TIMEOUT_S = 60

SCHEDULE = (
    "support_vector_chain",
    "overapprox_oct_chain",
    "check_member_chain",
    "concretize_tree",
    "overapprox_polar32_chain",
    "check_subset_pair",
    "support_vector_chain",
    "overapprox_eps_chain",
    "check_disjoint_pair",
    "malformed_doc",
    "support_vector_chain",
    "concretize_tree",
)

POOL = 8
CHAIN_STEPS = (10, 50, 100, 200)

# Documents the parser must reject with exit code 2.
MALFORMED = (
    '{"set": "BallInf", "center": [0, 0], "radius": ',
    '{"set": "Ball2", "center": [0, 0], "radius": 1}',
    '{"set": "Hyperrectangle", "center": [0, 0]}',
    '{"op": "MinkowskiSum", "args": [{"set": "BallInf", "center": [0, 0], "radius": 1}]}',
)


ChildResult = collections.namedtuple("ChildResult", "code out err")


def child_env(root: str, work: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(work, "pycache")
    return env


class _ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _ChildTimeout()


class Launcher:
    """Starts one child at a time and reaps it with ``wait4`` for its rusage.

    While a tracer is installed the child is ``cli_runner.py`` instead of
    ``-m setcalc``, and its spans are merged into the tracer.
    """

    def __init__(self, root: str, work: str):
        self.root = root
        self.env = child_env(root, work)
        self.out_path = os.path.join(work, "stdout.txt")
        self.err_path = os.path.join(work, "stderr.txt")
        self.spans_path = os.path.join(work, "spans.json")
        self.runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_runner.py")
        self.tracer = None
        self.peak_kb = 0  # largest child's peak resident memory
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, argv) -> ChildResult:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "setcalc", *argv]
        else:
            cmd = [sys.executable, self.runner, self.spans_path, *argv]
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.root, env=self.env)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _ChildTimeout:
                proc.kill()
                proc.wait()
                raise TimeoutError(f"child exceeded {CHILD_TIMEOUT_S} s: {argv}") from None
            finally:
                signal.alarm(0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            result = ChildResult(proc.returncode, out.read().decode(), err.read().decode())
        if self.tracer is not None and os.path.exists(self.spans_path):
            self.tracer.merge(self.spans_path)
            os.remove(self.spans_path)
        return result

    def install(self, tracer) -> None:
        self.tracer = tracer

    def uninstall(self) -> None:
        self.tracer = None


# Children start an interpreter and import numpy before any setcalc code
# runs, and that start-up does not speed up and slow down with the host the
# way in-process work does.  Their host-speed reference is therefore a child
# that only imports numpy; it contains no setcalc code, so a slower
# ``import setcalc`` still shows in the scaled times.
REFERENCE_CHILD_MS = 100.0
REFERENCE_PERIOD_S = 3.0


def numpy_child_ms(launcher: Launcher) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=launcher.root, env=launcher.env,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - start) * 1000.0


def startup_ms(launcher: Launcher, repeats: int = 5) -> float:
    """Median wall time of a child that only runs ``import setcalc``, after
    one untimed child has filled the bytecode cache."""
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import setcalc"], cwd=launcher.root,
                       env=launcher.env, check=True, timeout=CHILD_TIMEOUT_S)
        times.append((time.perf_counter() - start) * 1000.0)
    return float(np.median(times[1:]))


def probe_deep_doc(launcher: Launcher, steps: int = 300) -> tuple[int, dict]:
    """``support`` on a chain document nested deeper than the CLI reads today.

    Documents of 250 steps and more fail inside ``json.loads`` with a
    RecursionError, so the timed mix stops at 200 steps.  The input is the
    same on every seed.
    """
    spec = chain_spec(np.random.default_rng([2024, 3]), 2, steps)
    path = os.path.join(os.path.dirname(launcher.out_path), "deep-chain.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chain_doc(spec))
    result = launcher.run(["support", "--doc", path, "--dir=1,0"])
    if result.code == 0:
        return 1, {}
    last = result.err.strip().splitlines()[-1] if result.err.strip() else ""
    return 1, {f"exit code {result.code}: {last[:80]}": 1}


# -- documents, written by the benchmark's own code ----------------------------


def _leaf_doc(X) -> dict:
    kind = type(X).__name__
    if kind == "BallInf":
        return {"set": kind, "center": X.center.tolist(), "radius": float(X.radius)}
    if kind == "Hyperrectangle":
        return {"set": kind, "center": X.center.tolist(), "radius": X.radius.tolist()}
    if kind == "Zonotope":
        return {"set": kind, "center": X.center.tolist(), "generators": X.generators.tolist()}
    if kind == "VPolygon":
        return {"set": kind, "vertices": X.vertices.tolist()}
    raise ValueError(f"no document form for {kind}")


def tree_doc(X) -> dict:
    """Document of a shallow tree from the public node fields."""
    if not hasattr(X, "kind"):
        return _leaf_doc(X)
    out = {"op": X.kind, "args": [tree_doc(op) for op in X.operands]}
    if X.matrix is not None:
        out["matrix"] = np.asarray(X.matrix).tolist()
    if X.vector is not None:
        out["vector"] = np.asarray(X.vector).tolist()
    return out


def chain_doc(spec: dict) -> str:
    """Document text of a chain, built flat: json.dumps would recurse once per
    nesting level."""
    x0 = json.dumps({"set": "Zonotope", "center": spec["c0"].tolist(), "generators": spec["G0"].tolist()})
    box = json.dumps({"set": "Hyperrectangle", "center": spec["cE"].tolist(), "radius": spec["rE"].tolist()})
    head = '{"op": "MinkowskiSum", "args": [{"op": "LinearMap", "matrix": %s, "args": [' % json.dumps(spec["phi"].tolist())
    tail = "]}, %s]}" % box
    n = spec["steps"]
    return head * n + x0 + tail * n


def _rows(text: str) -> np.ndarray:
    return np.array([[float(v) for v in line.split(",")] for line in text.split()])


def _dir_arg(d) -> str:
    return "--dir=" + ",".join(repr(float(v)) for v in d)


class Docs:
    def __init__(self, work: str):
        self.dir = os.path.join(work, "docs")
        os.makedirs(self.dir, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


def _expect_ok(result: ChildResult) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.err.strip()[-200:]}"
    return None


def make_op(cls: str, inst: int, rng, docs: Docs, launcher: Launcher) -> Op:
    name = f"{cls}-{inst}"

    def op(argv, check, props, tree_nodes):
        def run():
            return launcher.run(argv)

        def checked(result):
            return _expect_ok(result) or check(result)

        props = dict(props, tree_nodes=tree_nodes, dag_nodes=tree_nodes)
        return Op(cls, inst, run, checked, props)

    if cls == "support_vector_chain":
        steps = CHAIN_STEPS[inst % len(CHAIN_STEPS)]
        spec = chain_spec(rng, 2, steps)
        path = docs.write(name + ".json", chain_doc(spec))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        d = np.array([math.cos(angle), math.sin(angle)])
        exact = memo(lambda: (oracles.chain_support(spec, d[None, :])[0], oracles.chain_support(spec, CHECK_DIRECTIONS)))

        def check(result):
            lines = result.out.split()
            value, vector = float(lines[0]), np.array([float(v) for v in lines[1].split(",")])
            rho, rho_all = exact()
            scale = float(np.max(np.abs(rho_all)))
            if not close(value, rho, scale) or not close(float(d @ vector), rho, scale):
                return f"support {value} / vector {vector.tolist()} disagree with rho {rho}"
            if np.max(CHECK_DIRECTIONS @ vector - rho_all) > 1e-7 * (1.0 + scale):
                return "support vector lies outside the set"
            return None

        return op(["support", "--doc", path, _dir_arg(d), "--vector"], check,
                  {"steps": steps, "dim": 2}, 1 + 3 * steps)

    if cls in ("overapprox_oct_chain", "overapprox_polar32_chain"):
        label = "oct" if cls == "overapprox_oct_chain" else "polar:32"
        steps = (10, 50)[inst % 2]
        spec = chain_spec(rng, 2, steps)
        path = docs.write(name + ".json", chain_doc(spec))
        D = unit_directions(8 if label == "oct" else 32)
        expected = memo(lambda: oracles.chain_support(spec, D))

        def check(result):
            rows = _rows(result.out)
            want = expected()
            if rows.shape != (D.shape[0], 3) or not np.allclose(rows[:, :2], D, rtol=0.0, atol=1e-12):
                return "template rows differ from the template directions"
            if not close(rows[:, 2], want, float(np.max(np.abs(want)))):
                return f"offsets differ from the closed form by {float(np.max(np.abs(rows[:, 2] - want))):.3g}"
            return None

        return op(["overapprox", "--doc", path, "--template", label], check,
                  {"steps": steps, "dim": 2, "template": D.shape[0]}, 1 + 3 * steps)

    if cls == "overapprox_eps_chain":
        # 50-step chains as in reach; on sparser inputs the eps-close result
        # can miss the set today (reach.probe_eps_hull counts it).
        spec = chain_spec(rng, 2, 50)
        path = docs.write(name + ".json", chain_doc(spec))
        exact = memo(lambda: oracles.chain_support(spec, CHECK_DIRECTIONS))

        def check(result):
            return oracles.eps_gap(_rows(result.out), exact(), EPS)

        return op(["overapprox", "--doc", path, "--eps", str(EPS)], check,
                  {"dim": 2, "steps": 50, "eps": EPS}, 151)

    if cls == "check_member_chain":
        spec = chain_spec(rng, 2, 10)
        path = docs.write(name + ".json", chain_doc(spec))
        c, G = oracles.chain_zonotope(spec)
        u = rng.normal(size=2)
        sigma = c + G @ np.where(u @ G >= 0.0, 1.0, -1.0)
        scale = rng.uniform(0.2, 0.8) if inst % 2 == 0 else rng.uniform(1.2, 1.6)
        point = c + scale * (sigma - c)
        point_path = docs.write(name + "-point.json", json.dumps(point.tolist()))
        expected = memo(lambda: oracles.zonotope_contains(c, G, point))

        def check(result):
            verdict = result.out.strip() == "true"
            if verdict != expected():
                return f"member verdict {result.out.strip()} but HiGHS says {expected()}"
            return None

        return op(["check", "--doc", path, "--doc2", point_path, "--relation", "member"], check,
                  {"steps": 10, "dim": 2, "generators": G.shape[1]}, 31)

    if cls in ("check_subset_pair", "check_disjoint_pair"):
        relation = cls.split("_")[1]
        VA, VB = geometry.polygon_pair(rng, relation, inside=inst % 2 == 0)
        path_a = docs.write(name + "-a.json", json.dumps({"set": "VPolygon", "vertices": VA.tolist()}))
        path_b = docs.write(name + "-b.json", json.dumps({"set": "VPolygon", "vertices": VB.tolist()}))
        expected = memo(lambda: geometry.pair_oracle(relation, VA, VB))

        def check(result):
            verdict = result.out.strip() == "true"
            if verdict != expected():
                return f"{relation} verdict {result.out.strip()} but the oracle says {expected()}"
            return None

        return op(["check", "--doc", path_a, "--doc2", path_b, "--relation", relation], check,
                  {"dim": 2, "vertices": VA.shape[0] + VB.shape[0]}, 1)

    if cls == "concretize_tree":
        depth = 2 + inst % 2
        tree, cloud = geometry.polygonal_tree(rng, depth)
        path = docs.write(name + ".json", json.dumps(tree_doc(tree)))
        expected = memo(lambda: oracles.hull_vertices(cloud))

        def check(result):
            doc = json.loads(result.out)
            if doc.get("set") != "VPolygon":
                return f"expected a VPolygon document, got {doc.get('set')!r}"
            return oracles.compare_polygon(doc["vertices"], expected())

        counts = node_counts(tree)
        return op(["concretize", "--doc", path], check, {"depth": depth, "dim": 2}, counts[0])

    if cls == "malformed_doc":
        path = docs.write(name + ".json", MALFORMED[inst % len(MALFORMED)])

        def run():
            return launcher.run(["support", "--doc", path, "--dir=1,0"])

        def check(result):
            if result.code != 2 or result.out:
                return f"malformed document gave exit code {result.code}, expected 2"
            return None

        return Op(cls, inst, run, check, {"malformed": inst % len(MALFORMED)})

    raise ValueError(f"unknown cli class {cls!r}")
