#!/usr/bin/env python3
"""setcalc benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload reach|geometry|cli --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
process issues one operation at a time, each after the previous one finished
(for ``cli``, one child process at a time).  Inputs come from ``--seed``;
every answer is checked against an independent oracle after the timed loop.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every operation runs twice, untraced
and traced in alternating order, and the JSON carries per-layer metrics.
Lines before it are a readable report, and the full record (environment,
every operation with its input properties) goes to ``bench/results/``.
See ``bench/README.md`` for the workloads and metrics.
"""

import os

# Pin BLAS to one thread before numpy loads; children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from array import array

import numpy as np

import calibration

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
RESULTS = os.path.join(BENCH, "results")

WORKLOADS = ("reach", "geometry", "cli")
SETUP_SAMPLES = 3
PROBES = ("deep_chain", "eps_hull", "deep_doc")


def import_library():
    """Import setcalc from this checkout's ``src`` or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import setcalc
    except ImportError as exc:
        sys.exit(f"bench: cannot import setcalc from {SRC}: {exc}")
    if not os.path.abspath(setcalc.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: setcalc was imported from {setcalc.__file__}, not from {SRC}")
    return setcalc


def workload_module(name: str):
    if name == "reach":
        import reach as module
    elif name == "geometry":
        import geometry as module
    else:
        import cliwork as module
    return module


def class_rng(seed: int, cls: str):
    return np.random.default_rng([seed, zlib.crc32(cls.encode())])


class Prepared:
    """Inputs of one run: the class schedule and a pool of ops per class."""

    def __init__(self, workload: str, seed: int, work: str):
        module = workload_module(workload)
        self.schedule = module.SCHEDULE
        self.launcher = None
        self.reference = calibration.Calibration()
        extra = ()
        if workload == "cli":
            os.makedirs(work, exist_ok=True)
            self.launcher = module.Launcher(ROOT, work)
            self.reference = calibration.Calibration(
                lambda: module.numpy_child_ms(self.launcher), module.REFERENCE_PERIOD_S, module.REFERENCE_CHILD_MS)
            extra = (module.Docs(work), self.launcher)
        self.pools = {}
        for cls in dict.fromkeys(self.schedule):
            rng = class_rng(seed, cls)
            self.pools[cls] = [module.make_op(cls, i, rng, *extra) for i in range(module.POOL)]
        if self.launcher is not None:
            # Fill the benchmark-owned bytecode cache; one child suffices, as
            # every subcommand imports the same modules.
            self.pools[self.schedule[0]][0].run()


def setup_probe(args) -> None:
    """Set up once in this fresh process and report the time since spawn."""
    work = os.path.join(WORK, f"probe-{os.getpid()}")
    try:
        import_library()
        Prepared(args.workload, args.seed, work)
        elapsed = time.perf_counter() - args.setup_probe
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args) -> list:
    """``SETUP_SAMPLES`` fresh processes, each timed from its spawn to the
    point where the first timed operation would start: (raw, scaled) seconds,
    scaled by reference samples taken just before and after the process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        reference = calibration.reference_samples()
        spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-probe", repr(spawn)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        reference += calibration.reference_samples()
        samples.append((raw, raw * calibration.REFERENCE_MS / statistics.median(reference)))
    return samples


class Record:
    """One operation's outcome, built from the Log after the timed loop."""

    __slots__ = ("op", "seconds", "scaled", "answer", "error", "mismatch", "repeat", "traced", "lp")

    def __init__(self, op, seconds, answer, error, repeat, traced, lp):
        self.op = op
        self.seconds = seconds
        self.scaled = None  # host-speed-scaled seconds, untraced runs only
        self.answer = answer  # key of the answer in the log's answer table
        self.error = error
        self.mismatch = None
        self.repeat = repeat
        self.traced = traced
        self.lp = lp

    @property
    def ok(self) -> bool:
        return self.error is None and self.mismatch is None


def digest(result) -> bytes:
    """Short identity of an answer, from the public fields of its type."""
    if hasattr(result, "code"):  # a CLI child
        data = repr((result.code, result.out)).encode()
    elif isinstance(result, (list, tuple)):
        data = b"|".join(digest(item) for item in result)
    elif not hasattr(result, "__dict__"):
        data = repr(result).encode()
    else:
        parts = [type(result).__name__.encode()]
        for name in ("vertices", "center", "radius", "generators"):
            value = getattr(result, name, None)
            if value is not None:
                parts.append(np.asarray(value).tobytes())
        for c in getattr(result, "constraints", ()):
            parts.append(c.normal.tobytes() + np.float64(c.offset).tobytes())
        data = b"".join(parts)
    return hashlib.blake2b(data, digest_size=16).digest()


class Log:
    """Outcomes of the timed loop in flat arrays.

    A Python object per operation would make peak memory grow with the
    number of operations a run completes; the arrays cost a few bytes each.
    Only one copy of each distinct answer is kept, for the oracle.
    """

    def __init__(self):
        self.ops = []  # distinct operations, in order of first use
        self.answers = {}  # (class, input, digest) -> (op, result)
        self._op_index = {}
        self._keys = []
        self._key_index = {}
        self.op = array("l")
        self.start = array("d")
        self.seconds = array("d")
        self.answer = array("l")  # index into the answer keys, -1 on error
        self.flags = array("b")  # 1: repeat use of the input, 2: traced
        self.errors = {}  # row -> exception type name
        self.lp = {}  # row -> (rows, cols) of each LP, traced rows only

    def timed(self, op, repeat: bool, traced: bool) -> None:
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation failure is data, not a crash
            result, error = None, type(exc).__name__
        elapsed = time.perf_counter() - start
        row = len(self.seconds)
        if id(op) not in self._op_index:
            self._op_index[id(op)] = len(self.ops)
            self.ops.append(op)
        answer = -1
        if error is None:
            key = (op.cls, op.inst, digest(result))
            if key not in self._key_index:
                self._key_index[key] = len(self._keys)
                self._keys.append(key)
                self.answers[key] = (op, result)
            answer = self._key_index[key]
        else:
            self.errors[row] = error
        self.op.append(self._op_index[id(op)])
        self.start.append(start)
        self.seconds.append(elapsed)
        self.answer.append(answer)
        self.flags.append(int(repeat) | 2 * int(traced))

    def records(self) -> list:
        return [
            Record(self.ops[self.op[i]], self.seconds[i],
                   self._keys[self.answer[i]] if self.answer[i] >= 0 else None,
                   self.errors.get(i), bool(self.flags[i] & 1), bool(self.flags[i] & 2), self.lp.get(i))
            for i in range(len(self.seconds))
        ]


def run_loop(prepared: Prepared, seconds: float, tracer=None):
    """Closed loop over the schedule until ``seconds`` have passed.

    Untraced runs time the calibration reference between operations, before
    and after any operation longer than its sampling period.  With a
    tracer every scheduled operation runs untraced and traced, the order
    alternating, so both see the same inputs and machine state.
    """
    log = Log()
    reference = prepared.reference
    uses = dict.fromkeys(prepared.pools, 0)
    if tracer is None:
        install = uninstall = None
    elif prepared.launcher is not None:
        install, uninstall = (lambda: prepared.launcher.install(tracer)), prepared.launcher.uninstall
    else:
        install, uninstall = tracer.install, tracer.uninstall
    if prepared.launcher is not None:
        prepared.launcher.peak_kb = 0
    start = time.perf_counter()
    deadline = start + seconds
    step = 0
    while time.perf_counter() < deadline:
        cls = prepared.schedule[step % len(prepared.schedule)]
        pool = prepared.pools[cls]
        op = pool[uses[cls] % len(pool)]
        repeat = uses[cls] >= len(pool)
        uses[cls] += 1
        if tracer is None:
            reference.maybe_sample()
            log.timed(op, repeat, False)
            reference.maybe_sample()
        else:
            for traced in ((False, True) if step % 2 == 0 else (True, False)):
                if not traced:
                    log.timed(op, repeat, False)
                    continue
                first_lp = len(tracer.lp_sizes)
                install()
                try:
                    with tracer.root():
                        log.timed(op, repeat, True)
                finally:
                    uninstall()
                log.lp[len(log.seconds) - 1] = tracer.lp_sizes[first_lp:]
        step += 1
    if tracer is None:
        reference.sample()
    return log, reference, time.perf_counter() - start


def verify(records, answers: dict) -> None:
    """Check every distinct answer against its oracle."""
    verdicts = {}
    for key, (op, result) in answers.items():
        try:
            verdicts[key] = op.check(result)
        except Exception as exc:  # an unreadable answer is a wrong answer
            verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
    for rec in records:
        if rec.error is None:
            rec.mismatch = verdicts[rec.answer]


def percentile_ms(values, fraction: float, window_ms: float) -> float:
    """Nearest-rank percentile; failed operations are +inf, and a percentile
    that lands on one reads as the whole measurement window."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
    return window_ms if math.isinf(value) else value


def end_to_end(records, scaled, setup_samples, peak_rss_mb: float, seconds: float) -> dict:
    """Timing metrics use the host-speed-scaled durations (calibration.py)."""
    attempted = len(records)
    completed = sum(rec.ok for rec in records)
    latencies = [t * 1000.0 if rec.ok else math.inf for rec, t in zip(records, scaled)]
    window_ms = seconds * 1000.0
    return {
        "ops_per_s": {"value": completed / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": percentile_ms(latencies, 0.5, window_ms), "unit": "ms"},
        "op_p90_ms": {"value": percentile_ms(latencies, 0.9, window_ms), "unit": "ms"},
        "ok_frac": {"value": completed / attempted, "unit": "1"},
        "setup_s": {"value": statistics.median(s for _, s in setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run_probes(workload: str, launcher) -> dict:
    """Known-defect probes on fixed inputs, outside the timed operations.

    Every probe name is reported on every workload; a workload runs only the
    probes that belong to its layers.
    """
    import cliwork
    import reach

    own = {
        "reach": {"deep_chain": reach.probe_deep_chain, "eps_hull": reach.probe_eps_hull},
        "cli": {"deep_doc": lambda: cliwork.probe_deep_doc(launcher)},
    }.get(workload, {})
    return {name: own[name]() if name in own else (0, {}) for name in PROBES}


def per_layer(records, tracer, startup_ms, probes) -> tuple:
    import tracing
    from common import node_counts

    totals = tracer.layer_totals()
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = {"value": totals[layer]["calls"], "unit": "count"}
        metrics[f"{layer}.self_ms"] = {"value": totals[layer]["self_ms"], "unit": "ms"}
        metrics[f"{layer}.failed"] = {"value": totals[layer]["failed"], "unit": "count"}
    for status in ("infeasible", "unbounded", "cells"):
        metrics[f"numerics.lp.{status}"] = {"value": tracer.lp.get(status, 0), "unit": "count"}
    tree = dag = 0
    counted = {}
    for rec in records:
        if not rec.traced:
            continue
        op = rec.op
        if op.tree is not None:
            if id(op) not in counted:
                counted[id(op)] = node_counts(op.tree)
            op.props["tree_nodes"], op.props["dag_nodes"] = counted[id(op)]
        tree += op.props.get("tree_nodes", 0)
        dag += op.props.get("dag_nodes", 0)
    metrics["lazyops.tree_nodes"] = {"value": tree, "unit": "count"}
    metrics["lazyops.dag_nodes"] = {"value": dag, "unit": "count"}
    metrics["cli.startup_ms"] = {"value": startup_ms, "unit": "ms"}
    metrics["trace.ops"] = {"value": sum(rec.traced for rec in records), "unit": "count"}
    untraced = sum(rec.seconds for rec in records if not rec.traced)
    traced = sum(rec.seconds for rec in records if rec.traced)
    metrics["trace.overhead"] = {"value": traced / untraced, "unit": "ratio"}
    for name, (attempted, failures) in probes.items():
        metrics[f"probe.{name}.attempted"] = {"value": attempted, "unit": "count"}
        metrics[f"probe.{name}.failed"] = {"value": sum(failures.values()), "unit": "count"}
        totals[f"probe.{name}"] = {"calls": attempted, "failed": sum(failures.values()), "exceptions": failures}
    return metrics, totals


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=%s)" % os.environ.get("OPENBLAS_NUM_THREADS")


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def op_records(records) -> list:
    out = []
    for rec in records:
        row = {"class": rec.op.cls, "inst": rec.op.inst, "ms": rec.seconds * 1000.0, "ok": rec.ok,
               "repeat": rec.repeat, "traced": rec.traced, **rec.op.props}
        if rec.scaled is not None:
            row["scaled_ms"] = rec.scaled * 1000.0
        if rec.error is not None:
            row["error"] = rec.error
        if rec.mismatch is not None:
            row["mismatch"] = rec.mismatch
        if rec.lp is not None:
            row["lp_count"] = len(rec.lp)
            row["lp_rows_max"] = max((r for r, _ in rec.lp), default=0)
            row["lp_cols_max"] = max((c for _, c in rec.lp), default=0)
        out.append(row)
    return out


def report(env, records, metrics, totals) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    by_class = {}
    for rec in records:
        by_class.setdefault((rec.op.cls, rec.traced), []).append(rec)
    for (cls, traced), recs in sorted(by_class.items()):
        ok = [r.seconds * 1000.0 for r in recs if r.ok]
        median = statistics.median(ok) if ok else float("nan")
        note = " traced" if traced else ""
        print(f"  {cls:28s}{note:7s} n={len(recs):5d} failed={len(recs) - len(ok):3d} p50={median:9.3f} ms")
    for rec in records:
        if rec.mismatch is not None:
            print(f"  WRONG {rec.op.cls}#{rec.op.inst}: {rec.mismatch}")
            break
    for name, metric in metrics.items():
        print(f"{name:38s} {metric['value']:>16.6g} {metric['unit']}")
    for layer, total in (totals or {}).items():
        if total["exceptions"]:
            kinds = ", ".join(f"{k} x{n}" for k, n in total["exceptions"].items())
            print(f"failures in {layer}: {kinds}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    # One CPU for the benchmark and its children: the calibration reference
    # must run where the operations run, and the vCPUs of a virtual machine
    # can differ in speed at the same moment.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_library()
    setup_samples = [] if args.trace else measure_setup(args)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        prepared = Prepared(args.workload, args.seed, work)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        log, reference, wall = run_loop(prepared, args.seconds, tracer)
        if prepared.launcher is not None:
            peak_kb = prepared.launcher.peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = log.records()
        startup = probes = None
        if args.trace:
            import cliwork

            os.makedirs(work, exist_ok=True)
            launcher = prepared.launcher or cliwork.Launcher(ROOT, work)
            startup = cliwork.startup_ms(launcher)
            probes = run_probes(args.workload, launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verify(records, log.answers)
    env = environment(args)
    totals = None
    if args.trace:
        metrics, totals = per_layer(records, tracer, startup, probes)
    else:
        scaled = np.asarray(log.seconds) * reference.factors(log.start)
        for rec, value in zip(records, scaled):
            rec.scaled = float(value)
        metrics = end_to_end(records, scaled.tolist(), setup_samples, peak_kb / 1024.0, args.seconds)
    attempted = len(records)
    failed = sum(not rec.ok for rec in records)
    wrong = sum(rec.mismatch is not None for rec in records)

    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "metrics": metrics, "setup_samples_s": setup_samples,
                   "wall_s": wall, "reference_ms": list(reference.ms),
                   "attempted": attempted, "failed": failed, "wrong": wrong,
                   "layers": totals, "operations": op_records(records)}, handle, indent=1)

    report(env, records, metrics, totals)
    if not args.trace:
        print(f"raw wall clock: {sum(r.ok for r in records) / wall:.6g} ops/s over {wall:.3f} s; "
              f"host-speed reference median {statistics.median(reference.ms):.4f} ms "
              f"(speed 1 at {reference.reference} ms)")
    print(f"results written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
