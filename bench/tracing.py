"""Spans around setcalc's entry points, installed only for the traced run.

``Tracer.install()`` replaces each entry point below with a wrapper that
records a span (layer, parent span, start, end) and ``uninstall()`` puts the
originals back, so an untraced run executes no benchmark code inside the
library at all.  A function is replaced in every setcalc module that bound it
(``from .numerics import solve_lp`` makes ``sets.solve_lp`` a second name for
the same object), and a method is replaced on every class that defines it.

Spans are kept in one flat ``array('d')`` of four numbers each and turned into
per-layer totals when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layer name -> (module, names).  A dotted name "Class.method" is wrapped on
# that class and on every subclass in the module that overrides the method.
ENTRY_POINTS = {
    "sets.support.box": ("sets", ("AbstractHyperrectangle.support_function", "AbstractHyperrectangle.support_vector")),
    "sets.support.zonotope": ("sets", ("Zonotope.support_function", "Zonotope.support_vector")),
    "sets.support.vpolygon": ("sets", ("VPolygon.support_function", "VPolygon.support_vector")),
    "sets.support.hpoly": ("sets", ("HPolyhedron.support_function", "HPolyhedron.support_vector")),
    "sets.contains.zonotope": ("sets", ("Zonotope.contains",)),
    "sets.vertices": ("sets", (
        "AbstractHyperrectangle.vertices_list", "Zonotope.vertices_list", "HPolyhedron.vertices_list",
        "VPolygon.vertices_list", "VPolytope.vertices_list",
    )),
    "sets.hull": ("sets", ("VPolygon.__init__",)),
    "numerics.lp": ("numerics", ("solve_lp",)),
    "lazyops.support": ("lazyops", ("lazy_support_function", "lazy_support_vector")),
    "lazyops.concretize": ("lazyops", ("concretize",)),
    "lazyops.membership": ("lazyops", ("lazy_membership",)),
    "concrete_ops.minkowski": ("concrete_ops", ("minkowski_sum", "_polygon_minkowski")),
    "concrete_ops.predicates": ("concrete_ops", ("is_subset", "is_disjoint", "is_empty", "is_equivalent")),
    "conversion.tovrep": ("conversion", ("tovrep",)),
    "conversion.tohrep": ("conversion", ("tohrep",)),
    "approximation.template": ("approximation", ("overapproximate_template",)),
    "approximation.eps": ("approximation", ("overapproximate_eps_2d",)),
    "approximation.zonofit": ("approximation", ("overapproximate_zonotope",)),
    "approximation.under": ("approximation", ("underapproximate",)),
    "approximation.box": ("approximation", ("box_approximation",)),
    "cli.parse": ("cli", ("parse_doc",)),
    "cli.serialize": ("cli", ("serialize_doc",)),
    "cli.command": ("cli", ("cmd_support", "cmd_overapprox", "cmd_check", "cmd_concretize")),
}

LAYERS = tuple(ENTRY_POINTS)
ROOT = len(LAYERS)  # the benchmark's own span around one operation
_LP = LAYERS.index("numerics.lp")


class Tracer:
    def __init__(self):
        self.spans = array("d")  # layer, parent, start, end per span
        self.errors = {}  # span index -> exception type name
        self.lp = Counter()  # infeasible / unbounded / cells
        self.lp_sizes = []  # (rows, cols) of every LP, for the operation records
        self._stack = []
        self._plan = None

    # -- recording ---------------------------------------------------------

    def _open(self, layer: int) -> int:
        index = len(self.spans) // 4
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((layer, parent, time.perf_counter(), 0.0))
        self._stack.append(index)
        return index

    def _close(self, index: int, depth: int) -> None:
        self.spans[4 * index + 3] = time.perf_counter()
        del self._stack[depth:]

    @contextlib.contextmanager
    def root(self):
        """The span around one benchmark operation."""
        depth = len(self._stack)
        index = self._open(ROOT)
        try:
            yield
        except BaseException as exc:
            self.errors[index] = type(exc).__name__
            raise
        finally:
            self._close(index, depth)

    def _wrapper(self, layer: int, fn):
        tracer = self
        is_lp = layer == _LP

        def wrapper(*args, **kwargs):
            depth = len(tracer._stack)
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[index] = type(exc).__name__
                raise
            finally:
                tracer._close(index, depth)
            if is_lp:
                tracer._count_lp(args[0], result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_lp(self, lp, outcome) -> None:
        # Tableau size of the dense simplex, m * (2n + m), computed from the
        # LP's inputs rather than read from the solver.
        rows, cols = lp.normals.shape
        self.lp["cells"] += rows * (2 * cols + rows)
        self.lp_sizes.append((rows, cols))
        status = outcome.status.value
        if status in ("infeasible", "unbounded"):
            self.lp[status] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _build_plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "setcalc" and m is not None]
        plan = []
        for layer, (module_name, names) in ENTRY_POINTS.items():
            module = sys.modules.get("setcalc." + module_name)
            if module is None:
                continue
            code = LAYERS.index(layer)
            for name in names:
                if "." in name:
                    class_name, method = name.split(".")
                    base = getattr(module, class_name, None)
                    for cls in vars(module).values():
                        if base is not None and isinstance(cls, type) and issubclass(cls, base) and method in vars(cls):
                            original = vars(cls)[method]
                            plan.append((cls, method, original, self._wrapper(code, original)))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self._wrapper(code, original)
                for mod in modules:
                    plan.extend((mod, attr, original, wrapper) for attr, value in vars(mod).items() if value is original)
        return plan

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans for a parent process to merge (CLI runner)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": self.spans.tolist(),
                "errors": {str(k): v for k, v in self.errors.items()},
                "lp": dict(self.lp),
                "lp_sizes": self.lp_sizes,
            }, handle)

    def merge(self, path: str) -> None:
        """Append a child's spans below the currently open span."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        offset = len(self.spans) // 4
        parent = self._stack[-1] if self._stack else -1
        spans = np.array(data["spans"], dtype=float).reshape(-1, 4)
        spans[:, 1] = np.where(spans[:, 1] < 0, parent, spans[:, 1] + offset)
        self.spans.extend(spans.reshape(-1).tolist())
        for key, name in data["errors"].items():
            self.errors[int(key) + offset] = name
        self.lp.update(data["lp"])
        self.lp_sizes.extend(tuple(size) for size in data["lp_sizes"])

    def layer_totals(self) -> dict:
        """Per layer: calls, self_ms, failed, and the failing exception types."""
        spans = np.frombuffer(self.spans, dtype=float).reshape(-1, 4)
        layer = spans[:, 0].astype(int)
        parent = spans[:, 1].astype(int)
        duration = spans[:, 3] - spans[:, 2]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(spans))
        self_time = duration - covered
        calls = np.bincount(layer, minlength=ROOT + 1)
        self_ms = np.bincount(layer, weights=self_time, minlength=ROOT + 1) * 1000.0
        failures = Counter()
        for index, name in self.errors.items():
            failures[(int(layer[index]), name)] += 1
        out = {}
        for code, name in enumerate(LAYERS + ("bench.op",)):
            kinds = {exc: n for (lay, exc), n in failures.items() if lay == code}
            out[name] = {
                "calls": int(calls[code]),
                "self_ms": float(self_ms[code]),
                "failed": sum(kinds.values()),
                "exceptions": kinds,
            }
        return out
