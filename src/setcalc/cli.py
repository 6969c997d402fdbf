"""Command-line front end: JSON set-expression documents in, text/CSV/SVG out.

Document format ("setcalc/1"): a JSON tree whose leaves are concrete sets,

    {"set": "BallInf", "center": [0, 0], "radius": 1.0}

and whose internal nodes are lazy operations,

    {"op": "MinkowskiSum", "args": [ ... , ... ]}
    {"op": "LinearMap", "matrix": [[...], [...]], "args": [ ... ]}

Matrices are row-major arrays of arrays.  Field names follow the set
constructors (center, radius, generators, normal, offset, vertices, lo/hi).

Exit codes: 0 success, 1 internal error, 2 bad arguments or malformed
input, 3 unsupported operation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import approximation, concrete_ops, lazyops, sets
from .errors import (
    DimensionMismatchError,
    DocumentError,
    SetcalcError,
    UnsupportedOperationError,
)
from .numerics import ToleranceContext, default_tolerance, set_default_tolerance

DOC_VERSION = "setcalc/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_ARGS = 2
EXIT_UNSUPPORTED = 3

# Set kind -> (class, fields): the fields are the constructor's arguments in
# order, stored on the set under the same names.  ``constraints`` is a list of
# {"normal", "offset"} objects.
_SET_FIELDS = {
    "BallInf": (sets.BallInf, ("center", "radius")),
    "Hyperrectangle": (sets.Hyperrectangle, ("center", "radius")),
    "Interval": (sets.Interval, ("lo", "hi")),
    "Zonotope": (sets.Zonotope, ("center", "generators")),
    "HalfSpace": (sets.HalfSpace, ("normal", "offset")),
    "Hyperplane": (sets.Hyperplane, ("normal", "offset")),
    "HPolyhedron": (sets.HPolyhedron, ("constraints",)),
    "HPolytope": (sets.HPolytope, ("constraints",)),
    "VPolygon": (sets.VPolygon, ("vertices",)),
    "VPolytope": (sets.VPolytope, ("vertices",)),
}


def _need(obj: dict, key: str, kind: str):
    if key not in obj:
        raise DocumentError(f"{kind} document is missing the {key!r} field")
    if key == "constraints":
        return [sets.HalfSpace(_need(c, "normal", kind), _need(c, "offset", kind)) for c in obj[key]]
    return obj[key]


def parse_node(obj):
    """Build a set or lazy node from one JSON object (dimensions validated).

    Leaves with the same canonical JSON text are built once and shared, as
    in the tree that was serialized."""
    return _parse(obj, {})


def _parse(obj, leaves):
    # ``leaves`` maps the canonical JSON text of each leaf built so far to its set.
    if not isinstance(obj, dict):
        raise DocumentError(f"expected a JSON object, got {type(obj).__name__}")
    if "set" in obj:
        kind = obj["set"]
        if kind not in _SET_FIELDS:
            raise DocumentError(f"unknown set kind {kind!r}")
        text = json.dumps(obj, sort_keys=True)
        if text in leaves:
            return leaves[text]
        cls, fields = _SET_FIELDS[kind]
        try:
            leaves[text] = cls(*[_need(obj, key, kind) for key in fields])
        except (ValueError, DimensionMismatchError) as exc:
            raise DocumentError(f"invalid {kind} document: {exc}") from exc
        return leaves[text]
    if "op" in obj:
        kind = obj["op"]
        args = [_parse(a, leaves) for a in _need(obj, "args", kind)]
        try:
            return lazyops.make_node(kind, args, obj.get("matrix"), obj.get("vector"))
        except UnsupportedOperationError:
            raise DocumentError(f"unknown operation kind {kind!r}") from None
        except (ValueError, DimensionMismatchError) as exc:
            raise DocumentError(f"invalid {kind} node: {exc}") from exc
    raise DocumentError("each node needs a 'set' or an 'op' field")


def parse_doc(text: str):
    """Parse a document string into a validated expression tree (one nested
    past the recursion limit is a ``DocumentError`` too)."""
    try:
        data = json.loads(text)
        if isinstance(data, dict) and "version" in data:
            if data["version"] != DOC_VERSION:
                raise DocumentError(f"unsupported document version {data['version']!r}")
            data = {k: v for k, v in data.items() if k != "version"}
        return parse_node(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise DocumentError("the document nests too deeply to read") from None


def serialize_node(X) -> dict:
    if isinstance(X, lazyops.LazyNode):
        out = {"op": X.kind, "args": [serialize_node(op) for op in X.operands]}
        if X.matrix is not None:
            out["matrix"] = np.asarray(X.matrix).tolist()
        if X.vector is not None:
            out["vector"] = np.asarray(X.vector).tolist()
        return out
    kind = type(X).__name__
    if kind not in _SET_FIELDS:
        raise UnsupportedOperationError(f"cannot serialize {kind}")
    out = {"set": kind}
    for key in _SET_FIELDS[kind][1]:
        out[key] = (
            [{"normal": a.tolist(), "offset": float(c)} for a, c in zip(X.A, X.b)]
            if key == "constraints"
            else np.asarray(getattr(X, key)).tolist()
        )
    return out


def serialize_doc(X) -> str:
    """Document text (with version field) for a set or expression tree."""
    try:
        return json.dumps({"version": DOC_VERSION, **serialize_node(X)})
    except RecursionError:
        raise UnsupportedOperationError("cannot serialize a tree nested this deeply") from None


# ---------------------------------------------------------------------------
# Output helpers.


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_out(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv(rows) -> str:
    # One line per vertex, or per constraint as its normal and offset.
    return "\n".join(",".join(_fmt(v) for v in row) for row in rows) + "\n"


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def render_svg(polygons: list[np.ndarray]) -> str:
    """Deterministic SVG: one polygon element per set, fitted viewBox.

    Input polygons are counter-clockwise vertex arrays in data coordinates;
    the y axis is flipped inside the document so larger y renders upward.
    """
    points = np.vstack([p for p in polygons if len(p) > 0])
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * float(span.max())
    lo = lo - margin
    hi = hi + margin
    width = hi[0] - lo[0]
    height = hi[1] - lo[1]
    flip = lo[1] + hi[1]
    stroke = 0.01 * max(width, height)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(lo[0])} {_fmt(lo[1])} {_fmt(width)} {_fmt(height)}">',
        f'<g transform="matrix(1,0,0,-1,0,{_fmt(flip)})">',
    ]
    for index, polygon in enumerate(polygons):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in polygon)
        lines.append(
            f'<polygon points="{coords}" fill="{color}" fill-opacity="0.35" '
            f'stroke="{color}" stroke-width="{_fmt(stroke)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def _load_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read document {path!r}: {exc}") from exc
    return parse_doc(text)


def _parse_dir(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise DocumentError(f"bad direction {text!r}: {exc}") from exc


def _parse_template(label: str, dim: int):
    if label == "box":
        return approximation.box_template(dim)
    if label == "oct":
        return approximation.oct_template(dim)
    if label.startswith("polar:"):
        return approximation.polar_template(int(label.split(":", 1)[1]))
    if label.startswith("custom:"):
        path = label.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                dirs = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise DocumentError(f"cannot read custom directions {path!r}: {exc}") from exc
        return approximation.custom_template(dirs)
    raise DocumentError(f"unknown template {label!r}")


def cmd_support(args) -> int:
    tree = _load_doc(args.doc)
    values, vectors = tree.support_batch(_parse_dir(args.dir)[None], vectors=args.vector)
    print(_fmt(values[0]))
    if args.vector:
        print(",".join(_fmt(v) for v in vectors[0]))
    return EXIT_OK


def cmd_overapprox(args) -> int:
    tree = _load_doc(args.doc)
    if (args.template is None) == (args.eps is None):
        raise DocumentError("choose exactly one of --template and --eps")
    if args.eps is not None:
        result = approximation.overapproximate_eps_2d(tree, args.eps)
        rows = result.vertices_list()
    else:
        result = approximation.overapproximate_template(tree, _parse_template(args.template, tree.dim))
        rows = np.column_stack((result.A, result.b))
    _write_out(serialize_doc(result) + "\n" if args.format == "json" else _csv(rows), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    tree_a = _load_doc(args.doc)
    if args.relation == "member":
        try:
            with open(args.doc2, "r", encoding="utf-8") as handle:
                literal = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise DocumentError(f"cannot read point literal {args.doc2!r}: {exc}") from exc
        if isinstance(literal, dict):
            literal = literal.get("point", literal)
        point = np.array(literal, dtype=float).reshape(-1)
        try:
            verdict = lazyops.lazy_membership(point, tree_a)
        except UnsupportedOperationError:
            # Outside the boolean fragment; exact via concretization when
            # the tree allows it.
            verdict = sets.membership(point, lazyops.concretize(tree_a))
    else:
        tree_b = _load_doc(args.doc2)
        relation = getattr(concrete_ops, f"is_{args.relation}")
        # Inclusion reads only support values of the first operand.
        first = tree_a if args.relation == "subset" else lazyops.concretize(tree_a)
        verdict = relation(first, lazyops.concretize(tree_b))
    print("true" if verdict else "false")
    return EXIT_OK


def cmd_concretize(args) -> int:
    concrete = lazyops.concretize(_load_doc(args.doc))
    text = _csv(concrete.vertices_list()) if args.format == "csv" else serialize_doc(concrete) + "\n"
    _write_out(text, args.out)
    return EXIT_OK


def cmd_plot(args) -> int:
    polygons = []
    for path in args.doc:
        tree = _load_doc(path)
        if tree.dim != 2:
            print(f"error: {path} is not 2-D", file=sys.stderr)
            return EXIT_BAD_ARGS
        polygons.append(concrete_ops._to_polygon(lazyops.concretize(tree), default_tolerance()).vertices)
    if not any(len(P) for P in polygons):
        raise DocumentError("every set to plot is empty")
    _write_out(render_svg(polygons), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setcalc", description="Queries and approximations over convex-set expressions."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("support", help="support function (and vector) along a direction")
    p.add_argument("--doc", required=True, help="set-expression JSON file")
    p.add_argument("--dir", required=True, help="direction as comma-separated numbers")
    p.add_argument("--vector", action="store_true", help="also print a support vector")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("overapprox", help="outer approximation (template or eps-close)")
    p.add_argument("--doc", required=True)
    p.add_argument("--template", help="box | oct | polar:K | custom:FILE")
    p.add_argument("--eps", type=float, help="Hausdorff tolerance (2-D only)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_overapprox)

    p = sub.add_parser("check", help="binary set predicates")
    p.add_argument("--doc", required=True, help="first operand document")
    p.add_argument("--doc2", required=True, help="second operand (or point literal for member)")
    p.add_argument(
        "--relation", required=True, choices=("subset", "disjoint", "equivalent", "member")
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("concretize", help="evaluate a lazy expression into a concrete set")
    p.add_argument("--doc", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_concretize)

    p = sub.add_parser("plot", help="render 2-D sets to SVG")
    p.add_argument("--doc", action="append", required=True, help="repeatable")
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    env_atol = os.environ.get("SETCALC_TOLERANCE_ATOL")
    if env_atol is not None:
        try:
            set_default_tolerance(ToleranceContext(atol=float(env_atol)))
        except ValueError:
            print(f"error: bad SETCALC_TOLERANCE_ATOL {env_atol!r}", file=sys.stderr)
            return EXIT_BAD_ARGS

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedOperationError as exc:
        print(f"unsupported operation: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DocumentError, DimensionMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SetcalcError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
