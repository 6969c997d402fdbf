import json
import os
import subprocess
import sys

import numpy as np
import pytest

import setcalc as sc
from setcalc.cli import main, parse_doc, render_svg, serialize_doc
from setcalc.errors import DocumentError, UnsupportedOperationError

OMEGA_DOC = {
    "op": "ConvexHullUnion",
    "args": [
        {"set": "BallInf", "center": [1.0, 0.0], "radius": 0.1},
        {
            "op": "MinkowskiSum",
            "args": [
                {
                    "op": "LinearMap",
                    "matrix": [[0.95105652, 0.02459079], [-3.88322208, 0.95105652]],
                    "args": [{"set": "BallInf", "center": [1.0, 0.0], "radius": 0.1}],
                },
                {
                    "set": "Hyperrectangle",
                    "center": [0.0, 0.0],
                    "radius": [0.05477208, 0.07676220],
                },
            ],
        },
    ],
}

POLYGON_DOC = {
    "set": "VPolygon",
    "vertices": [[-3, 0.6], [-2, -2], [0, -2], [1, -1], [2, 1], [0, 2], [-0.8, 1.8]],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_doc_leaf():
    X = parse_doc('{"set": "BallInf", "center": [0, 0], "radius": 1}')
    assert isinstance(X, sc.BallInf)
    assert X.dim == 2 and X.radius == 1.0


def test_parse_doc_tree_structure():
    tree = parse_doc(json.dumps(OMEGA_DOC))
    assert tree.kind == "ConvexHullUnion"
    assert tree.depth() == 4
    assert tree.num_leaves() == 3
    assert sc.lazy_support_function([-1.0, 1.0], tree) == pytest.approx(-0.8, abs=1e-9)


def test_parse_doc_errors():
    with pytest.raises(DocumentError) as info:
        parse_doc('{"set": "BallInf", "center": [0, 0] "radius": 1}')
    assert "byte offset" in str(info.value)
    with pytest.raises(DocumentError):
        parse_doc('{"set": "Ellipsoid", "center": [0, 0]}')
    with pytest.raises(DocumentError):
        parse_doc('{"op": "Rectification", "args": [{"set": "Interval", "lo": 0, "hi": 1}]}')
    mismatch = {
        "op": "MinkowskiSum",
        "args": [
            {"set": "BallInf", "center": [0, 0], "radius": 1},
            {"set": "BallInf", "center": [0, 0, 0], "radius": 1},
        ],
    }
    with pytest.raises(DocumentError) as info:
        parse_doc(json.dumps(mismatch))
    assert "dimension" in str(info.value)
    stray = {
        "op": "MinkowskiSum",
        "vector": [5, 5],
        "args": [
            {"op": "LinearMap", "matrix": [[1, 0], [0, 1]], "args": [{"set": "BallInf", "center": [0, 0], "radius": 1}]},
            {"set": "BallInf", "center": [0, 0], "radius": 1},
        ],
    }
    with pytest.raises(DocumentError) as info:
        parse_doc(json.dumps(stray))
    assert "takes no vector payload" in str(info.value)
    with pytest.raises(DocumentError) as info:
        parse_doc(_deep_doc(1000))
    assert "nests too deeply" in str(info.value)


def _deep_doc(steps):
    """A chain of translations nested past what ``json.loads`` reads at the
    default recursion limit, built flat."""
    leaf = '{"set": "BallInf", "center": [0, 0], "radius": 1}'
    return '{"op": "Translation", "vector": [1, 0], "args": [' * steps + leaf + "]}" * steps


def test_serialize_doc_of_a_tree_too_deep_raises_a_typed_error():
    X = sc.BallInf([0.0, 0.0], 1.0)
    for _ in range(3000):
        X = sc.make_node("Translation", [X], vector=[1.0, 0.0])
    with pytest.raises(UnsupportedOperationError):
        serialize_doc(X)


def test_doc_roundtrip_structural_equality():
    tree = parse_doc(json.dumps(OMEGA_DOC))
    again = parse_doc(serialize_doc(tree))
    assert again == tree
    for doc in (
        {"set": "Interval", "lo": 0.0, "hi": 1.0},
        {"set": "Zonotope", "center": [0.5], "generators": [[0.5, 0.25]]},
        {"set": "HalfSpace", "normal": [1.0, 2.0], "offset": 3.0},
        {"set": "HPolytope", "constraints": [
            {"normal": [1.0], "offset": 1.0}, {"normal": [-1.0], "offset": 0.0}]},
        {"set": "VPolytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 1]]},
        POLYGON_DOC,
        {"set": "Hyperplane", "normal": [0.0, 1.0], "offset": -2.0},
        {"set": "HPolyhedron", "constraints": [
            {"normal": [1.0, 0.0], "offset": 1.0}, {"normal": [0.0, 1.0], "offset": 2.0}]},
        {"op": "AffineMap", "matrix": [[1.0, 2.0], [0.0, 1.0]], "vector": [0.5, -0.5],
         "args": [{"set": "BallInf", "center": [0.0, 1.0], "radius": 0.5}]},
    ):
        X = parse_doc(json.dumps(doc))
        assert parse_doc(serialize_doc(X)) == X


def test_parse_doc_keeps_equal_leaves_shared():
    # A 200-step reach chain names its one E at every step.  The parse builds
    # E once, as in the serialized tree, so the chain is one run of 200 steps.
    rng = np.random.default_rng(5)
    phi = np.array([[0.9, 0.2], [-0.2, 0.9]])
    E = sc.Hyperrectangle(rng.uniform(-0.01, 0.01, 2), rng.uniform(0.01, 0.04, 2))
    chain = sc.Zonotope(rng.uniform(-1, 1, 2), rng.uniform(-0.3, 0.3, (2, 3)))
    for _ in range(200):
        chain = sc.make_node("MinkowskiSum", [sc.make_node("LinearMap", [chain], matrix=phi), E])
    text = serialize_doc(chain)
    tree = parse_doc(text)
    leaves, stack = set(), [tree]
    while stack:
        X = stack.pop()
        if isinstance(X, sc.LazyNode):
            stack.extend(X.operands)
        else:
            leaves.add(id(X))
    assert len(leaves) == 2 and tree._run == 200
    assert serialize_doc(tree) == text
    D = np.array(sc.generate_directions(sc.polar_template(16)))
    for want in (False, True):
        for got, expected in zip(tree.support_batch(D, vectors=want), chain.support_batch(D, vectors=want)):
            np.testing.assert_array_equal(got, expected)


def test_doc_version_checked():
    assert parse_doc('{"version": "setcalc/1", "set": "Interval", "lo": 0, "hi": 1}')
    with pytest.raises(DocumentError):
        parse_doc('{"version": "setcalc/2", "set": "Interval", "lo": 0, "hi": 1}')


def test_cmd_support(tmp_path, capsys):
    doc = _write(tmp_path, "omega.json", OMEGA_DOC)
    assert main(["support", "--doc", doc, "--dir=-1,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(-0.8, abs=1e-9)


def test_cmd_support_vector(tmp_path, capsys):
    doc = _write(tmp_path, "poly.json", POLYGON_DOC)
    assert main(["support", "--doc", doc, "--dir=-1,1", "--vector"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[0]) == pytest.approx(3.6, abs=1e-12)
    sigma = [float(v) for v in lines[1].split(",")]
    assert sigma == pytest.approx([-3.0, 0.6], abs=1e-12)


def test_cmd_support_identity_translation(tmp_path, capsys):
    shifted = {"op": "Translation", "vector": [0.0, 0.0], "args": [POLYGON_DOC]}
    doc_a = _write(tmp_path, "a.json", shifted)
    doc_b = _write(tmp_path, "b.json", POLYGON_DOC)
    assert main(["support", "--doc", doc_a, "--dir", "0.3,-1.2"]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["support", "--doc", doc_b, "--dir", "0.3,-1.2"]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second


def test_cmd_support_unsupported_kind(tmp_path, capsys):
    doc = _write(
        tmp_path,
        "complement.json",
        {"op": "Complement", "args": [{"set": "BallInf", "center": [0, 0], "radius": 1}]},
    )
    assert main(["support", "--doc", doc, "--dir", "1,0"]) == 3


def test_cmd_support_rejects_bad_matrices(tmp_path, capsys):
    # json accepts NaN; a map whose matrix holds it, or whose matrix is not
    # 2-D, is a bad document (exit 2) for support as for concretize.
    leaf = {"set": "BallInf", "center": [0, 0], "radius": 1}
    for name, matrix in (("nan", "[[NaN, 0], [0, 1]]"), ("cube", "[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]")):
        path = tmp_path / f"{name}.json"
        path.write_text(f'{{"op": "LinearMap", "matrix": {matrix}, "args": [{json.dumps(leaf)}]}}')
        for command in (["support", "--doc", str(path), "--dir", "0,1"], ["concretize", "--doc", str(path)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "2-D with finite entries" in captured.err


def test_cmd_overapprox_oct(tmp_path, capsys):
    doc = _write(tmp_path, "poly.json", POLYGON_DOC)
    assert main(["overapprox", "--doc", doc, "--template", "oct"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 8
    assert all(len(row.split(",")) == 3 for row in rows)


def test_cmd_overapprox_box_reproduces_box(tmp_path, capsys):
    doc = _write(tmp_path, "box.json", {"set": "BallInf", "center": [1.0, -1.0], "radius": 2.0})
    assert main(["overapprox", "--doc", doc, "--template", "box"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4
    constraints = []
    for row in rows:
        a1, a2, b = (float(v) for v in row.split(","))
        constraints.append(sc.HalfSpace([a1, a2], b))
    rebuilt = sc.HPolytope(constraints)
    assert sc.is_equivalent(rebuilt, sc.BallInf([1.0, -1.0], 2.0))


def test_cmd_overapprox_eps_roundtrip(tmp_path, capsys):
    doc = _write(tmp_path, "poly.json", POLYGON_DOC)
    assert main(["overapprox", "--doc", doc, "--eps", "0.01"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    vertices = [[float(v) for v in row.split(",")] for row in rows]
    outer = sc.VPolygon(vertices)
    inner = parse_doc(json.dumps(POLYGON_DOC))
    assert sc.is_subset(inner, outer)


def test_cmd_overapprox_bad_eps(tmp_path):
    doc = _write(tmp_path, "poly.json", POLYGON_DOC)
    assert main(["overapprox", "--doc", doc, "--eps", "-0.5"]) == 2
    assert main(["overapprox", "--doc", doc, "--eps", "nan"]) == 2
    assert main(["overapprox", "--doc", doc]) == 2
    assert main(["overapprox", "--doc", doc, "--template", "oct", "--eps", "0.1"]) == 2


def test_cmd_overapprox_eps_needs_2d(tmp_path):
    doc = _write(tmp_path, "ball3.json", {"set": "BallInf", "center": [0, 0, 0], "radius": 1})
    assert main(["overapprox", "--doc", doc, "--eps", "0.1"]) == 3


def test_cmd_check_member_concretizes_hull_trees(tmp_path, capsys):
    doc = _write(tmp_path, "omega.json", OMEGA_DOC)
    inside = _write(tmp_path, "p1.json", [1.0, 0.05])
    outside = _write(tmp_path, "p2.json", [2.0, 2.0])
    assert main(["check", "--doc", doc, "--doc2", inside, "--relation", "member"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", "--doc", doc, "--doc2", outside, "--relation", "member"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cmd_check_equivalent(tmp_path, capsys):
    product = {
        "op": "CartesianProduct",
        "args": [
            {"set": "Interval", "lo": -1.0, "hi": 1.0},
            {"set": "Interval", "lo": -1.0, "hi": 1.0},
        ],
    }
    doc_a = _write(tmp_path, "a.json", product)
    doc_b = _write(tmp_path, "b.json", {"set": "BallInf", "center": [0.0, 0.0], "radius": 1.0})
    assert main(["check", "--doc", doc_a, "--doc2", doc_b, "--relation", "equivalent"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cmd_check_member_1000d(tmp_path, capsys):
    doc = _write(
        tmp_path, "ball.json", {"set": "BallInf", "center": [0.0] * 1000, "radius": 1.0}
    )
    point = _write(tmp_path, "point.json", [1.0] * 1000)
    assert main(["check", "--doc", doc, "--doc2", point, "--relation", "member"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cmd_check_disjoint_and_false_verdict_exit_zero(tmp_path, capsys):
    doc_a = _write(tmp_path, "a.json", {"set": "BallInf", "center": [0.0, 0.0], "radius": 1.0})
    doc_b = _write(tmp_path, "b.json", {"set": "BallInf", "center": [3.0, 3.0], "radius": 1.0})
    assert main(["check", "--doc", doc_a, "--doc2", doc_b, "--relation", "disjoint"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", "--doc", doc_a, "--doc2", doc_b, "--relation", "subset"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cmd_check_disjoint_answers_a_segment(tmp_path, capsys):
    segment = _write(tmp_path, "a.json", {"set": "VPolygon", "vertices": [[0.0, 0.0], [1.0, 1.0]]})
    triangle = _write(tmp_path, "b.json", {"set": "VPolygon", "vertices": [[2.0, 0.0], [3.0, 1.0], [2.0, 1.0]]})
    point = _write(tmp_path, "c.json", {"set": "VPolygon", "vertices": [[0.5, 0.5]]})
    assert main(["check", "--doc", segment, "--doc2", triangle, "--relation", "disjoint"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", "--doc", segment, "--doc2", point, "--relation", "disjoint"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cmd_check_subset_reads_the_first_operand_lazily(tmp_path, capsys):
    # A 3-D sum over a mapped H-polytope cannot be concretized; inclusion
    # needs only its support values.
    unit_box = [{"normal": list(s * e), "offset": 1.0} for e in np.eye(3) for s in (1.0, -1.0)]
    tree = {
        "op": "MinkowskiSum",
        "args": [
            {"op": "LinearMap", "matrix": [[1.0, 0.2, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]],
             "args": [{"set": "HPolytope", "constraints": unit_box}]},
            {"set": "BallInf", "center": [0.0, 0.0, 0.0], "radius": 0.1},
        ],
    }
    doc_a = _write(tmp_path, "a.json", tree)
    doc_b = _write(tmp_path, "b.json", {"set": "BallInf", "center": [0.0, 0.0, 0.0], "radius": 3.0})
    assert main(["check", "--doc", doc_a, "--doc2", doc_b, "--relation", "subset"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    small = _write(tmp_path, "c.json", {"set": "BallInf", "center": [0.0, 0.0, 0.0], "radius": 1.2})
    assert main(["check", "--doc", doc_a, "--doc2", small, "--relation", "subset"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cmd_check_unsupported_pair(tmp_path):
    doc_a = _write(tmp_path, "a.json", {"set": "VPolytope", "vertices": [[0, 0, 0], [1, 1, 1]]})
    doc_b = _write(tmp_path, "b.json", {"set": "VPolytope", "vertices": [[0, 0, 0], [2, 2, 2]]})
    assert main(["check", "--doc", doc_a, "--doc2", doc_b, "--relation", "equivalent"]) == 3


def test_cmd_concretize(tmp_path, capsys):
    doc = _write(tmp_path, "omega.json", OMEGA_DOC)
    assert main(["concretize", "--doc", doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["set"] == "VPolygon"
    polygon = sc.VPolygon(payload["vertices"])
    assert sc.support_function([-1.0, 1.0], polygon) == pytest.approx(-0.8, abs=1e-6)


def test_cmd_plot(tmp_path):
    doc_a = _write(tmp_path, "omega.json", OMEGA_DOC)
    doc_b = _write(tmp_path, "x0.json", {"set": "BallInf", "center": [1.0, 0.0], "radius": 0.1})
    out = tmp_path / "plot.svg"
    assert main(["plot", "--doc", doc_a, "--doc", doc_b, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polygon") == 2
    assert "viewBox" in text
    # Byte stability.
    out2 = tmp_path / "plot2.svg"
    assert main(["plot", "--doc", doc_a, "--doc", doc_b, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cmd_plot_contains_smaller_set(tmp_path):
    doc_a = _write(tmp_path, "omega.json", OMEGA_DOC)
    doc_b = _write(tmp_path, "x0.json", {"set": "BallInf", "center": [1.0, 0.0], "radius": 0.1})
    out = tmp_path / "plot.svg"
    assert main(["plot", "--doc", doc_a, "--doc", doc_b, "--out", str(out)]) == 0
    omega = sc.concretize(parse_doc(json.dumps(OMEGA_DOC)))
    for corner in sc.BallInf([1.0, 0.0], 0.1).vertices_list():
        assert sc.membership(corner, omega)


def test_cmd_plot_single_box_one_element(tmp_path):
    doc = _write(tmp_path, "box.json", {"set": "BallInf", "center": [0.0, 0.0], "radius": 1.0})
    out = tmp_path / "box.svg"
    assert main(["plot", "--doc", doc, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polygon") == 1
    # The box renders as its four corners.
    coords = text.split('points="')[1].split('"')[0]
    assert len(coords.split()) == 4


def test_cmd_plot_polygon_with_three_approximations(tmp_path):
    # Polygon, its box hull, and two zonotope fits: four polygon elements.
    polygon = parse_doc(json.dumps(POLYGON_DOC))
    box = sc.box_approximation(polygon)
    fits = [
        sc.overapproximate_zonotope(
            polygon, sc.generate_directions(sc.polar_template(k))
        )
        for k in (3, 5)
    ]
    docs = [_write(tmp_path, "poly.json", POLYGON_DOC)]
    for index, shape in enumerate([box, *fits]):
        path = tmp_path / f"shape{index}.json"
        path.write_text(serialize_doc(shape))
        docs.append(str(path))
    out = tmp_path / "figure.svg"
    args = ["plot", "--out", str(out)]
    for doc in docs:
        args += ["--doc", doc]
    assert main(args) == 0
    assert out.read_text().count("<polygon") == 4


def test_cmd_overapprox_json_format(tmp_path, capsys):
    doc = _write(tmp_path, "poly.json", POLYGON_DOC)
    assert main(["overapprox", "--doc", doc, "--template", "oct", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["set"] == "HPolytope"
    assert len(payload["constraints"]) == 8


def test_cmd_plot_rejects_non_2d(tmp_path):
    doc = _write(tmp_path, "ball3.json", {"set": "BallInf", "center": [0, 0, 0], "radius": 1})
    assert main(["plot", "--doc", doc, "--out", str(tmp_path / "x.svg")]) == 2


def test_cmd_plot_of_empty_sets_is_a_document_error(tmp_path, capsys):
    empty = {"op": "Intersection", "args": [
        {"set": "BallInf", "center": [0.0, 0.0], "radius": 1.0},
        {"set": "BallInf", "center": [5.0, 0.0], "radius": 1.0},
    ]}
    doc = _write(tmp_path, "e.json", empty)
    out = tmp_path / "e.svg"
    assert main(["plot", "--doc", doc, "--doc", doc, "--out", str(out)]) == 2
    assert "every set to plot is empty" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"set": "BallInf",')
    assert main(["support", "--doc", str(path), "--dir", "1,0"]) == 2
    path.write_text(_deep_doc(1000))
    assert main(["support", "--doc", str(path), "--dir", "1,0"]) == 2


def test_env_tolerance_override(tmp_path):
    doc = _write(tmp_path, "ball.json", {"set": "BallInf", "center": [0.0, 0.0], "radius": 1.0})
    point = _write(tmp_path, "point.json", [1.05, 0.0])
    env = dict(os.environ)
    base = subprocess.run(
        [sys.executable, "-m", "setcalc.cli", "check", "--doc", doc, "--doc2", point,
         "--relation", "member"],
        capture_output=True, text=True, env=env,
    )
    assert base.returncode == 0 and base.stdout.strip() == "false"
    env["SETCALC_TOLERANCE_ATOL"] = "0.1"
    loose = subprocess.run(
        [sys.executable, "-m", "setcalc.cli", "check", "--doc", doc, "--doc2", point,
         "--relation", "member"],
        capture_output=True, text=True, env=env,
    )
    assert loose.returncode == 0 and loose.stdout.strip() == "true"
    env["SETCALC_TOLERANCE_ATOL"] = "not-a-number"
    bad = subprocess.run(
        [sys.executable, "-m", "setcalc.cli", "check", "--doc", doc, "--doc2", point,
         "--relation", "member"],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 2


def test_cli_entrypoint_subprocess(tmp_path):
    doc = _write(tmp_path, "poly.json", POLYGON_DOC)
    result = subprocess.run(
        [sys.executable, "-m", "setcalc.cli", "support", "--doc", doc, "--dir=-1,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert float(result.stdout.strip()) == pytest.approx(3.6, abs=1e-12)


def test_render_svg_flips_y():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    text = render_svg([tri])
    assert text.startswith("<?xml")
    assert "matrix(1,0,0,-1" in text
