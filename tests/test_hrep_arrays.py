"""H-polyhedra stored as one read-only (A, b) pair.

Array-built and row-built polyhedra must be indistinguishable: the same
checks and error types, the same rows, repr, pickle and copies, and the same
translations and linear maps bit for bit.  The template path builds no
per-row ``HalfSpace``; 2-D emptiness is decided by the vertex enumeration
wherever the normals bound the region, so every query agrees on thin boxes
and polygon pairs are tested for disjointness without an LP (checked
against HiGHS).
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest

import setcalc as sc
from setcalc.cli import main
from setcalc.errors import DimensionMismatchError, EmptySetError

from test_cli import OMEGA_DOC


def _rows(A, b):
    return [sc.HalfSpace(a, float(c)) for a, c in zip(A, b)]


def _octagon_arrays():
    angles = np.arange(8) * (math.pi / 4.0) + 0.1
    A = np.column_stack((np.cos(angles), np.sin(angles))) * np.arange(1, 9)[:, None]
    return A, np.linspace(0.5, 2.0, 8)


@pytest.mark.parametrize(
    "A, b, rows",
    [
        ([[math.inf, 0.0]], [1.0], lambda: [sc.HalfSpace([math.inf, 0.0], 1.0)]),
        ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], lambda: [sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([0.0, 0.0], 1.0)]),
        ([[1.0, 0.0]], [1.0, 2.0], lambda: [sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([1.0, 0.0, 0.0], 2.0)]),
        ([], [], lambda: []),
    ],
    ids=["non-finite normal", "zero row", "mismatched lengths", "no rows"],
)
def test_from_arrays_raises_what_the_constructor_raises(A, b, rows):
    with pytest.raises(Exception) as expected:
        sc.HPolyhedron(rows())
    with pytest.raises(expected.type):
        sc.HPolyhedron._from_arrays(A, b)
    assert expected.type in (ValueError, DimensionMismatchError)


def test_zero_rows_with_a_dimension_make_the_whole_space():
    P = sc.HPolyhedron._from_arrays(np.zeros((0, 3)), np.zeros(0))
    assert P == sc.HPolyhedron([], dim=3) and P.dim == 3
    assert P.contains([1e9, -1e9, 0.0]) and not sc.is_empty(P)


def test_arrays_are_read_only_and_the_view_cannot_be_replaced():
    A, b = _octagon_arrays()
    built = [sc.HPolytope._from_arrays(A, b), sc.HPolytope(_rows(A, b))]
    for P in built + [pickle.loads(pickle.dumps(P)) for P in built] + [copy.deepcopy(P) for P in built]:
        for array in (P.A, P.b):
            with pytest.raises(ValueError):
                array[0] = 0.0
        for name in ("A", "b", "constraints"):
            with pytest.raises(AttributeError):
                setattr(P, name, None)
    A[0, 0] = 99.0  # the input arrays were copied
    assert built[0].A[0, 0] != 99.0


def test_array_built_equals_row_built():
    A, b = _octagon_arrays()
    rows = _rows(A, b)
    by_arrays, by_rows = sc.HPolytope._from_arrays(A, b), sc.HPolytope(rows)
    assert by_arrays == by_rows and by_rows == by_arrays
    assert by_arrays.constraints == by_rows.constraints == tuple(rows)
    assert repr(by_arrays) == repr(by_rows)
    assert by_arrays != sc.HPolyhedron(rows)  # the type is part of the value
    for P in (by_arrays, by_rows):
        for twin in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P), copy.copy(P)):
            assert type(twin) is sc.HPolytope and twin == P
            assert twin.constraints == P.constraints and repr(twin) == repr(P)


def test_translate_and_linear_map_match_the_per_row_construction():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        A, b = rng.normal(size=(4 * n, n)) * 10.0 ** rng.uniform(-3, 3, (4 * n, 1)), rng.uniform(0.1, 2.0, 4 * n)
        P, rows = sc.HPolytope._from_arrays(A, b), _rows(A, b)
        v, M = rng.normal(size=n), rng.normal(size=(n, n))
        assert P.translate(v) == sc.HPolytope([c.translate(v) for c in rows])
        Minv = np.linalg.inv(M)
        assert sc.linear_map(M, P) == sc.HPolytope([sc.HalfSpace(c.normal @ Minv, c.offset) for c in rows])


def test_template_overapproximation_builds_no_halfspace(monkeypatch):
    phi = np.array([[0.98, 0.1], [-0.1, 0.98]])
    X = sc.Zonotope([1.0, 0.0], [[0.1, 0.02], [0.0, 0.1]])
    E = sc.Hyperrectangle([0.0, 0.0], [0.01, 0.02])
    for _ in range(50):
        X = sc.make_node("MinkowskiSum", [sc.make_node("LinearMap", [X], matrix=phi), E])
    template = sc.polar_template(64)
    calls = []
    init = sc.HalfSpace.__init__

    def counting(self, normal, offset):
        calls.append(offset)
        init(self, normal, offset)

    monkeypatch.setattr(sc.HalfSpace, "__init__", counting)
    H = sc.overapproximate_template(X, template)
    assert calls == []
    assert isinstance(H, sc.HPolytope) and np.array_equal(H.A, template.matrix)
    values, _ = X.support_batch(template.matrix)
    assert np.array_equal(H.b, values)
    assert len(H.constraints) == 64 and len(calls) == 64  # the view, on first read


def test_thin_box_every_query_agrees():
    # 0 <= x <= -5e-8, 0 <= y <= 1: within 10 atol of a segment, so nonempty
    # for every query; a wider gap is empty for every query.
    for gap, empty in ((5e-8, False), (1e-3, True)):
        H = sc.HPolytope(_rows([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], [0.0, -gap, 0.0, 1.0]))
        assert sc.is_empty(H) is empty
        if empty:
            for query in (H.is_bounded, lambda: H.support_function([1.0, 0.0]), H.vertices_list):
                with pytest.raises(EmptySetError):
                    query()
        else:
            assert H.is_bounded()
            assert abs(H.support_function([1.0, 0.0])) <= 1e-7
            assert len(H.vertices_list()) == 4


def _polygon(rng, center, scale):
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 9))))
    radii = scale * rng.uniform(0.5, 1.0, len(angles))
    return sc.VPolygon(center + np.column_stack((radii * np.cos(angles), radii * np.sin(angles))))


def _highs_disjoint(P, Q):
    optimize = pytest.importorskip("scipy.optimize")
    (AP, bP), (AQ, bQ) = P._hrep(None), Q._hrep(None)
    result = optimize.linprog(
        np.zeros(2), A_ub=np.vstack((AP, AQ)), b_ub=np.concatenate((bP, bQ)), bounds=[(None, None)] * 2, method="highs"
    )
    assert result.status in (0, 2)
    return result.status == 2


def test_polygon_disjointness_matches_highs_without_an_lp(lp_calls):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(200):
        P = _polygon(rng, rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 2.0))
        Q = _polygon(rng, rng.uniform(-2.0, 2.0, 2), rng.uniform(0.2, 2.0))
        if P.num_vertices < 3 or Q.num_vertices < 3:
            continue
        # Skip pairs within 1e-6 of touching, where the verdict is the tolerance's.
        gap = max(-Q.support_function(-u) - P.support_function(u) for u in _separating_candidates(P, Q))
        if abs(gap) <= 1e-6:
            continue
        verdict = sc.is_disjoint(P, Q)
        assert verdict == _highs_disjoint(P, Q)
        verdicts.append(verdict)
    assert len(lp_calls) == 0
    assert 40 <= sum(verdicts) <= len(verdicts) - 40


def _separating_candidates(P, Q):
    # For two convex polygons, some edge normal of one of them, up to sign,
    # separates them best (the separating axis theorem).
    return [s * a / np.linalg.norm(a) for X in (P, Q) for a in X._hrep(None)[0] for s in (1.0, -1.0)]


@pytest.mark.parametrize(
    "doc, template, csv, text",
    [
        (
            OMEGA_DOC,
            "oct",
            "1,0,1.1033933309999999\n0.70710678118654746,0.70710678118654746,0.84852813742385691\n"
            "0,1,0.10000000000000001\n-0.70710678118654746,0.70710678118654746,-0.56568542494923801\n"
            "-1,0,-0.798719709\n-0.70710678118654746,-0.70710678118654746,2.4426870303826469\n"
            "0,-1,4.4434121400000004\n0.70710678118654746,-0.70710678118654746,3.9187060995939946\n",
            '{"version": "setcalc/1", "set": "HPolytope", "constraints": ['
            '{"normal": [1.0, 0.0], "offset": 1.103393331}, '
            '{"normal": [0.7071067811865475, 0.7071067811865475], "offset": 0.8485281374238569}, '
            '{"normal": [0.0, 1.0], "offset": 0.1}, '
            '{"normal": [-0.7071067811865475, 0.7071067811865475], "offset": -0.565685424949238}, '
            '{"normal": [-1.0, 0.0], "offset": -0.798719709}, '
            '{"normal": [-0.7071067811865475, -0.7071067811865475], "offset": 2.442687030382647}, '
            '{"normal": [0.0, -1.0], "offset": 4.44341214}, '
            '{"normal": [0.7071067811865475, -0.7071067811865475], "offset": 3.9187060995939946}]}\n',
        ),
        (
            {"set": "Zonotope", "center": [0.5, -1.0, 2.0], "generators": [[1.0, 0.25], [0.0, -0.5], [0.125, 1.0]]},
            "box",
            "1,0,0,1.75\n-1,-0,-0,0.75\n0,1,0,-0.5\n-0,-1,-0,1.5\n0,0,1,3.125\n-0,-0,-1,-0.875\n",
            '{"version": "setcalc/1", "set": "HPolytope", "constraints": ['
            '{"normal": [1.0, 0.0, 0.0], "offset": 1.75}, {"normal": [-1.0, -0.0, -0.0], "offset": 0.75}, '
            '{"normal": [0.0, 1.0, 0.0], "offset": -0.5}, {"normal": [-0.0, -1.0, -0.0], "offset": 1.5}, '
            '{"normal": [0.0, 0.0, 1.0], "offset": 3.125}, {"normal": [-0.0, -0.0, -1.0], "offset": -0.875}]}\n',
        ),
    ],
    ids=["omega-oct", "zonotope3-box"],
)
def test_cli_template_output_is_unchanged(tmp_path, capsys, doc, template, csv, text):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["overapprox", "--doc", str(path), "--template", template]) == 0
    assert capsys.readouterr().out == csv
    assert main(["overapprox", "--doc", str(path), "--template", template, "--format", "json"]) == 0
    assert capsys.readouterr().out == text
