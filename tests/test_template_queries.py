"""Template queries: rows checked once per template, results that share them.

A template's rows are checked when its matrix is built, so bad custom
directions raise a typed error that names them at construction, and a query
checks only the dimension.  Results must be bit for bit those of building
the polytope through ``HPolyhedron._from_arrays`` (the checking route), with
read-only arrays.  Outside 2-D, whether a template is bounded is decided by
a rank test and one LP, checked against HiGHS.
"""

import json
import math

import numpy as np
import pytest

import setcalc as sc
from setcalc import (
    box_template,
    custom_template,
    oct_template,
    overapproximate_template,
    polar_template,
    spherical_template,
)
from setcalc.approximation import DirectionTemplate
from setcalc.cli import main
from setcalc.errors import DimensionMismatchError


def _chain(rng, n, steps):
    """``[X_0, ..., X_steps]`` with ``X_k = Phi X_{k-1} + E``, sharing every step."""
    phi = np.eye(n) * 0.97 + rng.normal(size=(n, n)) * 0.02
    X = sc.Zonotope(rng.normal(size=n), rng.normal(size=(n, n + 1)))
    E = sc.Hyperrectangle(np.zeros(n), np.full(n, 0.01))
    out = [X]
    for _ in range(steps):
        X = sc.make_node("MinkowskiSum", [sc.make_node("LinearMap", [X], matrix=phi), E])
        out.append(X)
    return out


def _by_arrays(X, t):
    values, _ = X.support_batch(t.matrix)
    return (sc.HPolytope if t.bounded else sc.HPolyhedron)._from_arrays(t.matrix, values)


def _cases():
    rng = np.random.default_rng(17)
    chain2, chain3, chain6 = _chain(rng, 2, 30), _chain(rng, 3, 20), _chain(rng, 6, 30)
    polygon = sc.VPolygon(rng.normal(size=(9, 2)))
    zonotope3 = sc.Zonotope(rng.normal(size=3), rng.normal(size=(3, 5)))
    hpolytope3 = sc.HPolytope._from_arrays(np.vstack((np.eye(3), -np.eye(3), rng.normal(size=(4, 3)))), np.ones(10))
    half_plane = custom_template([[1.0, 0.2], [0.5, 1.0], [0.3, -1.0]])  # unbounded: all x > 0
    custom6 = custom_template(list(rng.normal(size=(32, 6))))
    return [
        ("box-zonotope3", zonotope3, box_template(3)),
        ("box-hpolytope3", hpolytope3, box_template(3)),
        ("box-chain3", chain3[-1], box_template(3)),
        ("oct-polygon", polygon, oct_template()),
        ("oct-chain2", chain2[-1], oct_template()),
        ("polar64-chain2", chain2[-1], polar_template(64)),
        ("polar32-flowpipe8", sc.make_node("Union", chain2[1:9]), polar_template(32)),
        ("spherical4-zonotope3", zonotope3, spherical_template(4)),
        ("spherical5-chain3", chain3[-1], spherical_template(5)),
        ("custom32-chain6", chain6[-1], custom6),
        ("custom-unbounded-polygon", polygon, half_plane),
        ("custom-unbounded-chain2", chain2[10], half_plane),
    ]


CASES = _cases()


@pytest.mark.parametrize("X, t", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_template_results_are_bit_identical_to_the_checking_route(X, t):
    H, want = overapproximate_template(X, t), _by_arrays(X, t)
    assert type(H) is type(want)
    assert H.A.tobytes() == want.A.tobytes() and H.b.tobytes() == want.b.tobytes()
    assert H.A is t.matrix  # shared, not copied
    for array in (H.A, H.b):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    again = overapproximate_template(X, t)
    assert again.b.tobytes() == H.b.tobytes() and again.b is not H.b


def test_a_dimension_mismatch_still_raises():
    rng = np.random.default_rng(3)
    lazy2, concrete3 = _chain(rng, 2, 5)[-1], sc.BallInf(np.zeros(3), 1.0)
    for X, t in (
        (lazy2, box_template(3)),
        (lazy2, spherical_template(3)),
        (lazy2, custom_template(list(rng.normal(size=(8, 6))))),
        (concrete3, polar_template(8)),
        (concrete3, oct_template()),
    ):
        with pytest.raises(DimensionMismatchError):
            overapproximate_template(X, t)


@pytest.mark.parametrize(
    "build, error, words",
    [
        (lambda: custom_template([[1, 0], [1, 0, 0]]), DimensionMismatchError, "direction 1 has dimension 3, expected 2"),
        (lambda: DirectionTemplate("custom", 3, 1, (np.array([1.0, 1.0]),)), DimensionMismatchError,
         "direction 0 has dimension 2, expected 3"),
        (lambda: DirectionTemplate("custom", 2, 2, (np.array([1.0, 0.0]), np.array([math.nan, 1.0]))), ValueError,
         "direction 1 must have finite entries"),
        (lambda: custom_template([[0.0, 1.0], [math.inf, 1.0]]), ValueError, "direction 1 must have finite entries"),
        (lambda: custom_template([[0.0, 1.0], [0.0, 0.0]]), ValueError, "direction 1 is zero"),
        (lambda: DirectionTemplate("custom", 2, 1, (np.array([-0.0, 0.0]),)), ValueError, "direction 0 is zero"),
    ],
    ids=["ragged", "short-for-its-dim", "nan", "inf", "zero", "negative-zero"],
)
def test_bad_custom_directions_raise_a_typed_error_at_construction(build, error, words):
    with pytest.raises(error, match=words):
        build()


@pytest.mark.parametrize(
    "directions, words",
    [
        ("[[1, 0], [1, 0, 0]]", "direction 1 has dimension 3, expected 2"),
        ("[[1, 0], [0, 0]]", "direction 1 is zero"),
        ("[[1, 0], [NaN, 1]]", "direction 1 must have finite entries"),
    ],
    ids=["ragged", "zero", "nan"],
)
def test_cli_custom_template_with_a_bad_direction_exits_2(tmp_path, capsys, directions, words):
    doc, dirs = tmp_path / "doc.json", tmp_path / "dirs.json"
    doc.write_text(json.dumps({"set": "BallInf", "center": [0.0, 0.0], "radius": 1.0}))
    dirs.write_text(directions)
    assert main(["overapprox", "--doc", str(doc), "--template", f"custom:{dirs}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err


def _highs_bounded(D):
    """Whether ``{x : D x <= 1}`` is bounded, from 2n HiGHS support LPs.
    Presolve is off: on a rotated line in 4-D it reports this region, which
    holds the origin, as infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    n = D.shape[1]
    for c in np.concatenate((np.eye(n), -np.eye(n))):
        result = optimize.linprog(
            -c, A_ub=D, b_ub=np.ones(len(D)), bounds=[(None, None)] * n, method="highs", options={"presolve": False}
        )
        assert result.status in (0, 3)
        if result.status == 3:
            return False
    return True


def _near_degenerate_templates():
    """``(rows, bounded)`` pairs: nearly parallel rows on both sides of the
    answer, rows of lower rank, and one-dimensional templates."""
    e = np.eye(3)
    for delta in (1e-2, 1e-5, 1e-8):
        for s in (1.0, -1.0):
            # A fourth row just off the plane of -e1 - e2: bounded when it points away from e3.
            yield np.array([e[0], e[1], e[2], -e[0] - e[1] + s * delta * e[2]]), s < 0
            # Rows e1 and -e1 + s delta e2 are nearly antiparallel.
            yield np.array([e[0], -e[0] + s * delta * e[1], e[1], e[2], -e[2]]), s < 0
            # Only a row of length delta leaves the plane x3 = 0 on one side.
            yield np.array([e[0], e[1], -e[0] - e[1] + delta * e[2], s * delta * e[2]]), s < 0
    yield np.array([e[0], e[1], -e[0] - e[1]]), False  # spans a plane only
    yield np.array([e[0], e[1], -e[0] - e[1], 1e-8 * e[2], -1e-8 * e[2]]), True
    yield np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]), False
    yield np.array([[1.0], [-2.0]]), True
    yield np.array([[1.0], [3.0]]), False


def test_nd_boundedness_of_near_degenerate_templates_matches_highs(lp_calls):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(29)
    for D, bounded in _near_degenerate_templates():
        n = D.shape[1]
        # Boundedness is kept by an invertible map of the space and positive
        # row scales.  The scales are at least 1: HiGHS reads matrix entries
        # below 1e-9 as zero, and the shortest rows here have length 1e-8.
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        for rows in (D, (D @ Q) * 10.0 ** rng.uniform(0.0, 3.0, (len(D), 1))):
            t = custom_template(list(rows))
            solved = len(lp_calls)
            assert t.bounded == bounded == _highs_bounded(rows)
            assert len(lp_calls) - solved <= 1
            assert t.bounded == sc.HPolyhedron._from_arrays(rows, np.ones(len(rows))).is_bounded()


def test_nd_boundedness_takes_one_lp_or_none(lp_calls):
    rng = np.random.default_rng(31)
    spanning = custom_template(list(rng.normal(size=(32, 6))))
    assert spanning.bounded and len(lp_calls) == 1
    one_sided = rng.normal(size=(12, 4))
    one_sided[:, 0] = np.abs(one_sided[:, 0])
    assert not custom_template(list(one_sided)).bounded and len(lp_calls) == 2
    flat = rng.normal(size=(10, 5)) @ np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    assert not custom_template(list(flat)).bounded and len(lp_calls) == 2  # rank 4: no LP
    assert box_template(5).bounded and spherical_template(4).bounded and len(lp_calls) == 4


def test_templates_compare_and_hash_by_their_rows():
    a = custom_template([[1, 0], [0, 1], [-1, -1]])
    b = custom_template([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert a == b and hash(a) == hash(b)
    assert a != custom_template([[1, 0], [0, 1], [-1, -2]])
    assert a != custom_template([[1, 0], [0, 1]])
    assert a != custom_template([[1, 0, 0], [0, 1, 0], [-1, -1, 0]])
    # -0.0 and 0.0 are equal entries, so their templates hash alike.
    assert custom_template([[-0.0, 1.0], [1, 0], [-1, -1]]) == custom_template([[0.0, 1.0], [1, 0], [-1, -1]])
    assert hash(custom_template([[-0.0, 1.0], [1, 0], [-1, -1]])) == hash(custom_template([[0, 1], [1, 0], [-1, -1]]))
    cache = {a: "first", box_template(2): "box", polar_template(8): "polar"}
    assert cache[b] == "first"
    assert cache[box_template(2)] == "box" and cache[polar_template(8)] == "polar"
    assert box_template(2) == DirectionTemplate("box", 2) and box_template(2) != box_template(3)
    assert polar_template(8) != polar_template(9) and polar_template(8) != a
    assert a != "custom"
