import itertools

import numpy as np
import pytest

import setcalc as sc
from setcalc import LpStatus, LinearProgram, ToleranceContext, approx_eq, solve_lp
from setcalc.errors import DimensionMismatchError
from setcalc.numerics import feasible_point


def test_tolerance_context_defaults_and_validation():
    ctx = ToleranceContext()
    assert ctx.atol == 1e-8
    with pytest.raises(ValueError):
        ToleranceContext(atol=-1.0)
    with pytest.raises(ValueError):
        ToleranceContext(atol=float("nan"))
    with pytest.raises(Exception):
        ctx.atol = 1.0  # frozen


def test_approx_eq_basic():
    assert approx_eq(1.0, 1.0 + 1e-12)
    assert not approx_eq(1.0, 1.1)
    assert approx_eq(1e-10, 0.0, ToleranceContext(atol=1e-8))
    assert not approx_eq(1e-6, 0.0, ToleranceContext(atol=1e-8))


def test_approx_eq_symmetric_reflexive():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.normal(scale=10.0))
        b = a + float(rng.normal(scale=1e-8))
        assert approx_eq(a, a)
        assert approx_eq(a, b) == approx_eq(b, a)


def test_solve_lp_1d():
    out = solve_lp(LinearProgram([1.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimum == pytest.approx(1.0, abs=1e-9)
    assert out.optimizer[0] == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_box_vertex():
    # Oracle: enumerate the four box vertices.
    A, b = [[1, 0], [0, 1], [-1, 0], [0, -1]], [1.0, 1.0, 0.0, 0.0]
    best = max(x + y for x in (0.0, 1.0) for y in (0.0, 1.0))
    out = solve_lp(LinearProgram([1.0, 1.0], A, b))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimum == pytest.approx(best, abs=1e-9)
    assert np.allclose(out.optimizer, [1.0, 1.0], atol=1e-9)


def test_solve_lp_infeasible():
    out = solve_lp(LinearProgram([1.0], [[1.0], [-1.0]], [0.0, -1.0]))
    assert out.status is LpStatus.INFEASIBLE


def test_solve_lp_unbounded():
    out = solve_lp(LinearProgram([1.0], [[-1.0]], [0.0]))
    assert out.status is LpStatus.UNBOUNDED


def test_solve_lp_empty_constraints():
    assert solve_lp(LinearProgram([1.0, 2.0], np.zeros((0, 2)), [])).status is LpStatus.UNBOUNDED
    out = solve_lp(LinearProgram([0.0, 0.0], np.zeros((0, 2)), []))
    assert out.status is LpStatus.OPTIMAL
    assert out.optimum == 0.0
    assert np.array_equal(out.optimizer, np.zeros(2))


def test_lp_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0])


@pytest.mark.parametrize(
    "A, b",
    [
        (np.ones((2, 3)), np.ones(2)),  # one column too many
        (np.ones((2, 1)), np.ones(2)),  # one column too few
        (np.ones((2, 2)), np.ones(3)),  # b one entry too long
        (np.ones((2, 2)), np.ones(1)),  # b one entry too short
        (np.ones(2), np.ones(1)),  # A not a matrix
        (np.ones((2, 2)), np.ones((2, 1))),  # b not a vector
    ],
)
def test_lp_rejects_wrong_shapes(A, b):
    with pytest.raises(DimensionMismatchError):
        LinearProgram([1.0, 2.0], A, b)


def test_feasibility_rejects_a_wrong_length_of_b():
    for b in (np.ones(3), np.ones(1), np.ones((2, 1))):
        with pytest.raises(DimensionMismatchError):
            sc.is_feasible(np.ones((2, 2)), b)
        with pytest.raises(DimensionMismatchError):
            feasible_point(np.ones((2, 2)), b)


def test_zero_rows_keep_their_dimension():
    for n in (1, 2, 5):
        assert LinearProgram(np.ones(n), np.zeros((0, n)), []).normals.shape == (0, n)
    found = feasible_point(np.zeros((0, 3)), np.zeros(0))
    assert found.shape == (3,) and np.array_equal(found, np.zeros(3))
    assert sc.is_feasible(np.zeros((0, 3)), np.zeros(0))


def test_zero_dimensional_polyhedron_is_the_origin():
    # R^0 is one point: zero rows keep it nonempty and bounded, as the
    # zero-row guards of the polyhedron queries answered before.
    P = sc.HPolyhedron([], dim=0)
    assert not sc.is_empty(P) and sc.is_bounded(P)
    assert sc.an_element(P).shape == (0,)


def _brute_force_max(c, normals, offsets, n):
    """Enumerate candidate vertices from all n-subsets of active constraints."""
    best = None
    m = len(offsets)
    for rows in itertools.combinations(range(m), n):
        A = normals[list(rows)]
        b = offsets[list(rows)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.all(normals @ x <= offsets + 1e-9):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


def test_solve_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        # Bounded region: a box plus a few random cuts through a known point.
        center = rng.uniform(-1, 1, n)
        normals = []
        offsets = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            normals.append(e.copy())
            offsets.append(center[i] + rng.uniform(0.5, 2.0))
            normals.append(-e)
            offsets.append(-center[i] + rng.uniform(0.5, 2.0))
        extra = int(rng.integers(0, max(1, 8 - 2 * n + 1)))
        for _ in range(extra):
            a = rng.normal(size=n)
            normals.append(a)
            offsets.append(float(a @ center) + rng.uniform(0.2, 1.5))
        normals = np.array(normals)
        offsets = np.array(offsets)
        c = rng.normal(size=n)

        out = solve_lp(LinearProgram(c, normals, offsets))
        assert out.status is LpStatus.OPTIMAL
        oracle = _brute_force_max(c, normals, offsets, n)
        assert oracle is not None
        assert out.optimum == pytest.approx(oracle, abs=1e-6)
        # Re-substitution: the optimizer satisfies every constraint.
        assert np.all(normals @ out.optimizer <= offsets + 1e-8)


def test_solve_lp_tolerates_degenerate_constraints():
    # Duplicated and redundant rows force degenerate pivots; Bland's rule
    # must still terminate at the right optimum.
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        center = rng.uniform(-1, 1, n)
        normals = []
        offsets = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            for row, off in ((e, center[i] + 1.0), (-e, -center[i] + 1.0)):
                normals.append(row.copy())
                offsets.append(off)
                normals.append(row.copy())  # exact duplicate
                offsets.append(off)
                normals.append(row.copy())  # strictly redundant
                offsets.append(off + 0.5)
        c = rng.normal(size=n)
        out = solve_lp(LinearProgram(c, normals, offsets))
        assert out.status is LpStatus.OPTIMAL
        expected = float(c @ center) + float(np.sum(np.abs(c)))
        assert out.optimum == pytest.approx(expected, abs=1e-8)


def test_feasibility_interface():
    assert sc.is_feasible(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    assert not sc.is_feasible(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))


@pytest.mark.parametrize("scale", [1e-170, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e170])
@pytest.mark.parametrize("gap", [1e-3, -1e-3])
def test_feasibility_verdict_does_not_depend_on_row_scale(scale, gap):
    # A 3-D box whose x-bounds x <= 0 and x >= gap are 1e-3 apart: empty in
    # the wrong order (gap > 0), a thin slab in the right one.  HiGHS decides
    # the rows as given; every scaling of them must read the same.
    optimize = pytest.importorskip("scipy.optimize")
    A = np.vstack((np.eye(3), -np.eye(3)))
    b = np.array([0.0, 1.0, 1.0, -gap, 1.0, 1.0])
    oracle = optimize.linprog(np.zeros(3), A_ub=A, b_ub=b, bounds=[(None, None)] * 3, method="highs")
    assert oracle.status in (0, 2)
    assert sc.is_feasible(scale * A, scale * b) is (oracle.status == 0)
    assert sc.is_empty(sc.HPolyhedron._from_arrays(scale * A, scale * b)) is (oracle.status == 2)
    found = feasible_point(scale * A, scale * b)
    assert (found is None) is (oracle.status == 2)
    if found is not None:
        assert np.all(A.dot(found) <= b + 1e-9)


def test_feasibility_through_interior_point():
    rng = np.random.default_rng(3)
    for _ in range(20):
        point = rng.uniform(-2, 2, 3)
        constraints = []
        for _ in range(6):
            a = rng.normal(size=3)
            constraints.append((a, float(a @ point) + rng.uniform(0.1, 1.0)))
        A, b = np.array([a for a, _ in constraints]), np.array([c for _, c in constraints])
        assert sc.is_feasible(A, b)
        found = feasible_point(A, b)
        for a, b in constraints:
            assert float(a @ found) <= b + 1e-8
