import math

import numpy as np
import pytest

import setcalc as sc
from setcalc import (
    box_approximation,
    box_template,
    custom_template,
    generate_directions,
    oct_template,
    overapproximate_eps_2d,
    overapproximate_template,
    overapproximate_zonotope,
    polar_template,
    spherical_template,
    symmetric_interval_hull,
    underapproximate,
)
from setcalc.errors import EmptySetError, UnboundedSetError, UnsupportedOperationError
from conftest import random_polygon, random_zonotope_2d

# Values printed by a five-direction polar sweep starting at (1, 0).
POLAR5 = [
    [1.0, 0.0],
    [0.30901699437494745, 0.9510565162951535],
    [-0.8090169943749473, 0.5877852522924732],
    [-0.8090169943749475, -0.587785252292473],
    [0.30901699437494723, -0.9510565162951536],
]


def test_polar_directions_match_reference():
    dirs = generate_directions(polar_template(5))
    assert len(dirs) == 5
    for got, expected in zip(dirs, POLAR5):
        assert np.allclose(got, expected, atol=1e-9)


def test_box_directions():
    dirs = generate_directions(box_template(2))
    assert [d.tolist() for d in dirs] == [[1, 0], [-1, 0], [0, 1], [0, -1]]


def test_oct_directions():
    dirs = generate_directions(oct_template())
    assert len(dirs) == 8
    s = 1.0 / math.sqrt(2.0)
    expected = {
        (1, 0), (0, 1), (-1, 0), (0, -1),
        (s, s), (-s, s), (-s, -s), (s, -s),
    }
    got = {tuple(np.round(d, 12)) for d in dirs}
    assert got == {tuple(np.round(np.array(e, dtype=float), 12)) for e in expected}
    assert all(np.linalg.norm(d) == pytest.approx(1.0) for d in dirs)


def test_oct_needs_2d():
    with pytest.raises(UnsupportedOperationError):
        oct_template(3)


def test_custom_template_validation():
    with pytest.raises(ValueError):
        custom_template([])
    with pytest.raises(ValueError):
        sc.DirectionTemplate("custom", 2, 1, (np.zeros(2),))


def test_spherical_directions_unit_norm():
    dirs = generate_directions(spherical_template(4))
    assert len(dirs) == 16
    assert all(np.linalg.norm(d) == pytest.approx(1.0) for d in dirs)


def test_template_octagon_demo_polygon(demo_polygon):
    out = overapproximate_template(demo_polygon, oct_template())
    assert isinstance(out, sc.HPolytope)
    assert len(out.constraints) == 8
    for v in demo_polygon.vertices_list():
        assert sc.membership(v, out)


def test_template_box_is_tight_for_boxes():
    box = sc.Hyperrectangle([1.0, -2.0], [0.5, 1.5])
    out = overapproximate_template(box, box_template(2))
    assert sc.is_equivalent(out, box)


def test_template_contains_zonotope_vertices():
    rng = np.random.default_rng(211)
    for _ in range(10):
        Z = random_zonotope_2d(rng)
        out = overapproximate_template(Z, oct_template())
        for v in Z.vertices_list():
            assert sc.membership(v, out)


def test_template_unspanning_directions_give_polyhedron():
    out = overapproximate_template(
        sc.BallInf(np.zeros(2), 1.0), custom_template([[1.0, 0.0]])
    )
    assert isinstance(out, sc.HPolyhedron)
    assert not isinstance(out, sc.HPolytope)


def test_template_boundedness_is_decided_once_per_template(lp_calls):
    # The polytope type follows whether the template directions positively
    # span the space, and a template decides that once.
    rng = np.random.default_rng(313)
    for trial in range(60):
        n = 2 + trial % 4
        D = rng.normal(size=(int(rng.integers(1, 3 * n + 2)), n))
        if trial % 3 == 0:
            D[:, 0] = np.abs(D[:, 0])  # all in one half-space
        H = overapproximate_template(sc.BallInf(rng.normal(size=n), 0.5), custom_template(list(D)))
        assert isinstance(H, sc.HPolytope) == sc.HPolyhedron(list(H.constraints)).is_bounded()
    t = custom_template(list(rng.normal(size=(12, 6))))
    X = sc.BallInf(np.zeros(6), 1.0)
    assert isinstance(overapproximate_template(X, t), sc.HPolytope)
    solved = len(lp_calls)
    assert isinstance(overapproximate_template(X, t), sc.HPolytope)
    assert len(lp_calls) == solved
    # In 2-D the normals decide it without an LP.
    P = sc.VPolygon([[0.0, 0.0], [2.0, 0.2], [1.5, 1.4]])
    templates = [oct_template(), polar_template(2), polar_template(32), custom_template(list(rng.normal(size=(5, 2))))]
    outs = [overapproximate_template(P, t) for t in templates]
    assert len(lp_calls) == solved
    for H in outs:
        assert isinstance(H, sc.HPolytope) == sc.HPolyhedron(list(H.constraints)).is_bounded()


def test_stock_template_rows_bit_for_bit():
    # One array per template holds the rows the per-row formulas give, signed
    # zeros included.
    for k in (1, 2, 3, 7, 64):
        rows = generate_directions(polar_template(k))
        angles = [2.0 * math.pi * j / k for j in range(k)]
        assert [r.tobytes() for r in rows] == [np.array([math.cos(a), math.sin(a)]).tobytes() for a in angles]
        assert polar_template(k).bounded == (k >= 3)
    for n in (1, 3):
        rows = generate_directions(box_template(n))
        assert [r.tobytes() for r in rows] == [(s * e).tobytes() for e in np.eye(n) for s in (1.0, -1.0)]
    grid = [(math.pi * i / 3, 2.0 * math.pi * j / 4) for i in range(4) for j in range(4)]
    assert [r.tobytes() for r in generate_directions(spherical_template(4))] == [
        np.array([math.sin(p) * math.cos(q), math.sin(p) * math.sin(q), math.cos(p)]).tobytes() for p, q in grid]


def test_template_direction_matrix_is_built_once(monkeypatch):
    # The matrix holds generate_directions' rows, read-only, and a template
    # builds it once however many queries read it.
    templates = [box_template(3), oct_template(), polar_template(64), spherical_template(4),
                 custom_template([[1.0, 2.0], [-1.0, 0.5], [0.0, -1.0]])]
    for t in templates:
        np.testing.assert_array_equal(t.matrix, np.array(generate_directions(t)))
        assert not t.matrix.flags.writeable
    calls = []
    rows = sc.approximation._direction_rows
    monkeypatch.setattr(sc.approximation, "_direction_rows", lambda t: calls.append(t) or rows(t))
    t, X = polar_template(16), sc.BallInf([0.5, -0.5], 1.0)
    first = overapproximate_template(X, t)
    for _ in range(3):
        assert overapproximate_template(X, t).constraints == first.constraints
    assert len(calls) == 1


def test_template_of_an_empty_or_unbounded_set_raises():
    empty = sc.HPolyhedron([sc.HalfSpace([1.0, 0.0, 0.0], -1.0), sc.HalfSpace([-1.0, 0.0, 0.0], -1.0)])
    for t in (box_template(3), custom_template([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])):
        with pytest.raises(EmptySetError):
            overapproximate_template(empty, t)
        with pytest.raises(UnboundedSetError):
            overapproximate_template(sc.HalfSpace([1.0, 0.0, 0.0], 0.0), t)


def test_template_refinement_monotonicity():
    rng = np.random.default_rng(223)
    for _ in range(10):
        X = random_polygon(rng)
        oct_out = overapproximate_template(X, oct_template())
        box_out = overapproximate_template(X, box_template(2))
        assert sc.is_subset(oct_out, box_out)


def test_box_approximation():
    box = sc.BallInf([1.0, 2.0], 0.5)
    assert sc.is_equivalent(box_approximation(box), box)


def test_box_approximation_polygon(demo_polygon):
    out = box_approximation(demo_polygon)
    V = np.array(demo_polygon.vertices_list())
    assert np.allclose(out.low, V.min(axis=0))
    assert np.allclose(out.high, V.max(axis=0))
    for v in V:
        assert sc.membership(v, out)


def test_box_approximation_zonotope_formula():
    rng = np.random.default_rng(227)
    for _ in range(10):
        Z = random_zonotope_2d(rng)
        out = box_approximation(Z)
        assert np.allclose(out.center, Z.center, atol=1e-12)
        assert np.allclose(out.radius_vector, np.sum(np.abs(Z.generators), axis=1), atol=1e-12)


def test_box_approximation_lazy_input(initial_tree):
    out = box_approximation(initial_tree)
    concrete = sc.concretize(initial_tree)
    for v in concrete.vertices_list():
        assert sc.membership(v, out)


def test_symmetric_interval_hull():
    out = symmetric_interval_hull(sc.BallInf([1.0, 0.0], 1.0))
    assert np.allclose(out.center, [0.0, 0.0])
    assert np.allclose(out.radius_vector, [2.0, 1.0])
    out = symmetric_interval_hull(sc.Interval(-3, 1))
    assert np.allclose(out.radius_vector, [3.0])
    sym = sc.Zonotope(np.zeros(2), np.array([[1.0, 0.2], [0.0, 0.7]]))
    assert sc.is_equivalent(symmetric_interval_hull(sym), box_approximation(sym))


def test_eps_close_large_eps_is_box_like(demo_polygon):
    diameter = 10.0
    out = overapproximate_eps_2d(demo_polygon, diameter)
    assert out.num_vertices <= 4
    assert sc.is_subset(demo_polygon, out)


def test_eps_close_containment_and_gap():
    rng = np.random.default_rng(229)
    angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(8):
        X = random_polygon(rng)
        for eps in (0.5, 0.1, 0.01):
            P = overapproximate_eps_2d(X, eps)
            assert sc.is_subset(X, P)
            gap = max(
                sc.support_function(d, P) - sc.support_function(d, X) for d in dirs
            )
            assert gap <= eps + 1e-8


def test_eps_close_area_monotone():
    rng = np.random.default_rng(233)
    X = random_polygon(rng)
    areas = [overapproximate_eps_2d(X, eps).area() for eps in (0.8, 0.4, 0.2, 0.1, 0.05)]
    for larger, smaller in zip(areas, areas[1:]):
        assert smaller <= larger + 1e-9


def _eps_reference(X, eps):
    """The eps-close refinement one direction pair at a time, as a loop."""
    def probe(angles):
        angles = np.array(angles, dtype=float)
        D = np.column_stack((np.cos(angles), np.sin(angles)))
        values, vectors = X.support_batch(D, vectors=True)
        return list(zip(angles.tolist(), D, values, vectors))

    entries = probe([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    work = [(entries[i], entries[(i + 1) % 4]) for i in range(4)]
    vertices = []
    while work:
        split = []
        for first, second in work:
            gap = (second[0] - first[0]) % (2.0 * math.pi)
            (d1, r1, v1), (d2, r2, v2) = first[1:], second[1:]
            det = d1[0] * d2[1] - d1[1] * d2[0]
            q = np.array([(r1 * d2[1] - r2 * d1[1]) / det, (d1[0] * r2 - d2[0] * r1) / det])
            chord = v2 - v1
            length = chord[0] * chord[0] + chord[1] * chord[1]
            t = 0.0 if length == 0.0 else min(1.0, max(0.0, ((q - v1)[0] * chord[0] + (q - v1)[1] * chord[1]) / length))
            if np.hypot(*(q - v1 - t * chord)) <= eps or gap <= 1e-12:
                vertices.append(q)
            else:
                split.append((first, second, (first[0] + gap / 2.0) % (2.0 * math.pi)))
        middles = probe([angle for _, _, angle in split]) if split else []
        work = [pair for (a, b, _), m in zip(split, middles) for pair in ((a, m), (m, b))]
    return sc.VPolygon(vertices)


def test_eps_close_matches_the_pair_by_pair_loop():
    # The rounds are array operations; the vertices must be the loop's, bit
    # for bit, since the arithmetic per pair is the same.
    rng = np.random.default_rng(12)
    chain = random_zonotope_2d(rng)
    for _ in range(30):
        chain = sc.make_node("MinkowskiSum", [
            sc.make_node("LinearMap", [chain], matrix=[[0.98, -0.1], [0.1, 0.98]]), sc.BallInf([0.01, 0.0], 0.01)])
    sets = [chain, sc.BallInf([0.5, -1.0], 0.0), sc.Hyperrectangle([0.0, 0.0], [2.0, 0.0])]
    sets += [random_polygon(rng) for _ in range(10)] + [random_zonotope_2d(rng) for _ in range(10)]
    for X in sets:
        for eps in (1.0, 0.1, 0.01, 1e-3):
            np.testing.assert_array_equal(overapproximate_eps_2d(X, eps).vertices, _eps_reference(X, eps).vertices)


def test_eps_close_validation(demo_polygon):
    with pytest.raises(ValueError):
        overapproximate_eps_2d(demo_polygon, 0.0)
    # NaN fails every comparison: it must not read as positive and bisect to the cap.
    with pytest.raises(ValueError, match="eps must be positive"):
        overapproximate_eps_2d(demo_polygon, math.nan)
    with pytest.raises(UnsupportedOperationError):
        overapproximate_eps_2d(sc.BallInf(np.zeros(3), 1.0), 0.1)


def test_zonotope_fit_unit_square():
    square = sc.VPolygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    Z = overapproximate_zonotope(square, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert sc.is_equivalent(Z, square)


def test_zonotope_fit_recovers_zonotope_shape():
    dirs = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    X = sc.Zonotope([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 0.5]]))
    Z = overapproximate_zonotope(sc.VPolygon(X.vertices_list()), dirs)
    assert sc.is_subset(X, Z)


def test_zonotope_fit_demo_polygon_containment(demo_polygon):
    for k in (3, 5):
        dirs = generate_directions(polar_template(k))
        Z = overapproximate_zonotope(demo_polygon, dirs)
        assert sc.is_subset(demo_polygon, Z)
        for v in demo_polygon.vertices_list():
            assert sc.membership(v, Z)


def test_zonotope_fits_pairwise_incomparable(demo_polygon):
    # The two polar fits and the box hull clip the polygon differently; no
    # pair is ordered by inclusion.
    Z3 = overapproximate_zonotope(demo_polygon, generate_directions(polar_template(3)))
    Z5 = overapproximate_zonotope(demo_polygon, generate_directions(polar_template(5)))
    box = box_approximation(demo_polygon)
    candidates = {"Z3": Z3, "Z5": Z5, "box": box}
    for name_a, A in candidates.items():
        for name_b, B in candidates.items():
            if name_a != name_b:
                assert not sc.is_subset(A, B), (name_a, name_b)


def test_zonotope_fit_infeasible_directions():
    square = sc.VPolygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    with pytest.raises(UnsupportedOperationError):
        overapproximate_zonotope(square, [np.array([1.0, 0.0])])


def test_underapproximate_subset():
    rng = np.random.default_rng(239)
    dirs = generate_directions(polar_template(8))
    for _ in range(10):
        X = random_polygon(rng)
        inner = underapproximate(X, dirs)
        assert sc.is_subset(inner, X)


def test_underapproximate_box_touches_facets():
    box = sc.Hyperrectangle([0.0, 0.0], [1.0, 2.0])
    inner = underapproximate(box, generate_directions(box_template(2)))
    tops = np.array(inner.vertices_list())
    assert tops[:, 0].max() == pytest.approx(1.0)
    assert tops[:, 0].min() == pytest.approx(-1.0)
    assert tops[:, 1].max() == pytest.approx(2.0)
    assert tops[:, 1].min() == pytest.approx(-2.0)


def test_underapproximate_recovers_polygon(demo_polygon):
    # One direction per vertex, bisecting its two adjacent edge normals;
    # each such direction is maximized exactly at that vertex.
    V = demo_polygon.vertices
    k = len(V)
    dirs = []
    for i in range(k):
        before = V[i] - V[(i - 1) % k]
        after = V[(i + 1) % k] - V[i]
        n1 = np.array([before[1], -before[0]])
        n2 = np.array([after[1], -after[0]])
        d = n1 / np.linalg.norm(n1) + n2 / np.linalg.norm(n2)
        dirs.append(d / np.linalg.norm(d))
    inner = underapproximate(demo_polygon, dirs)
    assert sc.is_equivalent(inner, demo_polygon)


def test_sandwich_property():
    rng = np.random.default_rng(241)
    polar8 = generate_directions(polar_template(8))
    for _ in range(15):
        X = random_polygon(rng)
        inner = underapproximate(X, polar8)
        outer = overapproximate_template(X, oct_template())
        assert sc.is_subset(inner, X)
        assert sc.is_subset(X, outer)
        assert sc.is_subset(inner, outer)
