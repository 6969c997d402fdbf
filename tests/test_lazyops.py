import numpy as np
import pytest

import setcalc as sc
from setcalc import concretize, lazy_membership, lazy_support_function, lazy_support_vector, make_node
from setcalc.errors import DimensionMismatchError, UnboundedSetError, UnsupportedOperationError
from conftest import random_box_2d, random_polygon, random_unit_direction, random_zonotope_2d


def test_make_node_structure(initial_tree):
    assert initial_tree.kind == "ConvexHullUnion"
    assert initial_tree.num_leaves() == 3  # X0 twice plus the input box
    inner = initial_tree.operands[1]
    assert inner.kind == "MinkowskiSum"
    assert inner.operands[0].kind == "LinearMap"
    assert inner.operands[0].matrix is not None
    # Longest chain: CH -> sum -> map -> leaf.
    assert initial_tree.depth() == 4


@pytest.mark.parametrize("kind", ["LinearMap", "AffineMap"])
def test_make_node_copies_the_callers_matrix(kind):
    X = sc.BallInf([0.5, -0.25], 1.0)
    phi = np.array([[0.9, 0.2], [-0.1, 0.8]])
    node = make_node(kind, [X], matrix=phi, vector=[0.1, 0.0] if kind == "AffineMap" else None)
    d = np.array([0.6, 0.8])
    before = lazy_support_function(d, node)
    assert phi.flags.writeable and node.matrix is not phi
    assert not node.matrix.flags.writeable
    phi[0, 0] = 100.0
    assert node.matrix[0, 0] == 0.9
    assert lazy_support_function(d, node) == before


def test_make_node_validation():
    box2 = sc.BallInf(np.zeros(2), 1.0)
    box3 = sc.BallInf(np.zeros(3), 1.0)
    with pytest.raises(DimensionMismatchError):
        make_node("MinkowskiSum", [box2, box3])
    with pytest.raises(UnsupportedOperationError):
        make_node("ExponentialMap", [box2])
    with pytest.raises(ValueError):
        make_node("Translation", [box2])  # missing vector payload
    with pytest.raises(DimensionMismatchError):
        make_node("LinearMap", [box3], matrix=np.eye(2))


def test_make_node_rejects_stray_payloads():
    # A payload on a kind that takes none is refused, not ignored by some
    # queries and applied by others.
    E = sc.BallInf(np.zeros(2), 0.1)
    lazy = make_node("LinearMap", [sc.BallInf(np.ones(2), 1.0)], matrix=np.eye(2))
    for kind, operands in [("MinkowskiSum", [lazy, E]), ("MinkowskiSumArray", [lazy, E, E]),
                           ("ConvexHullUnion", [lazy, E]), ("Union", [lazy, E])]:
        with pytest.raises(ValueError, match="takes no vector"):
            make_node(kind, operands, vector=[5.0, 5.0])
        with pytest.raises(ValueError, match="takes no matrix"):
            make_node(kind, operands, matrix=2.0 * np.eye(2))
    with pytest.raises(ValueError, match="takes no vector"):
        make_node("LinearMap", [E], matrix=np.eye(2), vector=[5.0, 5.0])
    with pytest.raises(ValueError, match="takes no matrix"):
        make_node("Translation", [E], matrix=np.eye(2), vector=[5.0, 5.0])


@pytest.mark.parametrize("kind", sorted(sc.lazyops.KINDS))
def test_make_node_payloads_and_dimensions_for_every_kind(kind):
    # Which payloads each kind takes (and needs), and its dimension: the
    # sum for a product, the matrix's rows for a map, else the common one.
    payloads = {"LinearMap": {"matrix"}, "AffineMap": {"matrix", "vector"}, "Translation": {"vector"}}.get(kind, set())
    X, Y = sc.BallInf(np.zeros(2), 1.0), sc.BallInf(np.ones(2), 0.5)
    operands = [X] if kind in ("LinearMap", "AffineMap", "Translation", "SymmetricIntervalHull", "Complement") else [X, Y]
    given = {"matrix": np.ones((3, 2)) if "vector" not in payloads else np.eye(2), "vector": [1.0, 2.0]}
    node = make_node(kind, operands, **{name: given[name] for name in payloads})
    assert node.dim == {"CartesianProduct": 4, "LinearMap": 3}.get(kind, 2)
    for name in ("matrix", "vector"):
        others = {other: given[other] for other in payloads - {name}}
        if name in payloads:
            with pytest.raises(ValueError, match=f"^{kind} needs a {name} payload$"):
                make_node(kind, operands, **others)
        else:
            with pytest.raises(ValueError, match=f"^{kind} takes no {name} payload$"):
                make_node(kind, operands, **others, **{name: given[name]})
    if kind == "CartesianProduct":
        assert make_node(kind, [X, sc.BallInf(np.zeros(3), 1.0)]).dim == 5
    elif "matrix" in payloads:
        with pytest.raises(DimensionMismatchError, match="matrix has 3 columns"):
            make_node(kind, [X], matrix=np.ones((2, 3)), vector=given["vector"] if "vector" in payloads else None)
    elif len(operands) == 2:
        with pytest.raises(DimensionMismatchError, match="have different dimensions"):
            make_node(kind, [X, sc.BallInf(np.zeros(3), 1.0)])


@pytest.mark.parametrize("kind", ["LinearMap", "AffineMap"])
def test_make_node_rejects_bad_matrices(kind):
    # A non-finite or non-2-D matrix is refused when the node is built, not
    # answered with nan or a TypeError at query time.
    X = sc.BallInf(np.zeros(2), 1.0)
    vector = [0.5, 0.0] if kind == "AffineMap" else None
    for matrix in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [-np.inf, 1.0]], np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="2-D with finite entries"):
            make_node(kind, [X], matrix=matrix, vector=vector)
    # Finite entries whose sum overflows are accepted.
    node = make_node(kind, [X], matrix=[[1e308, 1e308], [0.0, 1.0]], vector=vector)
    assert np.all(np.isfinite(node.matrix))


def test_translation_zero_is_identity():
    box = sc.BallInf(np.zeros(2), 1.0)
    node = make_node("Translation", [box], vector=[0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_unit_direction(rng)
        assert lazy_support_function(d, node) == sc.support_function(d, box)


def test_cartesian_product_node_dim():
    node = make_node("CartesianProduct", [sc.Interval(-1, 1), sc.Interval(-1, 1)])
    assert node.dim == 2


def test_lazy_support_reach_tree(initial_tree):
    d = np.array([-1.0, 1.0])
    assert lazy_support_function(d, initial_tree) == pytest.approx(-0.8, abs=1e-9)
    sigma = lazy_support_vector(d, initial_tree)
    assert float(d @ sigma) == pytest.approx(-0.8, abs=1e-9)


def test_minkowski_sum_rule_exact_float():
    A = sc.BallInf(np.zeros(2), 1.0)
    B = sc.Hyperrectangle([0.3, -0.2], [0.5, 1.5])
    node = make_node("MinkowskiSum", [A, B])
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = rng.normal(size=2)
        # Same floating-point expression on both sides, by construction.
        assert lazy_support_function(d, node) == sc.support_function(d, A) + sc.support_function(d, B)


def test_minkowski_sum_of_boxes_box_formula():
    A = sc.BallInf(np.zeros(2), 1.0)
    node = make_node("MinkowskiSum", [A, A])
    assert lazy_support_function([1.0, 1.0], node) == pytest.approx(4.0)
    double = sc.BallInf(np.zeros(2), 2.0)
    assert lazy_support_function([1.0, 1.0], node) == pytest.approx(
        sc.support_function([1.0, 1.0], double)
    )


def test_lazy_support_vector_minkowski():
    A = sc.BallInf([0.0, 0.0], 1.0)
    B = sc.BallInf([5.0, 0.0], 1.0)
    node = make_node("MinkowskiSum", [A, B])
    sigma = lazy_support_vector([1.0, 0.0], node)
    assert sigma[0] == pytest.approx(7.0)


def test_lazy_linear_map_identity(demo_polygon):
    node = make_node("LinearMap", [demo_polygon], matrix=np.eye(2))
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = random_unit_direction(rng)
        assert lazy_support_function(d, node) == pytest.approx(
            sc.support_function(d, demo_polygon)
        )
        assert np.allclose(
            lazy_support_vector(d, node), sc.support_vector(d, demo_polygon)
        )


def test_symmetric_interval_hull_node():
    X = sc.BallInf([1.0, 0.0], 1.0)
    node = make_node("SymmetricIntervalHull", [X])
    assert lazy_support_function([1.0, 0.0], node) == pytest.approx(2.0)
    assert lazy_support_function([-1.0, 0.0], node) == pytest.approx(2.0)
    assert lazy_support_function([0.0, 1.0], node) == pytest.approx(1.0)
    box = sc.symmetric_interval_hull(X)
    assert np.allclose(box.center, 0.0)
    assert np.allclose(box.radius_vector, [2.0, 1.0])


def test_symmetric_interval_hull_node_unbounded_operand():
    # An infinite radius counts only along directions that weight it; vector
    # queries along those raise, as they do on unbounded leaves.
    half = make_node("SymmetricIntervalHull", [sc.HalfSpace([1.0, 0.0], 1.0)])
    strip = make_node(
        "SymmetricIntervalHull", [sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([-1.0, 0.0], 2.0)])]
    )
    values, _ = half.support_batch(np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]))
    assert values.tolist() == [np.inf, np.inf, 0.0]
    values, _ = strip.support_batch(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 1e-3], [0.0, 0.0]]))
    assert values.tolist() == [2.0, 2.0, np.inf, np.inf, 0.0]
    assert lazy_support_vector([-1.0, 0.0], strip).tolist() == [-2.0, 0.0]
    for node, d in ((half, [1.0, 0.0]), (strip, [0.0, 1.0])):
        with pytest.raises(UnboundedSetError):
            lazy_support_vector(d, node)
        with pytest.raises(UnboundedSetError):
            sc.symmetric_interval_hull(node.operands[0])


def test_union_support_is_max():
    A = sc.BallInf([0.0, 0.0], 1.0)
    B = sc.BallInf([3.0, 0.0], 1.0)
    node = make_node("Union", [A, B])
    assert lazy_support_function([1.0, 0.0], node) == pytest.approx(4.0)
    assert lazy_support_function([-1.0, 0.0], node) == pytest.approx(1.0)


def test_complement_support_unsupported():
    node = make_node("Complement", [sc.BallInf(np.zeros(2), 1.0)])
    with pytest.raises(UnsupportedOperationError):
        lazy_support_function([1.0, 0.0], node)


def test_lazy_intersection_modes():
    A = sc.BallInf(np.zeros(4), 2.0)
    B = sc.BallInf(np.ones(4), 2.0)
    node = make_node("Intersection", [A, B])
    with pytest.raises(UnsupportedOperationError):
        lazy_support_function(np.eye(4)[0], node)
    bound = lazy_support_function(np.eye(4)[0], node, mode="overapproximate")
    assert bound == pytest.approx(2.0)  # min(2, 3)
    # In 2-D the exact mode concretizes.
    A2 = sc.BallInf(np.zeros(2), 2.0)
    H = sc.HalfSpace([1.0, 0.0], 1.0)
    node2 = make_node("Intersection", [A2, H])
    assert lazy_support_function([1.0, 0.0], node2) == pytest.approx(1.0)
    assert lazy_support_function([0.0, 1.0], node2) == pytest.approx(2.0)


def test_lazy_membership_fragment():
    A = sc.BallInf([3.0, 3.0], 1.0)
    B = sc.BallInf([0.0, 0.0], 1.0)
    union = make_node("Union", [A, B])
    assert lazy_membership([0.0, 0.0], union)
    assert not lazy_membership([2.0, 0.0], union)
    comp = make_node("Complement", [B])
    assert not lazy_membership([0.0, 0.0], comp)
    assert lazy_membership([5.0, 5.0], comp)
    inter = make_node(
        "Intersection", [sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([-1.0, 0.0], 0.0)]
    )
    assert lazy_membership([0.5, 0.5], inter)
    assert not lazy_membership([1.5, 0.5], inter)


def test_lazy_membership_translation_map_product():
    B = sc.BallInf([0.0, 0.0], 1.0)
    node = make_node("Translation", [B], vector=[2.0, 0.0])
    assert lazy_membership([2.5, 0.0], node)
    assert not lazy_membership([0.0, 0.0], node)
    node = make_node("LinearMap", [B], matrix=2.0 * np.eye(2))
    assert lazy_membership([1.9, 0.0], node)
    assert not lazy_membership([2.1, 0.0], node)
    node = make_node("CartesianProduct", [sc.Interval(0, 1), B])
    assert lazy_membership([0.5, 0.0, 0.0], node)
    assert not lazy_membership([1.5, 0.0, 0.0], node)


def test_lazy_membership_minkowski_singleton():
    B = sc.BallInf([0.0, 0.0], 1.0)
    point = sc.Hyperrectangle([2.0, 0.0], [0.0, 0.0])
    node = make_node("MinkowskiSum", [B, point])
    assert lazy_membership([2.5, 0.0], node)
    assert not lazy_membership([0.5, 0.0], node)
    fat = make_node("MinkowskiSum", [B, B])
    with pytest.raises(UnsupportedOperationError):
        lazy_membership([0.0, 0.0], fat)


def test_concretize_reach_tree(initial_tree):
    P = concretize(initial_tree)
    assert isinstance(P, sc.VPolygon)
    assert sc.support_function([-1.0, 1.0], P) == pytest.approx(-0.8, abs=1e-9)


def test_concretize_zonotope_path():
    Z1 = sc.Zonotope([1.0, 0.0], np.array([[1.0], [0.0]]))
    Z2 = sc.Zonotope([0.0, 1.0], np.array([[0.0, 0.5], [1.0, 0.5]]))
    node = make_node("MinkowskiSum", [Z1, Z2])
    out = concretize(node)
    assert isinstance(out, sc.Zonotope)
    assert np.allclose(out.center, [1.0, 1.0])
    assert np.allclose(out.generators, np.hstack([Z1.generators, Z2.generators]))


def test_concretize_zonotope_path_high_dim():
    rng = np.random.default_rng(13)
    Z = sc.Zonotope(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, (5, 3)))
    box = sc.Hyperrectangle(rng.uniform(-1, 1, 5), rng.uniform(0.1, 1.0, 5))
    M = rng.uniform(-1, 1, (5, 5))
    node = make_node(
        "Translation",
        [make_node("LinearMap", [make_node("MinkowskiSum", [Z, box])], matrix=M)],
        vector=rng.uniform(-1, 1, 5),
    )
    out = concretize(node)
    assert isinstance(out, sc.Zonotope)
    for _ in range(20):
        d = random_unit_direction(rng, 5)
        assert sc.support_function(d, out) == pytest.approx(
            lazy_support_function(d, node), abs=1e-9
        )


def test_concretize_hull_of_boxes_matches_vertex_hull():
    A = sc.BallInf([0.0, 0.0], 1.0)
    B = sc.BallInf([3.0, 1.0], 0.5)
    node = make_node("ConvexHullUnion", [A, B])
    out = concretize(node)
    expected = sc.VPolygon(np.vstack([np.array(A.vertices_list()), np.array(B.vertices_list())]))
    assert np.allclose(out.vertices, expected.vertices)


def test_concretize_unsupported():
    node = make_node("Union", [sc.BallInf(np.zeros(2), 1.0), sc.BallInf(np.ones(2), 1.0)])
    with pytest.raises(UnsupportedOperationError):
        concretize(node)
    node3 = make_node(
        "ConvexHullUnion", [sc.BallInf(np.zeros(3), 1.0), sc.BallInf(np.ones(3), 1.0)]
    )
    with pytest.raises(UnsupportedOperationError):
        concretize(node3)


def _random_tree(rng, depth):
    leaves = (
        lambda: random_box_2d(rng),
        lambda: random_zonotope_2d(rng),
        lambda: random_polygon(rng, scale=1.5, max_points=6),
    )
    if depth == 0:
        return leaves[int(rng.integers(0, 3))]()
    kind = ("MinkowskiSum", "ConvexHullUnion", "LinearMap", "Translation")[int(rng.integers(0, 4))]
    if kind in ("MinkowskiSum", "ConvexHullUnion"):
        return make_node(kind, [_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)])
    if kind == "LinearMap":
        M = rng.uniform(-1.2, 1.2, (2, 2))
        return make_node(kind, [_random_tree(rng, depth - 1)], matrix=M)
    return make_node(kind, [_random_tree(rng, depth - 1)], vector=rng.uniform(-1, 1, 2))


def test_lazy_vs_concrete_oracle_small():
    # Smaller sibling of the acceptance sweep: 40 random trees, 16 directions.
    rng = np.random.default_rng(2024)
    for _ in range(40):
        tree = _random_tree(rng, int(rng.integers(1, 4)))
        if isinstance(tree, sc.ConcreteSet):
            continue
        concrete = concretize(tree)
        for _ in range(16):
            d = random_unit_direction(rng)
            lazy = lazy_support_function(d, tree)
            direct = sc.support_function(d, concrete)
            assert lazy == pytest.approx(direct, abs=1e-6)
            sigma = lazy_support_vector(d, tree)
            assert float(d @ sigma) == pytest.approx(lazy, abs=1e-7)


def test_cartesian_product_rule_vs_concretization():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = sc.Interval(*np.sort(rng.uniform(-2, 2, 2)))
        b = sc.Interval(*np.sort(rng.uniform(-2, 2, 2)))
        node = make_node("CartesianProduct", [a, b])
        concrete = concretize(node)
        for _ in range(10):
            d = rng.normal(size=2)
            lhs = lazy_support_function(d, node)
            assert lhs == pytest.approx(sc.support_function(d, concrete), abs=1e-10)
            assert lhs == pytest.approx(
                sc.support_function(d[:1], a) + sc.support_function(d[1:], b), abs=1e-10
            )


def test_minkowski_sum_array_flattens():
    boxes = [sc.BallInf(np.full(2, float(i)), 0.5) for i in range(4)]
    node = make_node("MinkowskiSumArray", boxes)
    d = np.array([1.0, 0.0])
    expected = sum(sc.support_function(d, b) for b in boxes)
    assert lazy_support_function(d, node) == pytest.approx(expected)
    out = concretize(node)
    assert sc.support_function(d, out) == pytest.approx(expected)
