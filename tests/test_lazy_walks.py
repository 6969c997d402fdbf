"""Concretization and membership walk the lazy tree without recursion.

``concretize_reference`` keeps the recursive versions the walkers replaced.
On random trees of every kind the walkers must give the same representation
type, the same vertex or generator count and the same support values to
1e-12 relative (fixed before running; the arithmetic differs where a node
of a zonotope-preserving kind runs on its operands' values before they
become polygons: sums of boxes or zonotopes, translations of H-polytopes,
zonotopal subtrees under a polygon node), and the same membership
verdicts, raising the same exception type wherever the reference raises.
Deep chains and shared subtrees must cost time linear in their distinct
nodes.
"""

import math
import time

import numpy as np
import pytest

import setcalc as sc
from setcalc import concretize, lazy_membership, make_node
from setcalc.approximation import generate_directions, polar_template
from setcalc.errors import UnboundedSetError, UnsupportedOperationError
from concretize_reference import reference_concretize, reference_membership
from conftest import random_box_2d, random_polygon, random_zonotope_2d

RTOL = 1e-12
POLAR = np.array(generate_directions(polar_template(64)))


def _outcome(f, *args):
    try:
        return f(*args)
    except Warning:
        raise  # a warning turned into an error is a failure, not an outcome
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return exc


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def _singleton(rng, n, polygon):
    point = rng.uniform(-1.0, 1.0, n)
    choice = int(rng.integers(3 if polygon else 2))
    if choice == 0:
        return sc.Hyperrectangle(point, np.zeros(n))
    if choice == 1:
        return sc.Zonotope(point, np.zeros((n, 0)))
    return sc.VPolygon([point])


def _leaf_2d(rng):
    choice = int(rng.integers(8))
    if choice == 0:
        return random_box_2d(rng)
    if choice == 1:
        return sc.BallInf(rng.uniform(-1, 1, 2), rng.uniform(0.2, 1.0))
    if choice == 2:
        return random_zonotope_2d(rng)
    if choice == 3:
        return random_polygon(rng, scale=1.5, max_points=6)
    if choice == 4:
        return sc.tohrep(random_polygon(rng, scale=1.5, max_points=6))
    if choice == 5:
        return _singleton(rng, 2, polygon=True)
    if choice == 6:
        return sc.HalfSpace(rng.normal(size=2), rng.uniform(-0.5, 1.0))
    return sc.VPolytope(rng.uniform(-1.5, 1.5, (5, 2)))


def _tree_1d(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        lo = rng.uniform(-2.0, 1.0)
        return sc.Interval(lo, lo + rng.uniform(0.0, 1.5))
    kind = ("Translation", "LinearMap", "MinkowskiSum", "ConvexHullUnion", "Union")[int(rng.integers(5))]
    if kind == "Translation":
        return make_node(kind, [_tree_1d(rng, depth - 1)], vector=rng.uniform(-1, 1, 1))
    if kind == "LinearMap":
        return make_node(kind, [_tree_1d(rng, depth - 1)], matrix=[[rng.uniform(-2, 2)]])
    return make_node(kind, [_tree_1d(rng, depth - 1), _tree_1d(rng, depth - 1)])


ALL_KINDS = (
    "LinearMap", "AffineMap", "Translation", "MinkowskiSum", "MinkowskiSumArray",
    "CartesianProduct", "ConvexHullUnion", "Union", "Intersection",
    "SymmetricIntervalHull", "Complement",
)


def _tree_2d(rng, depth):
    """A 2-D tree over every kind, with shared operands now and then."""
    if depth <= 0 or rng.random() < 0.15:
        return _leaf_2d(rng)
    kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
    if kind in ("LinearMap", "AffineMap"):
        roll = rng.random()
        if roll < 0.1:
            child = _tree_nd(rng, 3, depth - 1)
            M = rng.uniform(-1.0, 1.0, (2, 3))
        else:
            child = _tree_2d(rng, depth - 1)
            M = rng.uniform(-1.2, 1.2, (2, 2))
            if roll < 0.2:
                M[1] = 0.5 * M[0]  # singular
        vector = rng.uniform(-1, 1, 2) if kind == "AffineMap" else None
        return make_node(kind, [child], matrix=M, vector=vector)
    if kind == "Translation":
        return make_node(kind, [_tree_2d(rng, depth - 1)], vector=rng.uniform(-1, 1, 2))
    if kind in ("SymmetricIntervalHull", "Complement"):
        return make_node(kind, [_tree_2d(rng, depth - 1)])
    if kind == "CartesianProduct":
        return make_node(kind, [_tree_1d(rng, depth - 1), _tree_1d(rng, depth - 1)])
    count = 3 if kind in ("MinkowskiSumArray", "Union") else 2
    operands = [_tree_2d(rng, depth - 1)]
    for _ in range(count - 1):
        operands.append(operands[-1] if rng.random() < 0.2 else _tree_2d(rng, depth - 1))
    return make_node(kind, operands)


def _polygonal_tree(rng, depth):
    """The trees of the geometry workload: sums, hulls, maps and translations."""
    if depth == 0:
        return (random_box_2d, random_zonotope_2d, lambda r: random_polygon(r, 1.5, 6))[int(rng.integers(3))](rng)
    kind = ("MinkowskiSum", "ConvexHullUnion", "LinearMap", "Translation")[int(rng.integers(4))]
    if kind == "LinearMap":
        M = _rotation(rng.uniform(0, 2 * math.pi)) @ np.diag(rng.uniform(0.5, 1.5, 2))
        return make_node(kind, [_polygonal_tree(rng, depth - 1)], matrix=M)
    if kind == "Translation":
        return make_node(kind, [_polygonal_tree(rng, depth - 1)], vector=rng.uniform(-1, 1, 2))
    return make_node(kind, [_polygonal_tree(rng, depth - 1), _polygonal_tree(rng, int(rng.integers(0, depth)))])


def _tree_nd(rng, n, depth):
    """A zonotopal tree in dimension n."""
    if depth <= 0 or rng.random() < 0.2:
        choice = int(rng.integers(4))
        if choice == 0:
            return sc.Zonotope(rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, int(rng.integers(1, 4)))))
        if choice == 1:
            return sc.Hyperrectangle(rng.uniform(-1, 1, n), rng.uniform(0.1, 1.0, n))
        if choice == 2:
            return sc.BallInf(rng.uniform(-1, 1, n), rng.uniform(0.1, 1.0))
        return _singleton(rng, n, polygon=False)
    kind = ("MinkowskiSum", "MinkowskiSumArray", "LinearMap", "AffineMap", "Translation",
            "CartesianProduct")[int(rng.integers(6))]
    if kind in ("LinearMap", "AffineMap"):
        vector = rng.uniform(-1, 1, n) if kind == "AffineMap" else None
        return make_node(kind, [_tree_nd(rng, n, depth - 1)], matrix=rng.uniform(-1, 1, (n, n)), vector=vector)
    if kind == "Translation":
        return make_node(kind, [_tree_nd(rng, n, depth - 1)], vector=rng.uniform(-1, 1, n))
    if kind == "CartesianProduct" and n > 1:
        k = int(rng.integers(1, n))
        return make_node(kind, [_tree_nd(rng, k, depth - 1), _tree_nd(rng, n - k, depth - 1)])
    count = 3 if kind == "MinkowskiSumArray" else 2
    return make_node("MinkowskiSumArray" if count == 3 else "MinkowskiSum",
                     [_tree_nd(rng, n, depth - 1) for _ in range(count)])


def _support(X, D):
    return np.array([_outcome(X.support_function, d) for d in D], dtype=object)


def _assert_same_concretization(tree, D):
    new, ref = _outcome(concretize, tree), _outcome(reference_concretize, tree)
    assert type(new) is type(ref), (tree, new, ref)
    if isinstance(ref, Exception):
        return "raised"
    if isinstance(ref, sc.VPolygon):
        assert new.num_vertices == ref.num_vertices, tree
    if isinstance(ref, sc.Zonotope):
        assert new.generators.shape == ref.generators.shape, tree
    for a, b in zip(_support(new, D), _support(ref, D)):
        if isinstance(b, Exception):
            assert type(a) is type(b), (tree, a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL)
    return type(ref).__name__


def _points(rng, tree, n):
    """Random points, and points inside and on the boundary of the tree's
    concretization when it has vertices."""
    points = list(rng.uniform(-4.0, 4.0, (6, n)))
    concrete = _outcome(reference_concretize, tree)
    if isinstance(concrete, sc.VPolygon) and concrete.num_vertices:
        points.extend(concrete.vertices[:3])
        points.append(concrete.vertices.mean(axis=0))
    elif isinstance(concrete, sc.Zonotope):
        points.append(concrete.center)
        points.append(concrete.center + concrete.generators.sum(axis=1))
    return points


def _assert_same_membership(rng, tree, tally):
    for x in _points(rng, tree, tree.dim):
        new, ref = _outcome(lazy_membership, x, tree), _outcome(reference_membership, x, tree)
        if isinstance(ref, Exception):
            assert type(new) is type(ref), (tree, x, new, ref)
            tally["raised"] += 1
        else:
            assert not isinstance(new, Exception) and bool(new) == bool(ref), (tree, x, new, ref)
            tally[bool(ref)] += 1


def test_concretize_matches_recursive_reference_on_2d_trees():
    rng = np.random.default_rng(4001)
    routes = {}
    for _ in range(300):
        tree = _tree_2d(rng, int(rng.integers(1, 5)))
        route = _assert_same_concretization(tree, POLAR)
        routes[route] = routes.get(route, 0) + 1
    assert routes.get("VPolygon", 0) >= 40 and routes.get("raised", 0) >= 40, routes
    assert routes.get("Zonotope", 0) >= 5, routes


def test_concretize_matches_recursive_reference_on_polygonal_trees():
    rng = np.random.default_rng(4002)
    for _ in range(200):
        tree = _polygonal_tree(rng, int(rng.integers(1, 5)))
        _assert_same_concretization(tree, POLAR)


def test_concretize_matches_recursive_reference_on_zonotopal_trees():
    rng = np.random.default_rng(4003)
    for _ in range(80):
        n = int(rng.integers(3, 6))
        tree = _tree_nd(rng, n, int(rng.integers(1, 5)))
        D = rng.normal(size=(64, n))
        assert _assert_same_concretization(tree, D) in ("Zonotope", "Hyperrectangle", "BallInf")


def _mixed_tree(rng, depth):
    """A 2-D tree whose lazy 2-D and 1-D subtrees sit under a 3-D or 1-D
    node: a 2x3 map of a 3-D product, or a 2-D product over a 1x2 map.  The
    subtrees are zonotopal throughout or not; the polygon leaf keeps the
    whole tree off the closed form."""
    left = _tree_nd(rng, 2, depth) if rng.random() < 0.6 else _tree_2d(rng, depth)
    right = _tree_nd(rng, 1, depth) if rng.random() < 0.7 else _tree_1d(rng, depth)
    if rng.random() < 0.5:
        inner = make_node("CartesianProduct", [left, right])
        if rng.random() < 0.5:
            inner = make_node("Translation", [inner], vector=rng.uniform(-1, 1, 3))
        mixed = make_node("LinearMap", [inner], matrix=rng.uniform(-1, 1, (2, 3)))
    else:
        mapped = make_node("LinearMap", [left], matrix=rng.uniform(-1, 1, (1, 2)))
        mixed = make_node("CartesianProduct", [mapped, right])
    return make_node("MinkowskiSum", [random_polygon(rng, scale=1.5, max_points=6), mixed]), mixed


def test_concretize_matches_recursive_reference_under_non_2d_nodes():
    rng = np.random.default_rng(4005)
    routes = {}
    for _ in range(200):
        tree, mixed = _mixed_tree(rng, int(rng.integers(1, 4)))
        route = _assert_same_concretization(tree, POLAR)
        routes[route] = routes.get(route, 0) + 1
        if mixed.operands[0].dim == 3:
            _assert_same_concretization(mixed.operands[0], rng.normal(size=(16, 3)))
    assert routes.get("VPolygon", 0) >= 60 and routes.get("raised", 0) >= 20, routes


def test_concretize_matches_recursive_reference_on_hull_trees():
    # Hulls over a sum of boxes and a translated H-polytope, an unbounded
    # H-polyhedron, an empty intersection, and a 3-D zonotopal subtree
    # under a 3-to-2 map.
    box = sc.Hyperrectangle([0.5, -0.2], [0.3, 0.4])
    polytope = sc.tohrep(sc.VPolygon([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]]))
    unbounded = sc.HPolyhedron([sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([0.0, 1.0], 1.0)])
    empty = make_node("Intersection", [sc.BallInf([0.0, 0.0], 1.0), sc.BallInf([5.0, 0.0], 1.0)])
    zonotopal = make_node("MinkowskiSum", [sc.Zonotope([0.0, 1.0, 0.5], [[1.0, 0.2], [0.0, 0.5], [0.3, -1.0]]),
                                           sc.Hyperrectangle([1.0, 0.0, 0.0], [0.1, 0.2, 0.3])])
    mapped = make_node("LinearMap", [zonotopal], matrix=[[1.0, 0.5, 0.0], [0.0, -0.5, 1.0]])
    sums = make_node("MinkowskiSum", [box, sc.BallInf([-1.0, 0.0], 0.5)])
    trees = [
        make_node("ConvexHullUnion", [sums, make_node("Translation", [polytope], vector=[2.0, 1.0])]),
        make_node("ConvexHullUnion", [box, unbounded]),
        make_node("ConvexHullUnion", [empty, make_node("Translation", [box], vector=[0.0, 3.0])]),
        make_node("ConvexHullUnion", [mapped, polytope]),
        # The sum meets the unbounded operand before the half-space.
        make_node("MinkowskiSum", [make_node("Intersection", unbounded.constraints_list()), sc.HalfSpace([1, 1], 0)]),
    ]
    routes = [_assert_same_concretization(tree, POLAR) for tree in trees]
    assert routes == ["VPolygon", "raised", "VPolygon", "VPolygon", "raised"]
    for tree in (trees[1], trees[4]):
        with pytest.raises(UnboundedSetError):
            concretize(tree)


def test_zonotopal_subtree_under_3d_product_concretizes():
    P = sc.VPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    box = sc.Hyperrectangle([0.0, 0.0], [1.0, 2.0])
    product = make_node("CartesianProduct", [make_node("Translation", [box], vector=[1.0, 1.0]), sc.Interval(0.0, 1.0)])
    tree = make_node("MinkowskiSum", [P, make_node("LinearMap", [product], matrix=[[1, 0, 0], [0, 1, 1]])])
    assert _assert_same_concretization(tree, POLAR) == "VPolygon"
    mapped = make_node("LinearMap", [make_node("Translation", [box], vector=[1.0, 1.0])], matrix=[[1.0, 2.0]])
    tree = make_node("MinkowskiSum", [P, make_node("CartesianProduct", [mapped, sc.Interval(0.0, 1.0)])])
    assert _assert_same_concretization(tree, POLAR) == "VPolygon"


def test_non_zonotopal_subtree_under_3d_product_raises_unsupported():
    # An unbounded 2-D intersection under a 3-D product: the product has no
    # closed form, so it raises before the intersection is built.
    region = make_node("Intersection", [sc.HalfSpace([1.0, 0.0], 1.0), sc.HalfSpace([0.0, 1.0], 1.0)])
    tree = make_node("CartesianProduct", [make_node("Translation", [region], vector=[1.0, 1.0]), sc.Interval(0.0, 1.0)])
    with pytest.raises(UnsupportedOperationError):
        concretize(tree)
    with pytest.raises(UnsupportedOperationError):
        reference_concretize(tree)


def test_membership_matches_recursive_reference():
    rng = np.random.default_rng(4004)
    tally = {True: 0, False: 0, "raised": 0}
    for _ in range(300):
        _assert_same_membership(rng, _tree_2d(rng, int(rng.integers(1, 5))), tally)
    for _ in range(60):
        _assert_same_membership(rng, _tree_nd(rng, int(rng.integers(3, 6)), int(rng.integers(1, 4))), tally)
    assert min(tally.values()) >= 100, tally


def test_union_stops_before_an_operand_without_membership():
    P = sc.BallInf([0.0, 0.0], 1.0)
    hull = make_node("ConvexHullUnion", [sc.BallInf([3.0, 0.0], 0.5), sc.BallInf([3.0, 2.0], 0.5)])
    union = make_node("Union", [P, hull])
    assert lazy_membership([0.5, 0.5], union) is True
    with pytest.raises(UnsupportedOperationError):
        lazy_membership([3.0, 1.0], union)
    with pytest.raises(UnsupportedOperationError):
        reference_membership([3.0, 1.0], union)


def test_deep_map_chain_concretizes():
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    R = _rotation(0.3)
    shift = np.array([0.01, -0.02])
    tree, expected = sc.VPolygon(triangle), triangle
    for step in range(2000):
        if step % 2 == 0:
            tree, expected = make_node("LinearMap", [tree], matrix=R), expected @ R.T
        else:
            tree, expected = make_node("Translation", [tree], vector=shift), expected + shift
    out = concretize(tree)
    assert isinstance(out, sc.VPolygon) and out.num_vertices == 3
    assert np.allclose(out.vertices, sc.VPolygon(expected).vertices, atol=1e-9)


def test_deep_translation_chain_answers_membership():
    tree = sc.BallInf([0.0, 0.0], 1.0)
    for _ in range(5000):
        tree = make_node("Translation", [tree], vector=[0.001, 0.0])
    assert lazy_membership([5.5, 0.5], tree)
    assert not lazy_membership([3.5, 0.5], tree)


def _best_seconds(f, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_shared_hull_tree_concretizes_in_linear_time():
    X = sc.VPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    v = np.array([0.1, 0.05])
    tree = X
    for _ in range(20):
        tree = make_node("ConvexHullUnion", [make_node("Translation", [tree], vector=v), tree])
    seconds, out = _best_seconds(lambda: concretize(tree))
    assert seconds < 0.05
    shifted = np.vstack([X.vertices + j * v for j in range(21)])
    assert np.allclose(out.vertices, sc.VPolygon(shifted).vertices, atol=1e-9)


def test_shared_union_tree_answers_membership_in_linear_time():
    X = sc.VPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    v = np.array([0.1, 0.05])
    tree = X
    for _ in range(20):
        tree = make_node("Union", [make_node("Translation", [tree], vector=v), tree])
    seconds, verdict = _best_seconds(lambda: lazy_membership([5.0, 5.0], tree))
    assert seconds < 0.05 and verdict is False
    assert lazy_membership(X.vertices[1] + 20 * v, tree)


def test_repr_text_and_deep_chain():
    box = sc.BallInf([0.0, 0.0], 1.0)
    mapped = make_node("LinearMap", [box], matrix=np.eye(2))
    tree = make_node("MinkowskiSum", [mapped, make_node("ConvexHullUnion", [box, mapped])])
    assert repr(tree) == (
        "LazyNode('MinkowskiSum', [LazyNode('LinearMap', [BallInf([0.0, 0.0], 1.0)]), "
        "LazyNode('ConvexHullUnion', [BallInf([0.0, 0.0], 1.0), "
        "LazyNode('LinearMap', [BallInf([0.0, 0.0], 1.0)])])])"
    )
    chain = box
    for _ in range(2000):
        chain = make_node("Translation", [chain], vector=[1.0, 0.0])
    assert repr(chain) == "LazyNode('Translation', [" * 2000 + "BallInf([0.0, 0.0], 1.0)" + "])" * 2000
