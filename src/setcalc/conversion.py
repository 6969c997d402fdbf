"""Exact conversions between set representations, including 2-D H/V round-trips.

Only loss-free conversions live here; anything lossy belongs to the
approximation module.  Conversions of H/V representations beyond dimension
two are not implemented and raise.
"""

from __future__ import annotations

from .errors import DegeneratePolygonError, UnsupportedOperationError
from .numerics import ToleranceContext
from .sets import (
    AbstractHyperrectangle,
    ConcreteSet,
    HPolytope,
    Hyperrectangle,
    Interval,
    VPolygon,
    Zonotope,
)
from .concrete_ops import _as_zonotope, _to_polygon, cartesian_product


def tohrep(X: ConcreteSet, ctx: ToleranceContext | None = None) -> HPolytope:
    """H-representation of a bounded 2-D polytopic set (edge normals); a
    segment, a point or the empty polygon raises ``DegeneratePolygonError``."""
    if X.dim != 2:
        raise UnsupportedOperationError("tohrep is only implemented in dimension 2")
    if isinstance(X, HPolytope):
        return X
    P = _to_polygon(X, ctx)
    if P.num_vertices < 3:
        raise DegeneratePolygonError(f"polygon with {P.num_vertices} vertices is degenerate; no H-polytope")
    return HPolytope._from_arrays(*P._hrep(ctx))


def tovrep(X: HPolytope, ctx: ToleranceContext | None = None) -> VPolygon:
    """Vertex representation of a bounded, nonempty 2-D H-polytope.

    The constraints are sorted once by normal angle and one sweep keeps
    those that bound the region, so m constraints cost O(m log m) and
    redundant ones are harmless; a region within 10 atol of empty keeps its
    vertices.  When the normals bound the region no LP is solved, and
    finding no vertex raises ``EmptySetError``; otherwise one feasibility LP
    tells an empty region from an unbounded one.  The vertices are hulled
    once.
    """
    if X.dim != 2:
        raise UnsupportedOperationError("tovrep is only implemented in dimension 2")
    return _to_polygon(X, ctx)


def convert_to(target: type, X, ctx: ToleranceContext | None = None) -> ConcreteSet:
    """Exact conversion of X to the given target representation class.

    Supported pairs: Interval -> Hyperrectangle/Zonotope/HPolytope;
    box kinds -> Hyperrectangle/Zonotope/HPolytope/VPolygon (2-D);
    Zonotope (2-D) -> VPolygon; VPolygon <-> HPolytope (2-D); and the
    cartesian product of an interval with a box -> Zonotope.  Unknown pairs
    raise, pointing at the approximation module for lossy routes.
    """
    # A lazy cartesian product of box kinds converts by first building the
    # concrete product box.
    from .lazyops import LazyNode

    if isinstance(X, LazyNode):
        if X.kind == "CartesianProduct" and all(
            isinstance(op, AbstractHyperrectangle) for op in X.operands
        ):
            product = X.operands[0]
            for op in X.operands[1:]:
                product = cartesian_product(product, op, ctx)
            return convert_to(target, product, ctx)
        raise UnsupportedOperationError(
            f"cannot convert lazy node {X.kind!r}; concretize it first"
        )

    if target is Hyperrectangle:
        if isinstance(X, AbstractHyperrectangle):
            return Hyperrectangle._from_arrays(X.center, X.radius_vector)
    elif target is Zonotope:
        if isinstance(X, (AbstractHyperrectangle, Zonotope)):
            return _as_zonotope(X)
    elif target is HPolytope:
        if isinstance(X, AbstractHyperrectangle):
            return HPolytope._from_arrays(*X._hrep(ctx))
        if isinstance(X, VPolygon):
            return tohrep(X, ctx)
    elif target is VPolygon:
        if isinstance(X, (VPolygon, AbstractHyperrectangle, Zonotope, HPolytope)):
            return _to_polygon(X, ctx)
    elif target is Interval:
        if isinstance(X, AbstractHyperrectangle) and X.dim == 1:
            return Interval(float(X.low[0]), float(X.high[0]))

    raise UnsupportedOperationError(
        f"no exact conversion from {type(X).__name__} to {target.__name__}; "
        "see the approximation module for lossy routes"
    )
