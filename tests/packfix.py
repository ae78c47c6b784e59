"""Hand-built packing fixtures shared by the packing, CLI, and acceptance tests.

Each pair overlays a tall packing with a wide squashed copy so the frames
interleave (corner map index -1) and the first piece pair cuts.
"""
from fractions import Fraction

from fpindex.exact_geom import PLLoop, RatPoint
from fpindex.jordan import PolyJordanCurve
from fpindex.packing import PackingSpec, TopoRectangle, _label_key

F = Fraction


def pt(x, y) -> RatPoint:
    return RatPoint(F(x), F(y))


def curve(*vertices) -> PolyJordanCurve:
    return PolyJordanCurve(PLLoop(tuple(pt(x, y) for x, y in vertices)))


def sorted_edges(graph) -> tuple[tuple, ...]:
    """A `ContactGraph`'s edges as sorted label pairs, frame sides first."""
    pairs = [tuple(sorted(e, key=_label_key)) for e in graph.edges]
    return tuple(sorted(pairs, key=lambda p: tuple(map(_label_key, p))))


def sorted_triangles(graph) -> tuple[tuple, ...]:
    """A `ContactGraph`'s triangles as sorted label triples."""
    trips = [tuple(sorted(t, key=_label_key)) for t in graph.triangles]
    return tuple(sorted(trips, key=lambda p: tuple(map(_label_key, p))))


def one_piece_pair() -> tuple[PackingSpec, PackingSpec, list[int]]:
    """A diamond inscribed in a square frame, versus a wide copy of the same.

    Contact graph: the piece touches all four sides, four triangular
    interstices.  The overlay has four crossings on every curve pair.
    """
    rect_a = TopoRectangle(
        curve((0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)),
        (0, 2, 4, 6))
    first = PackingSpec(rect_a, (curve((2, 0), (4, 2), (2, 4), (0, 2)),))
    rect_b = TopoRectangle(
        curve((-2, 1), (2, 1), (6, 1), (6, 2), (6, 3), (2, 3), (-2, 3),
              (-2, 2)),
        (0, 2, 4, 6))
    second = PackingSpec(rect_b, (curve((2, 1), (6, 2), (2, 3), (-2, 2)),))
    return first, second, [0]


def two_piece_pair() -> tuple[PackingSpec, PackingSpec, list[int]]:
    """Two stacked diamonds tangent at one point, versus a wide squashed copy.

    Piece 0 touches sides a, b, d; piece 1 touches b, c, d; six triangular
    interstices.  Only the first piece pair cuts in the overlay.
    """
    rect_a = TopoRectangle(
        curve((0, 0), (3, 0), (6, 0), (6, 2), (6, 5), (6, 6), (3, 6), (0, 6),
              (0, 5), (0, 2)),
        (0, 2, 5, 7))
    first = PackingSpec(rect_a, (
        curve((3, 0), (6, 2), (3, 4), (0, 2)),
        curve((3, 4), (6, 5), (3, 6), (0, 5)),
    ))
    rect_b = TopoRectangle(
        curve((-2, 1), (3, 1), (8, 1), (8, F(15, 8)), (8, F(29, 8)),
              (8, F(9, 2)), (3, F(9, 2)), (-2, F(9, 2)), (-2, F(29, 8)),
              (-2, F(15, 8))),
        (0, 2, 5, 7))
    second = PackingSpec(rect_b, (
        curve((3, 1), (8, F(15, 8)), (3, F(11, 4)), (-2, F(15, 8))),
        curve((3, F(11, 4)), (8, F(29, 8)), (3, F(9, 2)), (-2, F(29, 8))),
    ))
    return first, second, [0, 1]


def bent_one_piece_pair() -> tuple[PackingSpec, PackingSpec, list[int]]:
    """one_piece_pair with a vertex added to three of the pieces' arcs.

    The other pairs' interstices are triangles whose only vertices are
    their contact points, so each interstice map bends at every vertex of
    both its curves; here three interstice maps have vertices to carry
    that are not among their own breakpoints.
    """
    first, second, corr = one_piece_pair()
    return (PackingSpec(first.rect, (curve(
                (2, 0), (F(16, 5), F(4, 5)), (4, 2), (F(16, 5), F(16, 5)),
                (2, 4), (0, 2)),)),
            PackingSpec(second.rect, (curve(
                (2, 1), (6, 2), (2, 3), (F(-1, 2), F(5, 2)), (-2, 2)),)),
            corr)
