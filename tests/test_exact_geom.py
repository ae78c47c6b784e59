import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fpindex.errors import PointOnLoop
from fpindex.exact_geom import (
    MeetKind,
    PLLoop,
    PointLocation,
    RatPoint,
    Segment,
    in_box_int,
    meet_int,
    orient2d,
    point_in_polygon,
    pt,
    rat,
    row,
    segment_intersection,
    signed_area,
    turn_int,
    winding_number,
)
from fpindex.jordan import validate_curve
from geomgen import (
    circle_polygon,
    cmp_directions_ccw,
    integer_coords,
    interior_point,
    parity_ray_oracle,
    ref_cross,
    ref_in_box,
    ref_locate_param,
    ref_meet,
    reversed_loop,
    star_polygon,
    turning_winding_oracle,
    unit_directions,
    winding_of_cycle,
)

UNIT_SQUARE = PLLoop((pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)))

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(lambda a, b, c, d: RatPoint(Fraction(a, c), Fraction(b, d)),
                   coords, coords,
                   st.integers(min_value=1, max_value=8),
                   st.integers(min_value=1, max_value=8))


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("2/7") == Fraction(2, 7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_orient2d_basic():
    assert orient2d(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient2d(pt(0, 0), pt(0, 1), pt(1, 0)) == -1
    assert orient2d(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


@given(points, points, points)
def test_orient2d_antisymmetric(a, b, c):
    assert orient2d(a, b, c) == -orient2d(b, a, c)
    assert orient2d(a, b, c) == orient2d(b, c, a)


def test_segment_requires_distinct_endpoints():
    with pytest.raises(ValueError):
        Segment(pt(1, 1), pt(1, 1))


def test_segment_intersection_proper():
    s = Segment(pt(0, 0), pt(2, 2))
    t = Segment(pt(0, 2), pt(2, 0))
    m = segment_intersection(s, t)
    assert m.kind == MeetKind.PROPER
    assert m.point == pt(1, 1)


def test_segment_intersection_t_contact_is_degenerate():
    # Endpoint of one segment in the interior of the other.
    s = Segment(pt(0, 0), pt(2, 0))
    t = Segment(pt(1, 0), pt(1, 1))
    assert segment_intersection(s, t).kind == MeetKind.DEGENERATE


def test_segment_intersection_shared_endpoint_is_degenerate():
    s = Segment(pt(0, 0), pt(1, 0))
    t = Segment(pt(1, 0), pt(1, 1))
    assert segment_intersection(s, t).kind == MeetKind.DEGENERATE


def test_segment_intersection_collinear_overlap_is_degenerate():
    s = Segment(pt(0, 0), pt(2, 0))
    t = Segment(pt(1, 0), pt(3, 0))
    assert segment_intersection(s, t).kind == MeetKind.DEGENERATE


def test_segment_intersection_collinear_disjoint_is_empty():
    s = Segment(pt(0, 0), pt(1, 0))
    t = Segment(pt(2, 0), pt(3, 0))
    assert segment_intersection(s, t).kind == MeetKind.EMPTY


def test_segment_intersection_disjoint():
    s = Segment(pt(0, 0), pt(1, 0))
    t = Segment(pt(0, 1), pt(1, 1))
    assert segment_intersection(s, t).kind == MeetKind.EMPTY


@given(points, points, points, points)
def test_segment_intersection_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    s, t = Segment(a, b), Segment(c, d)
    m1, m2 = segment_intersection(s, t), segment_intersection(t, s)
    assert m1.kind == m2.kind
    if m1.kind == MeetKind.PROPER:
        assert m1.point == m2.point


def test_loop_validation():
    with pytest.raises(ValueError):
        PLLoop((pt(0, 0), pt(1, 0)))
    with pytest.raises(ValueError):
        PLLoop((pt(0, 0), pt(0, 0), pt(1, 1)))


def test_signed_area_unit_square():
    assert signed_area(UNIT_SQUARE) == 1
    assert signed_area(reversed_loop(UNIT_SQUARE)) == -1


def test_winding_unit_square():
    center = pt("1/2", "1/2")
    assert winding_number(UNIT_SQUARE, center) == 1
    assert winding_number(reversed_loop(UNIT_SQUARE), center) == -1
    assert winding_number(UNIT_SQUARE, pt(2, 2)) == 0


def test_winding_point_on_loop_rejected():
    with pytest.raises(PointOnLoop):
        winding_number(UNIT_SQUARE, pt(0, 0))
    with pytest.raises(PointOnLoop):
        winding_number(UNIT_SQUARE, pt("1/2", 0))


def test_winding_doubled_square_is_two():
    # Traversing the square twice. Expected value 2 frozen from the
    # turning-angle oracle below.
    doubled = list(UNIT_SQUARE.vertices) * 2
    center = pt("1/2", "1/2")
    assert turning_winding_oracle(doubled, center) == 2
    loop = PLLoop(tuple(doubled))
    assert winding_number(loop, center) == 2


def test_winding_matches_turning_oracle_random():
    rng = random.Random(7)
    for _ in range(50):
        loop = star_polygon(rng, rng.randrange(4, 10), pt(0, 0),
                            Fraction(1), Fraction(5))
        p = pt(Fraction(rng.randrange(-6, 7), 7), Fraction(rng.randrange(-6, 7), 7))
        try:
            w = winding_number(loop, p)
        except PointOnLoop:
            continue
        assert w == turning_winding_oracle(list(loop.vertices), p)


@given(points)
def test_winding_translation_invariant(v):
    center = pt("1/2", "1/2")
    assert winding_number(UNIT_SQUARE.translated(v), center + v) == \
        winding_number(UNIT_SQUARE, center)


def test_point_in_polygon_basic():
    assert point_in_polygon(UNIT_SQUARE, pt("1/2", "1/2")) == PointLocation.INSIDE
    assert point_in_polygon(UNIT_SQUARE, pt(2, 0)) == PointLocation.OUTSIDE
    assert point_in_polygon(UNIT_SQUARE, pt(1, "1/2")) == PointLocation.ON_BOUNDARY


def test_point_in_polygon_matches_parity_oracle():
    rng = random.Random(11)
    for _ in range(100):
        loop = star_polygon(rng, rng.randrange(4, 12), pt(0, 0),
                            Fraction(1), Fraction(5))
        p = pt(Fraction(rng.randrange(-50, 50), 9),
               Fraction(rng.randrange(-50, 50), 9))
        loc = point_in_polygon(loop, p)
        if loc == PointLocation.ON_BOUNDARY:
            continue
        assert (loc == PointLocation.INSIDE) == parity_ray_oracle(loop, p)


def test_winding_of_cycle_tolerates_duplicates():
    pts = [pt(0, 0), pt(0, 0), pt(1, 0), pt(1, 1), pt(1, 1), pt(0, 1)]
    assert winding_of_cycle(pts, pt("1/2", "1/2")) == 1


def test_cmp_directions_ccw():
    e, n, w, s = pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, -1)
    order = [e, n, w, s]
    for i in range(4):
        for j in range(4):
            assert cmp_directions_ccw(order[i], order[j]) == (i > j) - (i < j)
    assert cmp_directions_ccw(e, n) == -1
    assert cmp_directions_ccw(n, w) == -1
    assert cmp_directions_ccw(w, s) == -1
    assert cmp_directions_ccw(s, e) == 1
    assert cmp_directions_ccw(e, pt(3, 0)) == 0


def test_interior_point_star_polygons():
    rng = random.Random(3)
    for _ in range(50):
        loop = star_polygon(rng, rng.randrange(4, 12), pt(0, 0),
                            Fraction(1), Fraction(5))
        p = interior_point(loop)
        assert point_in_polygon(loop, p) == PointLocation.INSIDE


def sign(v: int) -> int:
    return (v > 0) - (v < 0)


# x in halves and y in thirds, so a point's row weight W is 1, 2, 3 or 6,
# and three points in sixths; the segments among them include collinear
# overlaps, shared ends, T-contacts and vertical and horizontal segments
MIXED_GRID = [pt(Fraction(i, 2), Fraction(j, 3))
              for i in range(3) for j in range(3)] + [
    pt(Fraction(1, 6), Fraction(1, 6)), pt(Fraction(1, 3), Fraction(1, 2)),
    pt(Fraction(5, 6), Fraction(5, 6))]


class TestRowsAgainstLoopWide:
    """The per-vertex row kernels against the loop-wide reference
    (geomgen.integer_coords: every point over one shared denominator)."""

    def test_every_segment_pair_on_a_mixed_grid(self):
        segments = list(itertools.permutations(MIXED_GRID, 2))
        kinds = set()
        for (pa, pb), (pc, pd) in itertools.product(segments, repeat=2):
            a, b, c, d = rows = [row(p) for p in (pa, pb, pc, pd)]
            for r, p in zip(rows, (pa, pb, pc, pd)):
                assert r[2] > 0 and Fraction(r[0], r[2]) == p.x \
                    and Fraction(r[1], r[2]) == p.y
            _, xs, ys = integer_coords((pa, pb, pc, pd))
            ra, rb, rc, rd = zip(xs, ys)
            kind, d1, d2, d3, d4 = meet_int(a, b, c, d)
            ref_kind, r1, r2, r3, r4 = ref_meet(ra, rb, rc, rd)
            assert kind is ref_kind
            kinds.add(kind)
            assert [sign(v) for v in (d1, d2, d3, d4)] \
                == [sign(v) for v in (r1, r2, r3, r4)]
            # the crossing pass's one denominator: d3 W_d - d4 W_c equals
            # d2 W_a - d1 W_b, positive exactly at kind P
            turn = d3 * d[2] - d4 * c[2]
            assert turn == d2 * a[2] - d1 * b[2]
            assert sign(turn) == sign(r2 - r1)
            if kind is MeetKind.PROPER:
                assert Fraction(d1 * b[2], d1 * b[2] - d2 * a[2]) \
                    == Fraction(r1, r1 - r2)
                assert Fraction(d3 * d[2], d3 * d[2] - d4 * c[2]) \
                    == Fraction(r3, r3 - r4)
            for p, q in ((c, rc), (d, rd)):
                assert sign(turn_int(a, b, p)) == sign(ref_cross(ra, rb, q))
                assert in_box_int(a, b, p) == ref_in_box(ra, rb, q)
        assert kinds == set(MeetKind)

    def test_locate_param_on_grid_triangles(self):
        pairs = itertools.combinations(MIXED_GRID, 2)
        probes = MIXED_GRID + [(p + q).scale(Fraction(1, 2)) for p, q in pairs]
        found = 0
        for tri in itertools.combinations(MIXED_GRID, 3):
            if orient2d(*tri) == 0:
                continue
            curve = validate_curve(tri if orient2d(*tri) > 0 else tri[::-1])
            for p in probes:
                s = curve.locate_param(p)
                assert s == ref_locate_param(curve.vertices, p)
                found += s is not None
        assert found > 1000

    def test_rows_stay_per_vertex(self):
        # a 1,024-gon with denominators near 10^12: the loop-wide
        # denominator has over 11,000 bits, a row at most the bits of one
        # numerator and two denominators
        curve = circle_polygon(Fraction(1, 3), Fraction(-2), Fraction(7, 2),
                               unit_directions(1024))
        bits = max(abs(n).bit_length() for p in curve.vertices
                   for n in (*p.x.as_integer_ratio(), *p.y.as_integer_ratio()))
        assert integer_coords(curve.vertices)[0].bit_length() > 100 * bits
        assert max(abs(v).bit_length() for r in curve.loop.rows for v in r) \
            <= 3 * bits
