"""Curve validation, crossings, and arrangement faces."""
import itertools
import random
from fractions import Fraction

import pytest

from fpindex import jordan
from fpindex.errors import (
    InvariantFailure,
    NotPositivelyOriented,
    NotSimple,
    NotTransverse,
)
from fpindex.exact_geom import (
    MeetKind,
    PLLoop,
    PointLocation,
    RatPoint,
    Segment,
    in_box_int,
    pt,
    row,
    signed_area,
    turn_int,
)
from fpindex.jordan import (
    CrossKind,
    Crossing,
    CrossingSet,
    _arcs_of,
    _box_pairs,
    _exact_order,
    _join_polylines,
    build_arrangement,
    canonical_noncut_pair,
    check_transverse,
    crossing_faces,
    crossing_pattern_cuts,
    cuts_each_other,
    segment_contacts,
    validate_curve,
)

from geomgen import (
    AffineMap,
    angular_trace_faces,
    circle_polygon,
    identity_params,
    interior_point,
    point_at,
    random_transverse_pair,
    reversed_loop,
    star_polygon,
    transform_pair,
)
from meander_oracle import crossing_word, enumerate_noncut_words
from twins import TWINS


def square(x0, y0, x1, y1):
    return validate_curve([pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)])


def label_census(faces):
    census = {}
    for f in faces:
        census[(f.in_K, f.in_Kt)] = census.get((f.in_K, f.in_Kt), 0) + 1
    return census


class TestValidateCurve:
    def test_accepts_ccw_square(self):
        c = square(0, 0, 1, 1)
        assert len(c) == 4

    def test_rejects_cw_square(self):
        with pytest.raises(NotPositivelyOriented):
            validate_curve([pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)])

    def test_rejects_bowtie(self):
        with pytest.raises(NotSimple):
            validate_curve([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])

    def test_rejects_spike(self):
        with pytest.raises(NotSimple):
            validate_curve([pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 2)])

    def test_accepts_collinear_chain(self):
        c = validate_curve([pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
        assert len(c) == 5

    @pytest.mark.parametrize("shift", range(5))
    def test_collinear_chain_accepted_from_every_start(self, shift):
        # Moves the straight vertex across the seam between the last and the
        # first segment, where adjacency wraps.
        chain = [pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
        assert len(validate_curve(chain[shift:] + chain[:shift])) == 5

    @pytest.mark.parametrize("shift, reason", [
        (0, "consecutive segments overlap"),
        # The doubling back at (4, 0) straddles the seam: segments 3 and 0.
        (1, "consecutive segments overlap"),
        (2, "segments 0 and 2 intersect"),
        (3, "consecutive segments overlap"),
    ])
    def test_spike_rejected_from_every_start(self, shift, reason):
        # The first offending pair in (i, j) order is the one reported.
        spike = [pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 2)]
        with pytest.raises(NotSimple, match=reason):
            validate_curve(spike[shift:] + spike[:shift])

    @pytest.mark.parametrize("mirror", [False, True])
    def test_rejects_vertex_touching_edge_at_shared_x(self, mirror):
        # Vertex (2, 2) touches the vertical edge (2, 0)-(2, 4) from the
        # right; the edge's box and the boxes of the vertex's two segments
        # share only x = 2. Mirrored, the touching side comes first in x.
        verts = [(0, 0), (2, 0), (2, 4), (6, 4), (6, 3), (2, 2), (6, 1),
                 (6, -2), (0, -2)]
        if mirror:
            verts = [(-x, y) for x, y in reversed(verts)]
        with pytest.raises(NotSimple, match="intersect"):
            validate_curve([pt(x, y) for x, y in verts])

    def test_param_round_trip(self):
        c = square(0, 0, 4, 4)
        for num in range(16):
            t = Fraction(num, 16)
            assert c.locate_param(point_at(c, t)) == t


def counterclockwise_loops():
    """Seeded star polygons, 64-gon circles and both curves of each
    canonical non-cutting pair up to 40 crossings."""
    rng = random.Random(7500)
    for _ in range(60):
        yield star_polygon(rng, rng.randrange(5, 17), pt(0, 0), 2, 5)
    for cx, cy, r in ((0, 0, 1), (Fraction(1, 3), -2, Fraction(1, 4)),
                      (7, Fraction(5, 2), Fraction(37, 3))):
        yield circle_polygon(Fraction(cx), Fraction(cy), Fraction(r)).loop
    for m in range(1, 21):
        for curve in canonical_noncut_pair(m):
            yield curve.loop


class TestOrientationAtExtremeVertex:
    def test_agrees_with_the_shoelace_sign(self):
        # The constructor reads the turn at the lowest, then leftmost,
        # vertex; start each loop there, just after it and where it was.
        for loop in counterclockwise_loops():
            vs = loop.vertices
            low = min(range(len(vs)), key=lambda i: (vs[i].y, vs[i].x))
            for k in {0, low, low + 1}:
                start = PLLoop(loop.vertices[k:] + loop.vertices[:k])
                assert signed_area(start) > 0
                validate_curve(start)
                back = reversed_loop(start)
                assert signed_area(back) < 0
                with pytest.raises(NotPositivelyOriented,
                                   match="loop has non-positive signed area"):
                    validate_curve(back)


def point_on_segment(seg, p):
    """Exact membership of p in the closed segment."""
    a, b, q = row(seg.a), row(seg.b), row(p)
    return turn_int(a, b, q) == 0 and in_box_int(a, b, q)


def test_point_on_segment():
    seg = Segment(pt(0, 0), pt(4, 2))
    assert point_on_segment(seg, pt(2, 1))
    assert point_on_segment(seg, pt(0, 0))
    assert not point_on_segment(seg, pt(2, 2))
    assert not point_on_segment(seg, pt(6, 3))


def reference_locate_param(curve, p):
    """Each segment tested with the `Fraction` predicate in turn."""
    n = len(curve.loop)
    for i, (a, b) in enumerate(curve.loop.edges()):
        if not point_on_segment(Segment(a, b), p):
            continue
        d = b - a
        frac = (p.x - a.x) / d.x if d.x != 0 else (p.y - a.y) / d.y
        if frac == 1:
            continue  # belongs to the next segment's start
        return (i + frac) / n
    return None


class TestLocateParamOnIntegers:
    def test_matches_the_fraction_scan(self):
        # vertices, points on edges (vertical and horizontal ones included)
        # and points just off them, on star polygons and squares
        rng = random.Random(4100)
        curves = [square(0, 0, 4, 4), square(-3, 1, 2, 7)]
        curves += [validate_curve(star_polygon(rng, rng.randrange(3, 13),
                                               pt(0, 0), 2, 5))
                   for _ in range(30)]
        found = missed = 0
        for c in curves:
            n = len(c)
            params = [Fraction(k, n) for k in range(n)]
            params += [Fraction(rng.randrange(1, 8 * n), 8 * n)
                       for _ in range(20)]
            for t in params:
                p = point_at(c, t)
                nudge = Fraction(1, rng.choice((7, 64, 10**9)))
                for q in (p, RatPoint(p.x + nudge, p.y),
                          RatPoint(p.x, p.y - nudge)):
                    got = c.locate_param(q)
                    assert got == reference_locate_param(c, q)
                    if got is None:
                        missed += 1
                    else:
                        found += 1
                assert c.locate_param(p) == t % 1
        assert found > 700 and missed > 700


REJECTED = {
    "shared_vertex": (square(0, 0, 2, 2), square(2, 2, 4, 4)),
    "touching_edge": (square(0, 0, 2, 2), square(1, 2, 3, 4)),
    "vertex_on_edge": (square(0, 0, 4, 4),
                       validate_curve([pt(4, 2), pt(6, 1), pt(6, 3)])),
}


class TestCheckTransverse:
    def test_lens_kinds_and_params(self):
        # Overlap rectangle is [2,4]x[1,3]; the first curve's right side is
        # crossed going up: in at y=1, out at y=3.
        first = square(0, 0, 4, 4)
        second = square(2, 1, 6, 3)
        cs = check_transverse(first, second)
        assert len(cs) == 2
        a, b = cs.crossings
        assert (a.point, a.kind) == (pt(4, 1), CrossKind.P)
        assert (b.point, b.kind) == (pt(4, 3), CrossKind.PTILDE)
        assert a.param_k == Fraction(1, 4) + Fraction(1, 16)
        assert point_at(first, a.param_k) == pt(4, 1)
        assert point_at(second, a.param_kt) == pt(4, 1)

    def test_rejects_shared_vertex(self):
        with pytest.raises(NotTransverse):
            check_transverse(*REJECTED["shared_vertex"])

    def test_rejects_touching_edge(self):
        with pytest.raises(NotTransverse):
            check_transverse(*REJECTED["touching_edge"])

    def test_rejects_vertex_on_edge(self):
        with pytest.raises(NotTransverse):
            check_transverse(*REJECTED["vertex_on_edge"])

    def test_disjoint_is_empty(self):
        cs = check_transverse(square(0, 0, 1, 1), square(5, 5, 6, 6))
        assert len(cs) == 0

    @pytest.mark.parametrize("m", [1, 5, 16])
    def test_quarter_turn_keeps_params_and_kinds(self, m):
        # the canonical pair is tall and its quarter turn wide, so the two
        # scans sweep along different axes
        first, second = canonical_noncut_pair(m)
        turn = AffineMap(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
        turned = transform_pair(first, second, identity_params(4), turn)[:2]
        cs, turned_cs = check_transverse(first, second), check_transverse(*turned)
        assert len(cs) == 2 * m
        assert ([(c.param_k, c.param_kt, c.kind) for c in cs]
                == [(c.param_k, c.param_kt, c.kind) for c in turned_cs])
        assert [turn.apply(c.point) for c in cs] == \
            [c.point for c in turned_cs]

    def test_second_curve_order_is_the_sorted_one(self):
        rng = random.Random(2101)
        sets = [check_transverse(*canonical_noncut_pair(m)) for m in (1, 4, 9)]
        sets += [random_transverse_pair(rng)[2] for _ in range(40)]
        sets.append(check_transverse(square(0, 0, 1, 1), square(5, 5, 6, 6)))
        for cs in sets:
            assert cs.by_param_kt() == tuple(
                sorted(cs.crossings, key=lambda c: c.param_kt))


def brute_box_pairs(boxes, split=None):
    """Every pair a < b (a < split <= b with a split) of closed boxes that
    meet, by testing all of them."""
    n = len(boxes)
    return sorted(
        (a, b) for a in range(n) for b in range(a + 1, n)
        if (split is None or a < split <= b)
        and boxes[a][0] <= boxes[b][1] and boxes[b][0] <= boxes[a][1]
        and boxes[a][2] <= boxes[b][3] and boxes[b][2] <= boxes[a][3])


def eager_box_pairs(boxes, split=None):
    """_box_pairs with eager eviction, the reference for its order: the
    other side's active list is rebuilt at every box the sweep visits."""
    if boxes:
        lo_x, hi_x, lo_y, hi_y = zip(*boxes)
        if ((sum(hi_y) - sum(lo_y)) * (max(hi_x) - min(lo_x))
                < (sum(hi_x) - sum(lo_x)) * (max(hi_y) - min(lo_y))):
            boxes = list(zip(lo_y, hi_y, lo_x, hi_x))
    active = ([],) * 2 if split is None else ([], [])
    for b in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        lo, _, lo_across, hi_across = boxes[b]
        side = split is not None and b >= split
        other = active[not side]
        other[:] = [a for a in other if boxes[a][1] >= lo]
        for a in other:
            if boxes[a][2] <= hi_across and lo_across <= boxes[a][3]:
                yield (a, b) if a < b else (b, a)
        active[side].append(b)


def random_boxes(rng, count, width, height, grid):
    """Boxes (lo_x, hi_x, lo_y, hi_y) on a grid of `grid` steps, each up to
    width by height steps across; a small grid makes many boxes share a
    coordinate."""
    boxes = []
    for _ in range(count):
        lo_x, lo_y = rng.randrange(grid), rng.randrange(grid)
        boxes.append((lo_x, lo_x + rng.randrange(width + 1),
                      lo_y, lo_y + rng.randrange(height + 1)))
    return boxes


def test_segment_contacts_hand_back_each_loops_own_rows():
    # denominators 7 and 11 are coprime: nothing is rescaled to a joint
    # denominator, and each crossing's parameters come from the own rows
    first = validate_curve([pt(0, 0), pt(Fraction(22, 7), 0),
                            pt(Fraction(22, 7), Fraction(22, 7)),
                            pt(0, Fraction(22, 7))])
    corners = ((13, 5), (57, 5), (57, 49), (13, 49))
    second = validate_curve([pt(Fraction(x, 11), Fraction(y, 11))
                             for x, y in corners])
    rows1, rows2, hits = segment_contacts(first.loop, second.loop)
    assert rows1 is first.loop.rows and rows2 is second.loop.rows
    assert rows1 == ((0, 0, 1), (22, 0, 7), (22, 22, 7), (0, 22, 7))
    assert [(i, j, kind) for i, j, kind, *_ in hits] == [
        (1, 0, MeetKind.PROPER), (2, 3, MeetKind.PROPER)]
    crossings = check_transverse(first, second)
    assert [c.point for c in crossings] == [
        pt(Fraction(22, 7), Fraction(5, 11)),
        pt(Fraction(13, 11), Fraction(22, 7))]


class TestBoxPairs:
    """The sweep, along either axis, against all pairs."""

    SHAPES = {"tall": (2, 40, 60), "wide": (40, 2, 60),
              "shared": (3, 3, 6), "square": (10, 10, 40)}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_all_pairs(self, shape):
        rng = random.Random(f"box-pairs:{shape}")
        width, height, grid = self.SHAPES[shape]
        for count in (0, 1, 2, 5, 17, 40):
            boxes = random_boxes(rng, count, width, height, grid)
            assert sorted(_box_pairs(boxes)) == brute_box_pairs(boxes)
            for split in {0, count // 3, count}:
                assert (sorted(_box_pairs(boxes, split))
                        == brute_box_pairs(boxes, split))

    def test_same_order_as_eager_eviction(self):
        # A side's active list is pruned only now and then, and the pair
        # test skips the boxes that have left, so the sweep yields the
        # pairs of the eager rebuild, in its order: on each curve's own
        # edges (the simplicity check) and on a pair's joint edges (the
        # crossing scan).
        rng = random.Random("box-pairs:eager")
        pairs = [canonical_noncut_pair(m) for m in (1, 2, 5, 16)]
        pairs += [random_transverse_pair(rng)[:2] for _ in range(20)]
        for first, second in pairs:
            for curve in (first, second):
                boxes = list(zip(*curve.loop.edge_keys))
                assert (list(_box_pairs(boxes))
                        == list(eager_box_pairs(boxes)))
            joint = [*zip(*first.loop.edge_keys), *zip(*second.loop.edge_keys)]
            split = len(first)
            assert (list(_box_pairs(joint, split))
                    == list(eager_box_pairs(joint, split)))
        for width, height, grid in self.SHAPES.values():
            for count in (2, 17, 40):
                boxes = random_boxes(rng, count, width, height, grid)
                for split in (None, count // 3):
                    assert (list(_box_pairs(boxes, split))
                            == list(eager_box_pairs(boxes, split)))


class TestArrangement:
    def test_lens_faces(self):
        first = square(0, 0, 4, 4)
        second = square(2, 1, 6, 3)
        faces = build_arrangement(first, second, check_transverse(first, second))
        assert len(faces) == 4
        assert label_census(faces) == {(True, True): 1, (True, False): 1,
                                       (False, True): 1, (False, False): 1}
        overlap = [f for f in faces if f.in_K and f.in_Kt]
        assert signed_area(overlap[0].polygon) == 4  # [2,4]x[1,3]

    def test_plus_sign_faces(self):
        horiz = square(0, 1, 3, 2)
        vert = square(1, 0, 2, 3)
        faces = build_arrangement(horiz, vert, check_transverse(horiz, vert))
        assert len(faces) == 6
        assert label_census(faces) == {(True, True): 1, (True, False): 2,
                                       (False, True): 2, (False, False): 1}

    def test_disjoint_faces(self):
        first, second = square(0, 0, 1, 1), square(5, 5, 6, 6)
        faces = build_arrangement(first, second,
                                  check_transverse(first, second))
        assert label_census(faces) == {(True, False): 1, (False, True): 1,
                                       (False, False): 1}
        assert [f.polygon for f in faces] == [first.loop, second.loop, None]

    def test_nested_faces(self):
        outer = square(0, 0, 10, 10)
        inner = square(4, 4, 6, 6)
        faces = build_arrangement(inner, outer, check_transverse(inner, outer))
        assert label_census(faces) == {(True, True): 1, (False, True): 1,
                                       (False, False): 1}
        # face 0 is the inner loop; the annulus and the unbounded face have
        # no single boundary loop
        assert [f.polygon for f in faces] == [inner.loop, None, None]
        faces = build_arrangement(outer, inner, check_transverse(outer, inner))
        assert [(f.in_K, f.in_Kt) for f in faces] == [
            (True, True), (True, False), (False, False)]
        assert [f.polygon for f in faces] == [inner.loop, None, None]

    def test_area_identity_random_pairs(self):
        rng = random.Random(7021)
        done = 0
        while done < 25:
            a = star_polygon(rng, rng.randrange(6, 12), pt(0, 0), 2, 5)
            b = star_polygon(rng, rng.randrange(6, 12),
                             pt(Fraction(rng.randrange(-3, 4)),
                                Fraction(rng.randrange(-3, 4))), 2, 5)
            first = validate_curve(a)
            second = validate_curve(b)
            try:
                cs = check_transverse(first, second)
            except NotTransverse:
                continue
            if len(cs) == 0:
                continue
            faces = build_arrangement(first, second, cs)
            bounded = [f for f in faces if f.polygon is not None
                       and signed_area(f.polygon) > 0]
            assert len(bounded) == len(faces) - 1
            total = sum(signed_area(f.polygon) for f in bounded)
            both = sum(signed_area(f.polygon) for f in bounded
                       if f.in_K and f.in_Kt)
            expected = signed_area(first.loop) + signed_area(second.loop) - both
            assert total == expected
            census = label_census(faces)
            assert census.get((True, True), 0) >= 1
            assert census.get((True, False), 0) >= 1
            assert census.get((False, True), 0) >= 1
            done += 1


def counted_fractions(monkeypatch) -> list[int]:
    """A one-item counter of `Fraction.__new__` calls from here on."""
    calls = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def random_pairs(seed, count):
    rng = random.Random(seed)
    return [random_transverse_pair(rng)[:2] for _ in range(count)]


class TestIntegerCrossings:
    """cuts_each_other reads the crossing orders and kinds from integers
    alone, and check_transverse builds two `Fraction`s per crossing, its
    parameters, until something reads its point."""

    def test_cuts_each_other_builds_no_fraction_or_crossing(self, monkeypatch):
        pairs = [canonical_noncut_pair(16), *random_pairs(2401, 40)]
        calls = counted_fractions(monkeypatch)

        def refused(*args, **kwargs):
            raise AssertionError("cuts_each_other built a crossing")

        monkeypatch.setattr(jordan, "Crossing", refused)
        monkeypatch.setattr(jordan, "CrossingSet", refused)
        cutting = sum(cuts_each_other(a, b) for a, b in pairs)
        assert calls[0] == 0
        assert 0 < cutting < len(pairs)

    def test_check_transverse_builds_two_fractions_per_crossing(
            self, monkeypatch):
        pairs = [canonical_noncut_pair(16), *random_pairs(2402, 40)]
        calls = counted_fractions(monkeypatch)
        for first, second in pairs:
            before = calls[0]
            cs = check_transverse(first, second)
            assert calls[0] - before == 2 * len(cs)
            assert len({(c.param_k, c.param_kt) for c in cs}) == len(cs)
            assert calls[0] - before == 2 * len(cs)
            points = [c.point for c in cs]
            assert calls[0] - before == 4 * len(cs)
            assert [c.point for c in cs] == points  # computed once
            assert calls[0] - before == 4 * len(cs)

    def test_lazy_point_is_the_eager_one(self):
        pairs = [canonical_noncut_pair(m) for m in (1, 5, 16)]
        pairs += random_pairs(2403, 40)
        for first, second in pairs:
            cs = check_transverse(first, second)
            for c in cs:
                # point_at builds a + (b - a) u eagerly, in Fractions
                assert c.point == point_at(first, c.param_k)
                assert c.point == point_at(second, c.param_kt)
                eager = Crossing(c.index, point_at(first, c.param_k),
                                 c.param_k, c.param_kt, c.kind)
                assert eager == c and hash(eager) == hash(c)
                assert repr(eager) == repr(c)

    def test_cuts_each_other_is_the_pattern_cut(self):
        pairs = [canonical_noncut_pair(m) for m in range(1, 11)]
        pairs += random_pairs(2404, 40)
        cutting = 0
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                cuts = cuts_each_other(first, second)
                assert cuts == crossing_pattern_cuts(
                    check_transverse(first, second))
                cutting += cuts
        assert 0 < cutting

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejections_match_check_transverse(self, name):
        first, second = REJECTED[name]
        with pytest.raises(NotTransverse) as scan:
            check_transverse(first, second)
        with pytest.raises(NotTransverse) as cut:
            cuts_each_other(first, second)
        assert cut.type is scan.type
        assert str(cut.value) == str(scan.value)

    def test_exact_order_breaks_64_bit_ties(self):
        # values closer than 2^-64 share the 64-bit key; the order is
        # the exact one either way
        third = (1 << 70) // 3
        values = [(0, third + 2, 1 << 70), (0, third, 1 << 70), (0, 1, 3),
                  (0, third + 1, 1 << 70), (1, 1, 3), (0, 0, 5)]
        assert len({(s, (u << 64) // w) for s, u, w in values}) < 6
        assert _exact_order(values) == [5, 1, 2, 3, 0, 4]
        rng = random.Random(2405)
        for _ in range(200):
            values = []
            for _ in range(rng.randrange(1, 9)):
                w = rng.choice([3, 7, 1 << 66, 3 << 66])
                values.append((rng.randrange(2), rng.randrange(w), w))
            exact = [s + Fraction(u, w) for s, u, w in values]
            if len(set(exact)) == len(values):
                assert [exact[h] for h in _exact_order(values)] \
                    == sorted(exact)


class TestCuts:
    def test_lens_does_not_cut(self):
        assert not cuts_each_other(square(0, 0, 4, 4), square(2, 1, 6, 3))

    def test_plus_sign_cuts(self):
        assert cuts_each_other(square(0, 1, 3, 2), square(1, 0, 2, 3))

    def test_disjoint_does_not_cut(self):
        assert not cuts_each_other(square(0, 0, 1, 1), square(5, 5, 6, 6))

    def test_nested_does_not_cut(self):
        assert not cuts_each_other(square(4, 4, 6, 6), square(0, 0, 10, 10))


def alternating_patterns(m):
    """Every crossing set with 2m crossings whose kinds alternate along both
    curves, the second curve's order listed from crossing 0."""
    n = 2 * m
    for first_kind, other_kind in ((CrossKind.P, CrossKind.PTILDE),
                                   (CrossKind.PTILDE, CrossKind.P)):
        kinds = [first_kind if k % 2 == 0 else other_kind for k in range(n)]
        odd, even = range(1, n, 2), range(2, n, 2)
        for odds, evens in itertools.product(itertools.permutations(odd),
                                             itertools.permutations(even)):
            order = [0] * n
            order[1::2], order[2::2] = odds, evens
            position = {c: a for a, c in enumerate(order)}
            yield CrossingSet(tuple(
                Crossing(index=k, point=pt(0, 0), param_k=Fraction(k, n),
                         param_kt=Fraction(position[k], n), kind=kinds[k])
                for k in range(n)))


def geometric_faces(first, second, cs):
    """(boundary, in_K, in_Kt, polygon) per face as the angular sort traces
    them (angular_trace_faces over the arc polylines), each bounded face
    labeled at an interior point; the unbounded one is in neither region."""
    arcs = []
    for tag, curve, order, attr in (
            ("first", first, cs.crossings, "param_k"),
            ("second", second, cs.by_param_kt(), "param_kt")):
        stops = [(getattr(c, attr), c.point) for c in order]
        for a, line in enumerate(_arcs_of(curve, stops)):
            arcs.append((tag, order[a].index,
                         order[(a + 1) % len(order)].index, line))
    faces = []
    for steps, polygon, area in angular_trace_faces([arc[1:] for arc in arcs]):
        labels = (False, False)
        if area > 0:
            p = interior_point(polygon)
            labels = (first.contains(p) is PointLocation.INSIDE,
                      second.contains(p) is PointLocation.INSIDE)
        faces.append((tuple([(*arcs[k][:3], forward) for k, forward in steps]),
                      *labels, polygon))
    return faces


class TestCrossingFaces:
    def test_matches_geometric_labels_on_random_pairs(self):
        rng = random.Random(4417)
        cutting = 0
        for _ in range(40):
            a, b, _ = random_transverse_pair(rng)
            for first, second in ((a, b), (b, a)):
                cs = check_transverse(first, second)
                faces = geometric_faces(first, second, cs)
                assert crossing_faces(cs) == [f[:3] for f in faces]
                assert [f.polygon for f in build_arrangement(
                    first, second, cs)] == [f[3] for f in faces]
                labels = [f[1:3] for f in faces]
                cuts = (labels.count((True, False)) > 1
                        or labels.count((False, True)) > 1)
                assert cuts_each_other(first, second) == cuts
                cutting += cuts
        assert 0 < cutting < 80

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_geometric_labels_on_canonical_pairs(self, m):
        a, b = canonical_noncut_pair(m)
        for first, second in ((a, b), (b, a)):
            cs = check_transverse(first, second)
            faces = geometric_faces(first, second, cs)
            assert crossing_faces(cs) == [f[:3] for f in faces]
            assert [f.polygon for f in build_arrangement(
                first, second, cs)] == [f[3] for f in faces]
            assert not cuts_each_other(first, second)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_planar_pattern_cuts_unless_cataloged(self, m):
        words = enumerate_noncut_words(m)
        planar = noncut = 0
        for cs in alternating_patterns(m):
            try:
                faces = crossing_faces(cs)
            except InvariantFailure:
                continue  # the Euler check: no plane realizes this pattern
            planar += 1
            # At kind P the first curve enters Kt, so the arc leaving it
            # bounds a face in both regions; at Ptilde that face is K only.
            for boundary, in_K, in_Kt in faces:
                for curve, start, _, forward in boundary:
                    if curve == "first" and forward:
                        assert in_K
                        assert in_Kt == (cs.crossings[start].kind
                                         is CrossKind.P)
            cuts = crossing_pattern_cuts(cs)
            assert cuts == (crossing_word(cs) not in words)
            noncut += not cuts
        assert noncut > 0 and (planar > noncut or m == 1)

    def test_no_crossings_never_cut(self):
        assert not crossing_pattern_cuts(CrossingSet(()))
        with pytest.raises(InvariantFailure):
            crossing_faces(CrossingSet(()))


class TestCanonicalPair:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_shape(self, m):
        first, second = canonical_noncut_pair(m)
        cs = check_transverse(first, second)
        assert len(cs) == 2 * m
        faces = build_arrangement(first, second, cs)
        assert len(faces) == 2 * m + 2
        census = label_census(faces)
        assert census[(True, False)] == 1
        assert census[(False, True)] == 1
        assert not cuts_each_other(first, second)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_word_matches_unique_combinatorial_class(self, m):
        words = enumerate_noncut_words(m)
        assert len(words) == 1
        first, second = canonical_noncut_pair(m)
        assert crossing_word(check_transverse(first, second)) == words.pop()

    def test_cutting_pair_word_not_in_catalog(self):
        words = enumerate_noncut_words(2)
        horiz = square(0, 1, 3, 2)
        vert = square(1, 0, 2, 3)
        assert crossing_word(check_transverse(horiz, vert)) not in words


class TestSeededLoops:
    """Only the canonical pairs' curves are built with their rows seeded.
    Those curves and the arrangement faces, built trusted from points alone,
    equal the loops the checked constructor builds from their vertices."""

    PAIRS = (1, 4, 9)

    def loops(self):
        rng = random.Random(3408)
        pairs = [canonical_noncut_pair(m) for m in self.PAIRS]
        for first, second in pairs:
            yield first.loop
            yield second.loop
        pairs += [random_transverse_pair(rng)[:2] for _ in range(8)]
        for first, second in pairs:
            for face in build_arrangement(first, second,
                                          check_transverse(first, second)):
                yield face.polygon

    def test_equal_to_the_loop_built_from_its_points(self):
        for loop in self.loops():
            points = PLLoop(loop.vertices)
            twin = TWINS["PLLoop"](points.vertices)
            assert loop == points and hash(loop) == hash(points) == hash(twin)
            assert repr(loop) == repr(points) == repr(twin)
            assert len(loop) == len(points)
            assert loop.edge_keys == points.edge_keys
            assert loop.rows == points.rows  # least rows

    def test_only_the_canonical_curves_seed_rows(self):
        for m in self.PAIRS:
            first, second = canonical_noncut_pair(m)
            assert "rows" in vars(first.loop) and "rows" in vars(second.loop)
            cs = check_transverse(first, second)
            for curve, attr in ((first, "param_k"), (second, "param_kt")):
                stops = sorted([(getattr(c, attr), c.point) for c in cs])
                refined = _join_polylines(_arcs_of(curve, stops))
                assert "rows" not in vars(refined)
                assert len(refined) == len(curve) + len(cs)
                assert refined.rows == PLLoop(refined.vertices).rows
