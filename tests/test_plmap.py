"""Circle correspondences, difference loops, index, gluing, transport."""
import bisect
import importlib.util
import itertools
import json
import math
import random
import statistics
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from fpindex.errors import (
    ArcsDisagree,
    BadGluingGeometry,
    DegenerateLoop,
    FpIndexError,
    HasFixedPoint,
    InputRejection,
    NotOrientationPreserving,
)
from fpindex.exact_geom import (
    PointLocation,
    RatPoint,
    edge_crossing,
    point_in_polygon,
    pt,
    signed_area,
)
from fpindex.jordan import PolyJordanCurve, canonical_noncut_pair, validate_curve
from fpindex.packing import assemble_theorem_certificate
from fpindex.plmap import (
    PLCorrespondence,
    _bend_walk,
    difference_loop,
    fixed_point_index,
    glue,
    random_correspondence,
)

from fpindex.prescribe import prescribe
from fpindex.torus import build_diagram, path_of_correspondence, realize_path

from geomgen import (
    AffineMap,
    circle_pools,
    grid_curve,
    identity_params,
    integer_coords,
    interior_point,
    random_map_over,
    random_transverse_pair,
    square_curve,
    star_polygon,
    synthesize_constraints,
    transform_pair,
    turning_winding_oracle,
)
from packfix import bent_one_piece_pair, one_piece_pair, two_piece_pair

F = Fraction


def rotation_params(n: int, k: int) -> PLCorrespondence:
    return PLCorrespondence(tuple((F(i, n), F((i + k) % n, n))
                                  for i in range(n)))


class TestPLCorrespondence:
    def test_rejects_single_breakpoint(self):
        with pytest.raises(InputRejection):
            PLCorrespondence(((F(0), F(0)),))

    def test_rejects_unsorted_sources(self):
        with pytest.raises(NotOrientationPreserving):
            PLCorrespondence(((F(1, 2), F(0)), (F(1, 4), F(1, 2))))

    def test_rejects_reversed_targets(self):
        with pytest.raises(NotOrientationPreserving):
            PLCorrespondence(((F(0), F(3, 4)), (F(1, 4), F(1, 2)),
                              (F(1, 2), F(1, 4)), (F(3, 4), F(0))))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputRejection):
            PLCorrespondence(((F(0), F(0)), (F(1), F(1, 2))))

    def test_rejects_target_out_of_range(self):
        with pytest.raises(InputRejection,
                           match=r"^target parameters must lie in \[0, 1\)$"):
            PLCorrespondence(((F(0), F(0)), (F(1, 2), F(1))))

    def test_evaluate_at_and_between_breakpoints(self):
        phi = PLCorrespondence(((F(0), F(1, 2)), (F(1, 2), F(3, 4))))
        assert phi.evaluate(F(0)) == F(1, 2)
        assert phi.evaluate(F(1, 2)) == F(3, 4)
        assert phi.evaluate(F(1, 4)) == F(5, 8)
        # wrap piece rises from 3/4 through 1 back to 1/2, total 3/4
        assert phi.evaluate(F(3, 4)) == F(1, 8)

    def test_invert_round_trip(self):
        rng = random.Random(404)
        for _ in range(20):
            phi = random_correspondence(rng, rng.randrange(2, 9))
            inv = phi.invert()
            for _ in range(10):
                s = F(rng.randrange(2048), 2048)
                assert inv.evaluate(phi.evaluate(s)) == s


def reference_evaluate(phi, s):
    """phi(s) on `Fraction`s: s mod 1 on the piece holding it, the last
    piece running past s = 1 to the first breakpoint plus 1."""
    s = s % 1
    bps = phi.breakpoints
    n = len(bps)
    i = bisect.bisect_right(phi.s_vals, s) - 1
    if i < 0:
        i = n - 1
        s = s + 1
    s_i, t_i = bps[i]
    s_next = bps[(i + 1) % n][0] + (1 if i == n - 1 else 0)
    t_step = (bps[(i + 1) % n][1] - t_i) % 1
    return (t_i + t_step * (s - s_i) / (s_next - s_i)) % 1


def realized_maps(rng, count: int):
    """Maps realize_path builds from path_of_correspondence's and
    prescribe's paths on random star pairs: breakpoints with large
    denominators that interpolate between crossing parameters."""
    for _ in range(count):
        first, second, crossings = random_transverse_pair(rng)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        diagram = build_diagram(first, second, crossings,
                                synthesize_constraints(crossings, phi, rng))
        for path in (path_of_correspondence(diagram, phi),
                     prescribe(diagram)[0]):
            yield first, second, realize_path(diagram, path)


class TestEvaluateOnIntegers:
    def queries(self, rng, phi):
        """Every breakpoint, 0 and a point below the first breakpoint, the
        midpoints of the pieces (the last one's past 1), random points, and
        all of them moved outside [0, 1) by whole turns."""
        s_vals = phi.s_vals
        qs = [*s_vals, F(0), s_vals[0] / 3,
              *[(a + b) / 2 for a, b in zip(s_vals, s_vals[1:])],
              (s_vals[-1] + 1) / 2,
              *[F(rng.randrange(9973), 9973) for _ in range(5)]]
        return qs + [q + rng.choice((-3, -1, 1, 2)) for q in qs]

    def test_matches_the_fraction_formula(self):
        rng = random.Random(9100)
        maps = [mixed_correspondence(rng, rng.randrange(2, 10))
                for _ in range(150)]
        maps += [phi for *_, phi in realized_maps(rng, 25)]
        below = 0
        for phi in maps:
            for s in self.queries(rng, phi):
                got = phi.evaluate(s)
                assert type(got) is F and got == reference_evaluate(phi, s)
                below += s % 1 < phi.s_vals[0]
        assert below > 300


class TestRandomCorrespondence:
    def test_same_draws_as_the_fraction_sets(self):
        # 128 of the 1024 parameters: each draw repeats about 8 values
        sizes = random.Random(8800)
        for seed in range(400):
            count = sizes.choice((2, 3, 5, 10, 128))
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_correspondence(got_rng, count)
            want = random_map_over(want_rng, count, 1024)
            assert got.breakpoints == want.breakpoints
            assert got_rng.getstate() == want_rng.getstate()

    def test_rejects_more_breakpoints_than_parameters(self):
        # there are only 1024 parameters k/1024; the draw would never finish
        with pytest.raises(InputRejection):
            random_correspondence(random.Random(0), 1025)
        assert len(random_correspondence(random.Random(0),
                                         1024).breakpoints) == 1024


class TestIndex:
    def test_interleaved_rectangles_corner_map(self):
        # Corner displacement vectors circle the origin once clockwise.
        first = square_curve(0, -1, 3, 4)
        second = square_curve(-1, 0, 4, 3)
        phi = identity_params(4)
        loop = difference_loop(first, second, phi)
        assert set(loop.vertices) == {pt(-1, 1), pt(1, 1), pt(1, -1), pt(-1, -1)}
        assert fixed_point_index(first, second, phi) == -1

    def test_quarter_rotation_of_square(self):
        c = square_curve(0, 0, 2, 2)
        assert fixed_point_index(c, c, rotation_params(4, 1)) == 1

    def test_identity_has_fixed_points(self):
        c = square_curve(0, 0, 2, 2)
        with pytest.raises(HasFixedPoint):
            fixed_point_index(c, c, identity_params(4))

    def test_pure_translation_is_degenerate_but_index_zero(self):
        a = square_curve(0, 0, 2, 2)
        b = square_curve(10, 0, 12, 2)
        phi = identity_params(4)
        with pytest.raises(DegenerateLoop):
            difference_loop(a, b, phi)
        assert fixed_point_index(a, b, phi) == 0

    def test_origin_on_difference_edge_is_a_fixed_point(self):
        # Bottom edge (0,0)->(2,0) maps onto (-1,-1)->(3,1); both midpoints
        # are (1,0), a fixed point interior to an edge.
        a = square_curve(0, 0, 2, 4)
        b = validate_curve([pt(-1, -1), pt(3, 1), pt(3, 5), pt(-1, 5)])
        with pytest.raises(HasFixedPoint):
            fixed_point_index(a, b, identity_params(4))

    @pytest.mark.parametrize("target", [
        # Shares the corner (0, 0), which maps to itself at a breakpoint.
        [(0, 0), (3, -1), (3, 3), (-1, 3)],
        # Target vertex (1, 0) sits at t = 1/8, the image of the source
        # point (1, 0); 1/8 is neither a breakpoint nor a source vertex.
        [(0, -1), (1, 0), (3, -1), (3, 1), (3, 3), (1, 3), (-1, 3), (-1, 1)],
    ])
    def test_origin_at_difference_vertex_is_a_fixed_point(self, target):
        a = square_curve(0, 0, 2, 2)
        b = validate_curve([pt(x, y) for x, y in target])
        loop = difference_loop(a, b, identity_params(4))
        assert pt(0, 0) in loop.vertices
        with pytest.raises(HasFixedPoint):
            fixed_point_index(a, b, identity_params(4))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_disjoint_pair_has_index_zero(self, seed):
        rng = random.Random(seed)
        first = validate_curve(star_polygon(rng, 8, pt(0, 0), 2, 4))
        second = validate_curve(star_polygon(rng, 9, pt(20, 0), 2, 4))
        for _ in range(5):
            phi = random_correspondence(rng, rng.randrange(3, 10))
            assert fixed_point_index(first, second, phi) == 0

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_nested_pair_has_index_one(self, seed):
        rng = random.Random(seed)
        first = validate_curve(star_polygon(rng, 8, pt(0, 0), 2, 4))
        second = validate_curve(star_polygon(rng, 9, pt(0, 0), 20, 30))
        for _ in range(5):
            phi = random_correspondence(rng, rng.randrange(3, 10))
            assert fixed_point_index(first, second, phi) == 1

    def test_index_agrees_with_turning_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            first, second, _ = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 10))
            try:
                loop = difference_loop(first, second, phi)
                got = fixed_point_index(first, second, phi)
            except (HasFixedPoint, DegenerateLoop):
                continue
            assert got == turning_winding_oracle(list(loop.vertices), pt(0, 0))

    def test_inverse_has_equal_index(self):
        rng = random.Random(41)
        for _ in range(25):
            first, second, _ = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 10))
            try:
                eta = fixed_point_index(first, second, phi)
            except HasFixedPoint:
                continue
            assert fixed_point_index(second, first, phi.invert()) == eta


def _inner_vertices(lo: int, width: int, n: int, den: int,
                    step: int) -> list[int]:
    """Local u = (i * den - lo * n) * step of the vertices i/n lying strictly
    between lo/den and (lo + width)/den, ascending."""
    return [(i * den - lo * n) * step
            for i in range(lo * n // den + 1, -(-(lo + width) * n // den))]


def reference_bend_walk(n_source, n_target, phi):
    """The walk with every piece over one common denominator, the lcm of
    all breakpoint denominators."""
    bps = phi.breakpoints
    den = lcm(*[q.denominator for pair in bps for q in pair])
    sig = [s.numerator * (den // s.denominator) for s, _ in bps]
    tau = [t.numerator * (den // t.denominator) for _, t in bps]
    sig.append(sig[0] + den)
    tau.append(tau[0])
    walk = []
    for k in range(len(bps)):
        s0, t0 = sig[k], tau[k]
        ds, dt = sig[k + 1] - s0, (tau[k + 1] - t0) % den
        span = lcm(n_source * ds, n_target * dt)
        g = den * span
        us = _inner_vertices(s0, ds, n_source, den, span // (n_source * ds))
        ut = _inner_vertices(t0, dt, n_target, den, span // (n_target * dt))
        a = b = u = 0
        while u < span:
            walk.append((s0 * span + u * ds, t0 * span + u * dt, g))
            next_s = us[a] if a < len(us) else span
            next_t = ut[b] if b < len(ut) else span
            u = min(next_s, next_t)
            if next_s == u:
                a += 1
            if next_t == u:
                b += 1
    wrap = len(walk)
    while wrap and walk[wrap - 1][0] >= walk[wrap - 1][2]:
        wrap -= 1
    return walk[wrap:] + walk[:wrap]


def mixed_correspondence(rng, count: int) -> PLCorrespondence:
    """Breakpoints whose denominators differ from piece to piece."""
    def draw():
        vals = set()
        while len(vals) < count:
            den = rng.choice((3, 5, 8, 49, 997, 1024, 3 * 1024))
            vals.add(F(rng.randrange(den), den))
        return sorted(vals)
    s_vals, t_vals = draw(), draw()
    shift = rng.randrange(count)
    return PLCorrespondence(tuple(zip(s_vals, t_vals[shift:] + t_vals[:shift])))


def walk_points(walk):
    """Each entry's parameter and image as rationals, both taken mod 1."""
    return [(F(s, g) % 1, F(t, g) % 1) for s, t, g, *_ in walk]


class TestBendWalkPerPiece:
    def check_walk(self, n_source, n_target, phi) -> bool:
        """Same entries as rationals and in the same order; every per-piece
        denominator divides the common one; each entry lies in [0, 1) and
        names the source and target edges holding it. True if one
        denominator is smaller."""
        got = _bend_walk(n_source, n_target, phi)
        want = reference_bend_walk(n_source, n_target, phi)
        assert walk_points(got) == walk_points(want)
        for s, t, g, i, j in got:
            assert 0 <= s < g and 0 <= t < g
            assert (i, j) == (s * n_source // g, t * n_target // g)
        assert all(g_old % g == 0 for (_, _, g, *_), (_, _, g_old) in zip(got, want))
        return any(g < g_old for (_, _, g, *_), (_, _, g_old) in zip(got, want))

    def test_matches_the_common_denominator_walk(self):
        rng = random.Random(8100)
        smaller = 0
        for k in range(300):
            n_source, n_target = rng.randrange(3, 40), rng.randrange(3, 40)
            count = rng.randrange(2, 10)
            phi = (random_map_over(rng, count, rng.choice((12, 64, 1024)))
                   if k % 2 else mixed_correspondence(rng, count))
            smaller += self.check_walk(n_source, n_target, phi)
        assert smaller > 100

    def test_matches_on_realized_paths(self):
        # realize_path mixes token parameters with interpolated ones, the
        # maps fixed_point_index sees in the prescription pipeline; their
        # pieces' denominators G run to hundreds of bits, where the walk
        # sets each piece up from one gcd and no division by G
        rng = random.Random(8200)
        smaller = 0
        bits = []
        for first, second, realized in realized_maps(rng, 30):
            smaller += self.check_walk(len(first), len(second), realized)
            bits += [g.bit_length() for g in {
                g for _, _, g, *_ in _bend_walk(len(first), len(second),
                                                realized)}]
        assert smaller > 30
        assert statistics.median(bits) > 300 and max(bits) > 1500


def reference_origin_winding(cycle):
    """The winding rule read on every edge of the cycle."""
    w = 0
    for i in range(len(cycle)):
        xa, ya = cycle[i - 1][0], cycle[i - 1][1]
        xb, yb = cycle[i][0], cycle[i][1]
        if (ya > 0 and yb > 0) or (ya < 0 and yb < 0):
            continue
        c = xa * yb - ya * xb
        if c == 0 and xa * xb + ya * yb <= 0:
            raise HasFixedPoint("difference loop passes through the origin")
        if ya <= 0 < yb and c > 0:
            w += 1
        elif yb <= 0 < ya and c < 0:
            w -= 1
    return w


def joint_int_coords(first, second):
    """(D, X1, Y1, X2, Y2): the vertices of both loops over one
    denominator."""
    den1, xs1, ys1 = integer_coords(first.vertices)
    den2, xs2, ys2 = integer_coords(second.vertices)
    den = lcm(den1, den2)
    f1, f2 = den // den1, den // den2
    return (den, [x * f1 for x in xs1], [y * f1 for y in ys1],
            [x * f2 for x in xs2], [y * f2 for y in ys2])


def reference_fixed_point_index(source, target, phi):
    """The index from every bend: the common-denominator walk, each bend
    placed by divmod as a homogeneous triple over the joint denominator,
    and every edge of the difference loop wound."""
    den, xs_s, ys_s, xs_t, ys_t = joint_int_coords(source.loop, target.loop)
    n, m = len(xs_s), len(xs_t)
    cycle = []
    for s, t, g in reference_bend_walk(n, m, phi):
        i, r = divmod(s * n, g)
        i, i1 = i % n, (i + 1) % n
        j, q = divmod(t * m, g)
        j, j1 = j % m, (j + 1) % m
        cycle.append((
            xs_t[j] * (g - q) + xs_t[j1] * q - xs_s[i] * (g - r) - xs_s[i1] * r,
            ys_t[j] * (g - q) + ys_t[j1] * q - ys_s[i] * (g - r) - ys_s[i1] * r,
            den * g))
    if not any(x or y for x, y, _ in cycle):
        raise HasFixedPoint("correspondence is the identity on the boundary")
    return reference_origin_winding(cycle)


def index_outcome(index, source, target, phi):
    """The index, or the error's class name and message."""
    try:
        return index(source, target, phi)
    except FpIndexError as exc:
        return type(exc).__name__, str(exc)


THROUGH_ORIGIN = ("HasFixedPoint", "difference loop passes through the origin")
IDENTITY = ("HasFixedPoint", "correspondence is the identity on the boundary")


def cell_relations(source, target, phi) -> dict[str, int]:
    """How each walk entry's cell compares the target edge's ranges with
    the source edge's, by the exact rule that the index's key filter
    follows: "y_apart" (y-ranges strictly above or below), else "x_left"
    (the target's x-range strictly left of the source's), else "touch"
    (a y end or the x ends meet, with equality) or "overlap"."""
    _, xs_s, ys_s, xs_t, ys_t = joint_int_coords(source.loop, target.loop)
    n, m = len(xs_s), len(xs_t)
    counts = {"y_apart": 0, "x_left": 0, "touch": 0, "overlap": 0}
    for _, _, _, i, j in _bend_walk(n, m, phi):
        lo_s, hi_s = sorted((ys_s[i], ys_s[(i + 1) % n]))
        lo_t, hi_t = sorted((ys_t[j], ys_t[(j + 1) % m]))
        lx_s = min(xs_s[i], xs_s[(i + 1) % n])
        hx_t = max(xs_t[j], xs_t[(j + 1) % m])
        if lo_t > hi_s or hi_t < lo_s:
            counts["y_apart"] += 1
        elif hx_t < lx_s:
            counts["x_left"] += 1
        elif lo_t == hi_s or hi_t == lo_s or hx_t == lx_s:
            counts["touch"] += 1
        else:
            counts["overlap"] += 1
    return counts


class TestPrunedIndex:
    """fixed_point_index builds exact ends only for the difference-loop
    edges whose cell's y-keys meet and whose target x-keys do not lie left
    of the source's, which every cell that the exact ranges keep passes; it
    must give the value, or the error class and message, of the reference
    that winds every bend."""

    def check(self, source, target, phi):
        got = index_outcome(fixed_point_index, source, target, phi)
        assert got == index_outcome(reference_fixed_point_index,
                                    source, target, phi)
        return got

    def test_circle_pairs_forward_and_inverse(self):
        rng = random.Random(8300)
        pools = circle_pools(rng, per_class=1)
        apart = total = 0
        for (first, second), in pools.values():
            for _ in range(10):
                phi = random_correspondence(rng, rng.randrange(3, 10))
                for pair in ((first, second, phi),
                             (second, first, phi.invert())):
                    self.check(*pair)
                    counts = cell_relations(*pair)
                    apart += counts["y_apart"]
                    total += sum(counts.values())
        # the filter's main path: most bends need no exact products
        assert apart > 0.8 * total

    def test_star_and_canonical_pairs(self):
        rng = random.Random(8400)
        pairs = [random_transverse_pair(rng)[:2] for _ in range(30)]
        pairs += [canonical_noncut_pair(m) for m in range(1, 9)]
        for first, second in pairs:
            for _ in range(3):
                phi = random_correspondence(rng, rng.randrange(3, 10))
                self.check(first, second, phi)
                self.check(second, first, phi.invert())

    def test_realized_maps(self):
        for first, second, realized in realized_maps(random.Random(8500), 12):
            self.check(first, second, realized)

    def test_identity_maps(self):
        rng = random.Random(8600)
        star = validate_curve(star_polygon(rng, 9, pt(0, 0), 2, 4))
        (circle, _), = circle_pools(rng, per_class=1)["disjoint"]
        two_pieces = PLCorrespondence(((F(0), F(0)), (F(1, 2), F(1, 2))))
        for c in (square_curve(0, 0, 2, 2), star, circle):
            assert self.check(c, c, identity_params(len(c))) == IDENTITY
            assert self.check(c, c, two_pieces) == IDENTITY

    @pytest.mark.parametrize("target", [
        # mid-edge: both bottom-edge midpoints are (1, 0)
        [(-1, -1), (3, 1), (3, 5), (-1, 5)],
        # at a breakpoint: the shared corner (0, 0)
        [(0, 0), (3, -1), (3, 4), (-1, 4)],
        # at a target vertex off the breakpoints and source vertices
        [(0, -1), (1, 0), (3, -1), (3, 1), (3, 5), (1, 5), (-1, 5), (-1, 1)],
    ], ids=["mid_edge", "breakpoint", "target_vertex"])
    def test_differences_through_the_origin(self, target):
        a = square_curve(0, 0, 2, 4)
        b = validate_curve([pt(x, y) for x, y in target])
        assert self.check(a, b, identity_params(4)) == THROUGH_ORIGIN

    def test_horizontal_edges_and_touching_ranges(self):
        # Grid curves have horizontal edges and share y values, and maps
        # over small denominators land bends on vertices: many cells touch
        # exactly, and many difference loops pass through the origin.
        rng = random.Random(8700)
        touching = through_origin = 0
        for _ in range(400):
            a, b = grid_curve(rng), grid_curve(rng)
            phi = random_map_over(rng, rng.randrange(2, 5),
                                  rng.choice((4, 8, 12)))
            through_origin += self.check(a, b, phi) == THROUGH_ORIGIN
            touching += cell_relations(a, b, phi)["touch"] > 0
        assert touching > 100 and through_origin > 20

    def test_exact_ends_only_on_kept_cells(self, monkeypatch):
        # One edge_crossing call per step whose cell's ranges overlap or
        # touch, and none for a step the filter skips: y apart or x left.
        calls = []

        def counted(*ends):
            calls.append(ends)
            return edge_crossing(*ends)

        monkeypatch.setattr("fpindex.plmap.edge_crossing", counted)
        rng = random.Random(8800)
        pairs = [pair for pair, in circle_pools(rng, per_class=1).values()]
        pairs += [random_transverse_pair(rng)[:2] for _ in range(8)]
        indexed = x_left = 0
        for first, second in pairs:
            for _ in range(4):
                phi = random_correspondence(rng, rng.randrange(3, 10))
                for pair in ((first, second, phi),
                             (second, first, phi.invert())):
                    calls.clear()
                    try:
                        fixed_point_index(*pair)
                    except HasFixedPoint:
                        continue
                    counts = cell_relations(*pair)
                    assert len(calls) == counts["touch"] + counts["overlap"]
                    indexed += 1
                    x_left += counts["x_left"]
        assert indexed > 60 and x_left > 100


    # The walk filters on PLLoop.edge_keys, each edge's x- and y-range
    # floored and ceiled at 2^-64: keys apart must imply exact ranges apart,
    # and a cell whose ranges are apart by less than 2^-64 is kept and must
    # add 0.

    @pytest.mark.parametrize("gap", [F(1, 2 ** 70), F(-1, 2 ** 70),
                                     F(1, 3 * 2 ** 65)])
    def test_ranges_apart_by_less_than_the_key_step(self, monkeypatch, gap):
        # The target's bottom edge lies at y = 1 + gap, the source's top
        # edge at y = 1: apart, but by less than 2^-64, so their keys meet
        # and the walk keeps the cells between them.
        calls = []

        def counted(*ends):
            calls.append(ends)
            return edge_crossing(*ends)

        monkeypatch.setattr("fpindex.plmap.edge_crossing", counted)
        source = square_curve(0, 0, 2, 1)
        target = validate_curve([pt(-1, 1 + gap), pt(3, 1 + gap), pt(3, 4),
                                 pt(-1, 4)])
        rng = random.Random(8900)
        maps = [rotation_params(4, 2), rotation_params(4, 1)]
        maps += [random_correspondence(rng, rng.randrange(3, 8))
                 for _ in range(20)]
        widened = 0
        for phi in maps:
            for pair in ((source, target, phi), (target, source, phi.invert())):
                calls.clear()
                self.check(*pair)
                counts = cell_relations(*pair)
                assert len(calls) >= counts["touch"] + counts["overlap"]
                widened += len(calls) > counts["touch"] + counts["overlap"]
        assert widened > 10

    @pytest.mark.parametrize("gap", [F(1, 2 ** 70), F(-1, 2 ** 70),
                                     F(1, 3 * 2 ** 65)])
    def test_x_ranges_apart_by_less_than_the_key_step(self, monkeypatch, gap):
        # The target's right edge lies at x = -gap, the source's left edge
        # at x = 0. With gap > 0 the target's edges that reach x = -gap lie
        # left of the source's edges that reach x = 0, and with gap < 0 the
        # source's lie left of the target's, which the inverse walk sees:
        # apart by less than 2^-64, so their keys meet and the walk keeps
        # those cells.
        calls = []

        def counted(*ends):
            calls.append(ends)
            return edge_crossing(*ends)

        monkeypatch.setattr("fpindex.plmap.edge_crossing", counted)
        source = square_curve(0, 0, 2, 2)
        target = validate_curve([pt(-3, -1), pt(-gap, -1), pt(-gap, 3),
                                 pt(-3, 3)])
        rng = random.Random(8950)
        maps = [rotation_params(4, 2), rotation_params(4, 1)]
        maps += [random_correspondence(rng, rng.randrange(3, 8))
                 for _ in range(20)]
        widened = x_left = 0
        for phi in maps:
            for pair in ((source, target, phi), (target, source, phi.invert())):
                calls.clear()
                self.check(*pair)
                counts = cell_relations(*pair)
                assert len(calls) >= counts["touch"] + counts["overlap"]
                widened += len(calls) > counts["touch"] + counts["overlap"]
                x_left += counts["x_left"]
        assert x_left > 0 and widened > 10

    @pytest.mark.parametrize("scale", [F(1), F(1, 3), F(7, 5)])
    def test_touching_x_ranges_with_a_fixed_point(self, scale):
        # Source edge 3 runs down x = 0 from (0, 2) and target edge 1 up it
        # from (0, 0): their x-ranges touch at 0, and the half-turn map sends
        # (0, 1) to itself there, so the index is undefined.
        source = validate_curve([pt(x * scale, y * scale) for x, y in
                                 ((0, 0), (2, 0), (2, 2), (0, 2))])
        target = validate_curve([pt(x * scale, y * scale) for x, y in
                                 ((-2, 0), (0, 0), (0, 2), (-2, 2))])
        phi = rotation_params(4, 2)
        for pair in ((source, target, phi), (target, source, phi.invert())):
            assert self.check(*pair) == THROUGH_ORIGIN
            assert cell_relations(*pair)["touch"] > 0

    @pytest.mark.parametrize("scale", [F(1), F(1, 3), F(7, 5)])
    def test_touching_ranges_with_a_fixed_point(self, scale):
        # Source edge 1 runs up to (2, 2) and target edge 3 down to it: their
        # y-ranges touch at 2, and the quarter-turn map sends (2, 2) to
        # itself there, so the index is undefined.
        source = validate_curve([pt(x * scale, y * scale) for x, y in
                                 ((0, 0), (2, 0), (2, 2), (0, 2))])
        target = validate_curve([pt(x * scale, y * scale) for x, y in
                                 ((2, 2), (4, 2), (4, 4), (2, 4))])
        phi = rotation_params(4, 2)
        for pair in ((source, target, phi), (target, source, phi.invert())):
            assert self.check(*pair) == THROUGH_ORIGIN
            assert cell_relations(*pair)["touch"] > 0

    def test_every_lattice_map_in_each_position(self):
        # Every map with two or three breakpoints on the 1/6 lattice, which
        # holds the triangles' vertices and two of each square's, between
        # lattice polygons left of each other, nested, crossing and sharing
        # the edge x = 0. Both orders of each pair run every map: the set is
        # closed under inversion, so the inverses run too.
        grid = [F(k, 6) for k in range(6)]
        maps = [PLCorrespondence(tuple(zip(ss, ts[r:] + ts[:r])))
                for size in (2, 3)
                for ss in itertools.combinations(grid, size)
                for ts in itertools.combinations(grid, size)
                for r in range(size)]
        assert len(maps) == 2 * 15 ** 2 + 3 * 20 ** 2

        def tri(*corners):
            return validate_curve([pt(x, y) for x, y in corners])

        square = square_curve(0, 0, 2, 2)
        positions = {
            "left": (square, tri((-3, 1), (-1, 0), (-1, 3))),
            "nested": (square_curve(-1, -1, 3, 3), tri((0, 0), (2, 1), (1, 2))),
            "crossing": (square, tri((1, -1), (3, 1), (1, 3))),
            "shared_edge": (square, square_curve(-2, 0, 0, 2)),
        }
        for name, (first, second) in positions.items():
            seen = set()
            for phi in maps:
                seen.add(self.check(first, second, phi))
                seen.add(self.check(second, first, phi))
            assert seen == {"left": {0}, "nested": {1},
                            "crossing": {0, 1, THROUGH_ORIGIN},
                            "shared_edge": {0, THROUGH_ORIGIN}}[name]

    def test_keys_bracket_the_exact_ranges(self):
        rng = random.Random(9000)
        curves = [c for pair, in circle_pools(rng, per_class=1).values()
                  for c in pair]
        curves += [c for _ in range(20) for c in random_transverse_pair(rng)[:2]]
        curves += [c for m in (1, 5, 16) for c in canonical_noncut_pair(m)]
        curves += [grid_curve(rng) for _ in range(20)]
        for curve in curves:
            keys = curve.loop.edge_keys
            assert len(keys) == 4
            for axis, (lo, hi) in enumerate((keys[:2], keys[2:])):
                vs = [p.y if axis else p.x for p in curve.vertices]
                assert len(lo) == len(hi) == len(vs)
                for i, (a, b) in enumerate(zip(vs, vs[1:] + vs[:1])):
                    assert lo[i] == math.floor(min(a, b) * 2 ** 64)
                    assert hi[i] == math.ceil(max(a, b) * 2 ** 64)


def lattice_square_maps(shared_edge: int) -> list[PLCorrespondence]:
    """Every map that is the identity on a square's corners k/4 and has at
    most one extra breakpoint (s, t), on an edge other than shared_edge,
    with s and t on the 1/16 lattice strictly inside that edge's band."""
    corners = [(F(k, 4), F(k, 4)) for k in range(4)]
    maps = [PLCorrespondence(tuple(corners))]
    for edge in range(4):
        if edge == shared_edge:
            continue
        for a, b in itertools.product(range(1, 4), repeat=2):
            extra = (F(4 * edge + a, 16), F(4 * edge + b, 16))
            maps.append(PLCorrespondence(tuple(sorted(corners + [extra]))))
    return maps


def lattice_configuration():
    """(sa, ta, maps_a, sb, tb, maps_b): source squares sharing x = 2,
    target squares sharing x = 3, and every lattice map of each piece.
    Each target's bottom edge runs along its source's, one unit to the
    right, so one lattice map per piece sends a point of that edge to
    itself."""
    return (square_curve(0, 0, 2, 2), square_curve(1, 0, 3, 3),
            lattice_square_maps(1), square_curve(2, 0, 4, 2),
            square_curve(3, 0, 5, 3), lattice_square_maps(3))


class TestLatticeAdditivity:
    """Index additivity under gluing on every lattice map of one fixed
    glued_square_fixture-style configuration, sides at most 3."""

    def test_indices_add_on_every_lattice_pair(self):
        sa, ta, maps_a, sb, tb, maps_b = lattice_configuration()
        assert len(maps_a) == len(maps_b) == 28
        fixed = added = 0
        for phi_a, phi_b in itertools.product(maps_a, maps_b):
            try:
                eta_a = fixed_point_index(sa, ta, phi_a)
                eta_b = fixed_point_index(sb, tb, phi_b)
            except HasFixedPoint:
                fixed += 1
                continue
            joined = glue(sa, ta, phi_a, sb, tb, phi_b)
            assert fixed_point_index(joined.source, joined.target,
                                     joined.phi) == eta_a + eta_b
            added += 1
        assert fixed > 0 and fixed + added == 784


class TestRowCarry:
    def test_carrying_reads_no_fraction_point(self):
        # glue and the packing certificate read each bend's point and image
        # as rows: a curve has no point at a parameter to read
        assert not hasattr(PolyJordanCurve, "point_at")
        sa, ta, maps_a, sb, tb, maps_b = lattice_configuration()
        pairs = []
        for phi_a, phi_b in list(itertools.product(maps_a, maps_b))[::53]:
            try:
                pairs.append((phi_a, phi_b, fixed_point_index(sa, ta, phi_a)
                              + fixed_point_index(sb, tb, phi_b)))
            except HasFixedPoint:
                continue
        assert len(pairs) > 10
        for phi_a, phi_b, eta in pairs:
            joined = glue(sa, ta, phi_a, sb, tb, phi_b)
            assert fixed_point_index(joined.source, joined.target,
                                     joined.phi) == eta
        for make in (one_piece_pair, two_piece_pair, bent_one_piece_pair):
            assert assemble_theorem_certificate(*make()).rect_index == -1


class TestIndexRungsScript:
    def test_quick_report(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "index_rungs",
            Path(__file__).resolve().parent.parent / "scripts" / "index_rungs.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--quick"]) == 0
        report = json.loads(capsys.readouterr().out)
        [rung] = report["rungs"]
        assert rung["n"] == 16
        assert set(rung["classes"]) == {"disjoint", "nested", "two_cross",
                                        "general"}
        # the per-call means of the walk, of the steps whose y keys meet,
        # and of the exact ends, as the exact rule of cell_relations gives
        # them (touch + overlap): the key filter keeps no extra step
        cells = {"disjoint": (38.5, 9.5, 4.8), "nested": (38.8, 7.0, 3.5),
                 "two_cross": (38.5, 6.0, 3.4), "general": (36.2, 5.0, 2.9)}
        for cls, row in rung["classes"].items():
            assert row["best_us"] > 0
            assert (row["cells_walked"], row["cells_y"],
                    row["cells_exact"]) == cells[cls]
        # maps realized from the two kinds of path on 4 star pairs: the
        # median and greatest bit length of their pieces' denominators
        realized = report["realized"]
        assert realized["pairs"] == 4
        bits = {"path_of_correspondence": (355, 743), "prescribe": (1039, 2047)}
        for kind, row in realized["kinds"].items():
            assert row["best_us"] > 0
            assert (row["piece_g_bits_median"],
                    row["piece_g_bits_max"]) == bits[kind]


def nested_glue_fixture():
    """Left piece strictly inside its target (index 1), right piece with a
    displacement loop in the right half-plane (index 0), agreeing on the
    shared arcs x=2 (sources) and x=3 (targets) via y -> 3y - 4."""
    source_a = square_curve(0, 0, 2, 4)
    source_b = square_curve(2, 0, 4, 4)
    target_a = square_curve(-4, -4, 3, 8)
    target_b = square_curve(3, -4, 10, 8)
    phi = identity_params(4)
    return source_a, target_a, phi, source_b, target_b, phi


class TestGlue:
    def test_nested_fixture_component_indices(self):
        sa, ta, phi_a, sb, tb, phi_b = nested_glue_fixture()
        assert fixed_point_index(sa, ta, phi_a) == 1
        assert fixed_point_index(sb, tb, phi_b) == 0

    def test_glue_builds_union_and_adds_indices(self):
        sa, ta, phi_a, sb, tb, phi_b = nested_glue_fixture()
        glued = glue(sa, ta, phi_a, sb, tb, phi_b)
        assert set(glued.source.vertices) >= {pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)}
        assert set(glued.target.vertices) >= {pt(-4, -4), pt(10, -4),
                                              pt(10, 8), pt(-4, 8)}
        assert fixed_point_index(glued.source, glued.target, glued.phi) == 1

    def test_glue_rejects_disagreeing_maps(self):
        sa, ta, phi_a, sb, tb, _ = nested_glue_fixture()
        # Rotating the right map's parameters misaligns the shared arc.
        with pytest.raises((ArcsDisagree, BadGluingGeometry)):
            glue(sa, ta, phi_a, sb, tb, rotation_params(4, 1))

    def test_glue_rejects_a_shared_edge_mapped_inside_itself(self):
        # Each square is its own target, and each map sends the shared edge
        # x = 1 onto a proper sub-arc of it, so the glued target lacks the
        # images of the edge's far parts.
        a, b = square_curve(0, 0, 1, 1), square_curve(1, 0, 2, 1)
        phi_a = PLCorrespondence(((F(0), F(0)), (F(1, 4), F(5, 16)),
                                  (F(1, 2), F(7, 16)), (F(3, 4), F(3, 4))))
        phi_b = PLCorrespondence(((F(0), F(15, 16)), (F(1, 4), F(1, 16)),
                                  (F(1, 2), F(1, 2)), (F(3, 4), F(13, 16))))
        with pytest.raises(ArcsDisagree,
                           match="^image point missing from the glued target$"):
            glue(a, a, phi_a, b, b, phi_b)

    def test_glue_rejects_disjoint_sources(self):
        sa, ta, phi_a, _, tb, phi_b = nested_glue_fixture()
        far = square_curve(50, 0, 54, 4)
        with pytest.raises(BadGluingGeometry):
            glue(sa, ta, phi_a, far, tb, phi_b)

    @pytest.mark.parametrize("mid", [F(1, 2), F(1)])
    def test_one_map_passed_twice_equals_an_equal_copy(self, mid):
        # Piece b's target has eight vertices, piece a's four. Its vertex
        # (2, mid) is the image of the source point (2, 1), where piece a's
        # map gives (2, 1); so the pieces disagree there unless mid = 1.
        sa = ta = square_curve(0, 0, 2, 2)
        sb = square_curve(2, 0, 4, 2)
        tb = validate_curve([pt(2, 0), pt(3, 0), pt(4, 0), pt(4, 1), pt(4, 2),
                             pt(3, 2), pt(2, 2), pt(2, mid)])
        phi = identity_params(4)

        def outcome(phi_b):
            try:
                g = glue(sa, ta, phi, sb, tb, phi_b)
            except FpIndexError as exc:
                return type(exc).__name__, str(exc)
            return g.source.vertices, g.target.vertices, g.phi.breakpoints

        same = outcome(phi)
        assert same == outcome(PLCorrespondence(phi.breakpoints))
        assert (same[0] == "ArcsDisagree") == (mid != 1)

    def test_glue_rejects_overlapping_interiors(self):
        sa, ta, phi_a, sb, tb, phi_b = nested_glue_fixture()
        overlapping = square_curve(1, 0, 4, 4)
        with pytest.raises(BadGluingGeometry):
            glue(sa, ta, phi_a, overlapping, tb, phi_b)



def glue_to_itself(first, second):
    """Glue two curves, each its own target under the identity map."""
    return glue(first, first, identity_params(len(first)),
                second, second, identity_params(len(second)))


class TestGlueOuterBoundaries:
    """Pieces that share one arc traversed oppositely, so every rejection
    below comes from how the rest of the two boundaries meet."""

    square = square_curve(0, 0, 2, 2)

    @pytest.mark.parametrize("vertices", [
        # B's outer path touches the square at its corner (0, 2)
        [(2, 0), (4, 0), (4, 4), (-2, 4), (0, 2), (1, 3), (2, 2)],
        # B's outer path crosses the square's top edge at (1/2, 2)
        [(2, 0), (4, 0), (4, 4), (F(1, 2), 4), (F(1, 2), 1), (2, 2)],
        # the outer paths run together along y = 2 from x = 0 to x = 1,
        # away from the shared arc x = 2, 0 <= y <= 1; this is caught as a
        # second shared run before the outer-boundary stage
        [(2, 0), (4, 0), (4, 4), (0, 4), (0, 2), (1, 2), (1, 3), (3, 3),
         (3, 1), (2, 1)],
    ], ids=["touch_at_vertex", "cross", "run_together"])
    def test_rejects_contact_away_from_the_junctions(self, vertices):
        other = validate_curve([pt(x, y) for x, y in vertices])
        with pytest.raises(BadGluingGeometry):
            glue_to_itself(self.square, other)

    def test_grid_sweep_glues_into_the_union(self):
        rng = random.Random(9100)
        glued = 0
        for _ in range(1500):
            a, b = grid_curve(rng), grid_curve(rng)
            try:
                g = glue_to_itself(a, b).source
            except BadGluingGeometry:
                continue
            glued += 1
            assert signed_area(g.loop) == signed_area(a.loop) + signed_area(b.loop)
            for piece, other in ((a, b), (b, a)):
                p = interior_point(piece.loop)
                assert point_in_polygon(other.loop, p) is PointLocation.OUTSIDE
                assert point_in_polygon(g.loop, p) is PointLocation.INSIDE
        assert glued > 100


def linear_part(mapping: AffineMap, v: RatPoint) -> RatPoint:
    """The map's linear part at v: how differences of points transform."""
    return RatPoint(mapping.a * v.x + mapping.b * v.y,
                    mapping.c * v.x + mapping.d * v.y)


class TestTransform:
    def test_rejects_orientation_reversal(self):
        a = square_curve(0, -1, 3, 4)
        b = square_curve(-1, 0, 4, 3)
        flip = AffineMap(F(-1), F(0), F(0), F(1))
        with pytest.raises(NotOrientationPreserving):
            transform_pair(a, b, identity_params(4), flip)

    def test_index_and_difference_transport(self):
        rng = random.Random(51)
        done = 0
        while done < 15:
            first, second, _ = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 8))
            mapping = AffineMap(
                a=F(rng.randrange(1, 5)), b=F(rng.randrange(-2, 3)),
                c=F(rng.randrange(-2, 3)), d=F(rng.randrange(1, 5)),
                e=F(rng.randrange(-9, 10)), f=F(rng.randrange(-9, 10)))
            if mapping.determinant() <= 0:
                continue
            try:
                eta = fixed_point_index(first, second, phi)
                loop = difference_loop(first, second, phi)
            except (HasFixedPoint, DegenerateLoop):
                continue
            nf, ns, nphi = transform_pair(first, second, phi, mapping)
            assert fixed_point_index(nf, ns, nphi) == eta
            new_loop = difference_loop(nf, ns, nphi)
            assert new_loop.vertices == tuple(linear_part(mapping, v)
                                              for v in loop.vertices)
            done += 1
