"""Three-point prescription: pair selection, box dispatch, solver, oracle."""
import importlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fpindex.errors import (
    AssumptionViolated,
    BasePointOnGrid,
    ConstraintOnCurve,
    FpIndexError,
    InternalCaseGap,
    InvariantFailure,
    PathHitsMark,
    TooFewCrossings,
    TooLarge,
)
from fpindex.jordan import (
    CrossKind,
    canonical_noncut_pair,
    check_transverse,
    crossing_faces,
)
from fpindex.plmap import fixed_point_index, random_correspondence
from fpindex.prescribe import (
    ABOVE,
    BELOW,
    AdjacencyBox,
    BoxCategory,
    _adjacent_pairs,
    _build_box,
    _child,
    _drive,
    _events,
    _path_induced_bits,
    _solve_by_pairs,
    _staircase,
    _walk,
    classify_box,
    find_doubly_adjacent,
    oracle_enumerate,
    prescribe,
)
from fpindex.serialize import load_constraints, load_curve, load_json_file
from fpindex.torus import (
    Containment,
    Ranks,
    StaircasePath,
    _read_path,
    build_diagram,
    index_from_torus,
    realize_path,
)

from geomgen import (
    abstract_diagram,
    anchor_points,
    delta_split,
    identity_params,
    indexable_map,
    lens_fixture,
    marks,
    oracle_with_anchors,
    random_transverse_pair,
    reference_thread_path,
    square_curve,
    synthesize_constraints,
    thread_path,
    walk_below,
    without_marks,
)
from test_jordan import alternating_patterns
from test_torus import rebased, reference_all_bases

F = Fraction
# the module itself: the package attribute `prescribe` is the function
PRESCRIBE = importlib.import_module("fpindex.prescribe")


def canonical_diagram(m: int, seed: int):
    first, second = canonical_noncut_pair(m)
    crossings = check_transverse(first, second)
    rng = random.Random(seed)
    phi = random_correspondence(rng, 6)
    pairs = synthesize_constraints(crossings, phi, rng)
    return first, second, crossings, build_diagram(first, second, crossings, pairs)


# -- box dispatch ---------------------------------------------------------------

# The full dispatch outcome per cell pattern: keys are (bottom row cell of the
# lower-left corner, column cell and row cell of the upper-right corner), with
# wrap implied by a top edge folding under the bottom one. Frozen by hand from
# sketches of each pattern against the three diagonal cells.
DISPATCH = {
    (0, 1, 2): "lattice", (0, 2, 2): "lattice", (0, 2, 1): "lattice",
    (0, 2, 0): "corner", (0, 1, 0): "corner", (0, 0, 0): "corner",
    (0, 0, 1): "corner", (0, 0, 2): "corner", (0, 1, 1): "lattice",
    (1, 1, 2): "corner", (1, 2, 2): "lattice", (1, 2, 1): "span",
    (1, 2, 0): "lattice", (1, 1, 0): "wrap-split", (1, 0, 0): "corner",
    (1, 0, 1): "empty", (1, 0, 2): "empty", (1, 1, 1): "corner",
    (2, 1, 2): "empty", (2, 2, 2): "corner", (2, 2, 1): "lattice",
    (2, 2, 0): "corner", (2, 1, 0): "corner", (2, 0, 0): "corner",
    (2, 0, 1): "forbidden", (2, 0, 2): "empty", (2, 1, 1): "lattice",
}

# box coordinates in units of 1/UNIT: grid lines at 1/3 and 2/3, and the
# middle of each cell
UNIT = 24
GRID = (8, 16)
MIDS = (4, 12, 20)


def synthetic_box(rho, sigma, tau, wrap=None):
    if wrap is None:
        wrap = rho > tau
    if wrap:
        rows = (MIDS[rho], UNIT + MIDS[tau])
    elif rho == tau:
        rows = (MIDS[rho] - 1, MIDS[rho] + 1)
    else:
        rows = (MIDS[rho], MIDS[tau])
    return AdjacencyBox(entry_id=0, exit_id=1, base_constraint=1, descends=True,
                        col_lo=2, col_hi=MIDS[sigma],
                        row_lo=rows[0], row_hi=rows[1],
                        grid_cols=GRID, grid_rows=GRID, unit=UNIT)


class TestDispatchTable:
    def test_every_cell_pattern(self):
        for (rho, sigma, tau), label in DISPATCH.items():
            box = synthetic_box(rho, sigma, tau)
            assert (box.lower_left_cell, box.upper_right_cell) == \
                ((0, rho), (sigma, tau))
            assert classify_box(box).value == label, (rho, sigma, tau)

    def test_wrap_split_of_lattice_patterns(self):
        wrapping = {k for k, v in DISPATCH.items() if v == "lattice" and k[0] > k[2]}
        flat = {k for k, v in DISPATCH.items() if v == "lattice" and k[0] <= k[2]}
        assert wrapping == {(2, 1, 1), (2, 2, 1), (1, 2, 0)}
        assert flat == {(1, 2, 2), (0, 1, 2), (0, 2, 2), (0, 2, 1), (0, 1, 1)}

    def test_wrapped_span_pattern_holds_a_lattice_point(self):
        box = synthetic_box(1, 2, 1, wrap=True)
        assert box.wrap
        assert classify_box(box) is BoxCategory.LATTICE

    def test_wrapped_empty_pattern_reroutes_as_corner(self):
        box = synthetic_box(1, 0, 1, wrap=True)
        assert box.wrap
        assert classify_box(box) is BoxCategory.CORNER


# -- pair selection -------------------------------------------------------------

class TestFindDoublyAdjacent:
    def test_canonical_two_wave_pair_has_two_boxes(self):
        _, _, crossings, diagram = canonical_diagram(2, seed=11)
        kinds = dict(diagram.kinds)
        boxes = find_doubly_adjacent(diagram)
        assert {(b.entry_id, b.exit_id) for b in boxes} == {(0, 1), (2, 3)}
        assert all(b.descends for b in boxes)
        for b in boxes:
            assert kinds[b.entry_id] is CrossKind.P
            assert kinds[b.exit_id] is CrossKind.PTILDE
            assert b.col_lo < b.col_hi
            assert b.lower_left_cell[0] == 0

    def test_two_crossings_rejected(self):
        _, _, _, diagram = lens_fixture()
        with pytest.raises(TooFewCrossings):
            find_doubly_adjacent(diagram)

    def test_too_few_pairs_report_ends_with_the_dump(self):
        # four marks in columns 1 to 4 with row ranks 0, 2, 1, 3 among the
        # marks: no entry mark's partner is next to it along the rows
        level = Ranks(7, ((0, 0), (5, 5), (6, 6)), [1, 2, 3, 4], [1, 3, 2, 4],
                      [0, 1, 2, 3], frozenset({0, 2}), {})
        with pytest.raises(AssumptionViolated) as err:
            _adjacent_pairs(level)
        assert str(err.value) == ("only 0 doubly adjacent pairs found:\n"
                                  + level.dump())


def reference_box(diagram, entry, partner, descends, frames):
    """A pair's box built through the rebased frame diagram, in units of
    1/(2n) of its unit square; `frames` keeps each rebased diagram by its
    base constraint."""
    order = diagram.col_order
    n = diagram.size
    base = next(order[(entry.col - k) % n][1] for k in range(1, n + 1)
                if order[(entry.col - k) % n][0] == "c")
    if base not in frames:
        frames[base] = rebased(diagram, base)
    frame = frames[base]
    placed = {m.crossing_id: m for m in marks(frame)}
    e, x = placed[entry.crossing_id], placed[partner.crossing_id]
    if not e.col < x.col:
        raise InvariantFailure("pair order broke under rebasing")
    bottom, top = (x, e) if descends else (e, x)
    lifted = top.row if top.row > bottom.row else top.row + n
    x2, y2 = frame.col_order.index(("c", 2)), frame.row_order.index(("c", 2))
    x3, y3 = frame.col_order.index(("c", 3)), frame.row_order.index(("c", 3))
    box = AdjacencyBox(entry_id=entry.crossing_id, exit_id=partner.crossing_id,
                       base_constraint=base, descends=descends,
                       col_lo=2 * e.col - 1, col_hi=2 * x.col + 1,
                       row_lo=2 * bottom.row - 1, row_hi=2 * lifted + 1,
                       grid_cols=(2 * x2, 2 * x3), grid_rows=(2 * y2, 2 * y3),
                       unit=2 * n)
    if not 0 < box.col_lo < box.col_hi < box.unit:
        raise InvariantFailure("box meets the left or right grid line")
    if box.lower_left_cell[0] != 0:
        raise InvariantFailure("box left edge escaped the first column cell")
    for m in marks(frame):
        if m.crossing_id in (box.entry_id, box.exit_id):
            continue
        mx, my = 2 * m.col, 2 * m.row
        in_rows = (box.row_lo < my < min(box.row_hi, box.unit)
                   or (box.wrap and my < box.row_top))
        if box.col_lo < mx < box.col_hi and in_rows:
            raise InvariantFailure("box swallowed a third crossing mark")
    return box


def box_outcome(build, *args):
    try:
        return build(*args)
    except InvariantFailure as err:
        return str(err)


def box_guard_diagrams():
    for m in range(1, 21):
        for seed in range(4):
            yield canonical_diagram(m, seed)[3]
    rng = random.Random(20261018)
    for _ in range(200):
        first, second, crossings = random_transverse_pair(
            rng, min_crossings=4, max_crossings=12)
        phi = random_correspondence(rng, rng.randrange(4, 9))
        pairs = synthesize_constraints(crossings, phi, rng)
        yield build_diagram(first, second, crossings, pairs)


class TestBuildBoxOnRanks:
    def test_boxes_equal_the_rebased_frame_boxes(self):
        # every entry mark with the next three marks by column, both ways
        # up: the doubly adjacent pairs give boxes, a partner two or three
        # columns on mostly the swallowed mark error, a partner past the
        # wrap the broken pair order, and both builders must agree on each
        seen = set()
        errors = set()
        for diagram in box_guard_diagrams():
            by_col = marks(diagram)
            frames = {}
            row_rank = {m.crossing_id: i for i, m in
                        enumerate(sorted(by_col, key=lambda m: m.row))}
            for i, entry in enumerate(by_col):
                if entry.kind is not CrossKind.P:
                    continue
                for step in (1, 2, 3):
                    j = (i + step) % len(by_col)
                    partner = by_col[j]
                    gap = (row_rank[entry.crossing_id]
                           - row_rank[partner.crossing_id]) % len(by_col)
                    for descends in (True, False):
                        got = box_outcome(_build_box, diagram._ranks, i, j,
                                          descends)
                        assert got == box_outcome(reference_box, diagram,
                                                  entry, partner, descends,
                                                  frames)
                        if isinstance(got, str):
                            errors.add(got)
                        elif step == 1 and gap == (1 if descends
                                                   else len(by_col) - 1):
                            seen.add((got.base_constraint, got.descends,
                                      got.wrap))
        assert seen == {(base, descends, wrap) for base in (1, 2, 3)
                        for descends in (True, False) for wrap in (True, False)}
        assert errors == {"box swallowed a third crossing mark",
                          "pair order broke under rebasing"}

    def test_find_doubly_adjacent_builds_the_same_boxes(self):
        _, _, _, diagram = canonical_diagram(6, seed=506)
        placed = {m.crossing_id: m for m in marks(diagram)}
        for box in find_doubly_adjacent(diagram):
            assert box == reference_box(diagram, placed[box.entry_id],
                                        placed[box.exit_id], box.descends, {})


class TestBoxesOnDemand:
    def test_lazy_boxes_change_nothing(self, monkeypatch):
        calls = Counter()

        def counted(name):
            inner = getattr(PRESCRIBE, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        def eager_pairs(level):
            # every pair's box built before the first is tried
            pairs = _adjacent_pairs(level)
            calls["available"] += len(pairs)
            for pair in pairs:
                _build_box(level, *pair)
            return pairs

        monkeypatch.setattr(PRESCRIBE, "_build_box", counted("_build_box"))
        monkeypatch.setattr(PRESCRIBE, "classify_box", counted("classify_box"))
        eager_builds = lazy_builds = 0
        for diagram in box_guard_diagrams():
            with monkeypatch.context() as eager:
                eager.setattr(PRESCRIBE, "_adjacent_pairs", eager_pairs)
                calls.clear()
                _, want = prescribe(diagram)
                eager_builds += calls["available"]
            calls.clear()
            _, got = prescribe(diagram)
            assert got.levels == want.levels
            assert got.below == want.below
            # a box is built only for a pair the solver tries, and each
            # tried pair is classified once
            assert calls["_build_box"] == calls["classify_box"]
            lazy_builds += calls["_build_box"]
        assert lazy_builds < eager_builds


def twelve_crossing_diagram():
    fixtures = Path(__file__).parent / "fixtures"
    first, second = (load_curve(load_json_file(fixtures / name), name)
                     for name in ("fig_twelve_first.json",
                                  "fig_twelve_second.json"))
    constraints = load_constraints(
        load_json_file(fixtures / "twelve_constraints.json"))
    return build_diagram(first, second, check_transverse(first, second),
                         constraints)


class TestOneEventListPerPrescription:
    @pytest.mark.parametrize("make", [
        twelve_crossing_diagram,
        lambda: canonical_diagram(3, seed=23)[3],
        lambda: canonical_diagram(6, seed=506)[3],
    ])
    def test_one_build_each_level_derived(self, make, monkeypatch):
        # a prescribe call builds one event list, the first level's; every
        # deeper level the solver visits, event list included, is the one
        # `_child` derived from its parent, and neither the pair rule nor
        # the final check builds another
        built, derived, visited = [], [], []

        def counted(calls, inner):
            def wrapper(*args):
                result = inner(*args)
                calls.append((args, result))
                return result
            return wrapper

        for name, calls in (("_events", built), ("_child", derived),
                            ("_solve", visited)):
            monkeypatch.setattr(PRESCRIBE, name,
                                counted(calls, getattr(PRESCRIBE, name)))
        diagram = make()
        _, trace = prescribe(diagram)
        assert len(built) == 1
        (level,), (scale, events) = built[0]
        assert level is diagram._ranks
        assert visited[0][0] == (level, scale, events, 0)
        assert [args[:3] for args, _ in visited[1:]] == \
            [child for _, child in derived]
        assert len(visited) > max(lv.depth for lv in trace.levels)


class TestDeepPrescription:
    def test_depth_57_draw_under_a_low_recursion_limit(self):
        # 2m = 128 with the map and constraints `noncut_rungs.py` draws for
        # seed 64,001: the pair rule goes 57 levels deep. The recursion
        # limit leaves 60 frames above this one, fewer than a solver that
        # recursed once or twice per level would need
        first, second = canonical_noncut_pair(64)
        crossings = check_transverse(first, second)
        rng = random.Random(64001)
        phi, _ = indexable_map(rng, first, second)
        diagram = build_diagram(first, second, crossings,
                                synthesize_constraints(crossings, phi, rng))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            path, trace = prescribe(diagram)
        finally:
            sys.setrecursionlimit(limit)
        assert max(lv.depth for lv in trace.levels) == 57
        assert trace.index >= 0
        assert fixed_point_index(first, second, realize_path(diagram, path)) \
            == trace.index

# -- solver: direct rules -------------------------------------------------------

def three_point_orders():
    return (("c", 1), ("c", 2), ("c", 3))


class TestPrescribeDirect:
    def test_disjoint_curves_value_zero(self):
        d = abstract_diagram(three_point_orders(), three_point_orders(), {},
                             Containment.DISJOINT)
        path, trace = prescribe(d)
        assert trace.index == 0
        assert [lv.rule for lv in trace.levels] == ["no-crossings"]
        assert path.y_at(F(1, 3)) == F(1, 3)
        assert path.y_at(F(2, 3)) == F(2, 3)

    def test_nested_curves_value_one(self):
        d = abstract_diagram(three_point_orders(), three_point_orders(), {},
                             Containment.FIRST_INSIDE_SECOND)
        _, trace = prescribe(d)
        assert trace.index == 1
        assert [lv.rule for lv in trace.levels] == ["no-crossings"]

    def test_lens_two_crossing_rule(self):
        first, second, _, diagram = lens_fixture()
        path, trace = prescribe(diagram)
        assert [lv.rule for lv in trace.levels] == ["two-crossings"]
        assert trace.index >= 0
        assert fixed_point_index(first, second, realize_path(diagram, path)) \
            == trace.index

    def test_single_cell_shortcut(self):
        # all four marks share a column cell and no bit is forced, so the
        # uniform choices decide the level in one step
        cols = [("c", 1), ("c", 2), ("c", 3),
                ("m", 0), ("m", 1), ("m", 2), ("m", 3)]
        rows = [("c", 1), ("c", 2), ("c", 3),
                ("m", 3), ("m", 2), ("m", 1), ("m", 0)]
        kinds = {0: CrossKind.P, 1: CrossKind.PTILDE,
                 2: CrossKind.P, 3: CrossKind.PTILDE}
        d = abstract_diagram(cols, rows, kinds)
        path, trace = prescribe(d)
        assert [lv.rule for lv in trace.levels] == ["single-cell"]
        assert trace.index == 0
        assert trace.below == frozenset({0, 1, 2, 3})
        assert delta_split(d, path)[0] == trace.below


# -- solver: recursion on geometric instances ------------------------------------

class TestPrescribeCanonical:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_noncutting_waves(self, m):
        first, second, crossings, diagram = canonical_diagram(m, seed=20 + m)
        path, trace = prescribe(diagram)
        assert 0 <= trace.index <= 2
        realized = realize_path(diagram, path)
        assert fixed_point_index(first, second, realized) == trace.index
        if 2 * m <= 8:
            assert trace.index in oracle_enumerate(diagram)

    def test_recursion_reaches_pair_rule(self):
        _, _, _, diagram = canonical_diagram(3, seed=23)
        _, trace = prescribe(diagram)
        rules = {lv.rule for lv in trace.levels}
        assert "pair" in rules


class TestPrescribeRandom:
    def test_random_transverse_instances(self):
        rng = random.Random(20260815)
        pair_rule_seen = 0
        for _ in range(40):
            first, second, crossings = random_transverse_pair(
                rng, min_crossings=4, max_crossings=12)
            phi = random_correspondence(rng, rng.randrange(4, 9))
            pairs = synthesize_constraints(crossings, phi, rng)
            diagram = build_diagram(first, second, crossings, pairs)
            path, trace = prescribe(diagram)
            assert trace.index >= 0
            realized = realize_path(diagram, path)
            assert fixed_point_index(first, second, realized) == trace.index
            assert delta_split(diagram, path)[0] == trace.below
            for level in trace.levels:
                if level.child_index is not None:
                    assert level.index >= level.child_index
            if any(lv.rule == "pair" for lv in trace.levels):
                pair_rule_seen += 1
            if len(crossings) <= 8:
                achievable = oracle_enumerate(diagram)
                assert trace.index in achievable
                assert max(achievable) >= 0
        assert pair_rule_seen > 0


def small_diagrams(max_m: int):
    """Every combinatorial torus diagram with at most 2 * max_m crossings:
    each planar alternating pattern, constraint 1 at the cut and constraints
    2 and 3 at every ordered placement on each axis, plus the crossing-free
    pairs in their three mutual positions."""
    base = three_point_orders()
    for tag in Containment:
        yield abstract_diagram(base, base, {}, tag)
    for m in range(1, max_m + 1):
        slots = list(itertools.combinations(range(2 * m + 2), 2))
        for cs in alternating_patterns(m):
            try:
                crossing_faces(cs)
            except InvariantFailure:
                continue  # the Euler check: no plane realizes this pattern
            kinds = {c.index: c.kind for c in cs}
            axes = []
            for key in (lambda c: c.param_k, lambda c: c.param_kt):
                marks = [("m", c.index) for c in sorted(cs, key=key)]
                orders = []
                for i, j in slots:
                    rest = iter(marks)
                    orders.append((("c", 1), *[
                        ("c", 2) if k == i else ("c", 3) if k == j else next(rest)
                        for k in range(2 * m + 2)]))
                axes.append(orders)
            for cols, rows in itertools.product(*axes):
                yield abstract_diagram(cols, rows, kinds)


class TestExhaustiveSmall:
    def test_every_diagram_up_to_four_crossings(self):
        # the paper's nonnegative prescription, checked against the oracle
        # and against the cut moved by rebuilt diagrams, on all 975
        count = 0
        for diagram in small_diagrams(2):
            path, trace = prescribe(diagram)
            assert trace.index >= 0
            assert trace.index in oracle_enumerate(diagram)
            assert reference_all_bases(diagram, path) == trace.index
            count += 1
        assert count == 3 + 2 * 6 * 6 + 4 * 15 * 15


# -- realizability and threading -------------------------------------------------

class TestThreading:
    def test_lens_bipartitions(self):
        # the second constraint point sits up-and-left of the first mark, so
        # that mark can never rise above a faithful path
        _, _, _, diagram = lens_fixture()
        assert walk_value(diagram, frozenset()) is None
        assert walk_value(diagram, frozenset({0})) is not None
        assert walk_value(diagram, frozenset({1})) is None
        assert walk_value(diagram, frozenset({0, 1})) is not None

    def test_threaded_path_matches_requested_split(self):
        _, _, _, diagram = lens_fixture()
        for below in (frozenset({0}), frozenset({0, 1})):
            path = thread_path(diagram, below)
            assert delta_split(diagram, path)[0] == below
            xs = [x for x, _ in path.points]
            ys = [y for _, y in path.points]
            assert all(a < b for a, b in zip(xs, xs[1:]))
            assert all(a < b for a, b in zip(ys, ys[1:]))


# -- oracle ----------------------------------------------------------------------

class TestOracle:
    def test_no_crossings_single_value(self):
        base = three_point_orders()
        disjoint = abstract_diagram(base, base, {}, Containment.DISJOINT)
        nested = abstract_diagram(base, base, {}, Containment.SECOND_INSIDE_FIRST)
        assert oracle_enumerate(disjoint) == frozenset({0})
        assert oracle_enumerate(nested) == frozenset({1})

    def test_lens_achievable_values(self):
        first, second, _, diagram = lens_fixture()
        values = oracle_enumerate(diagram)
        assert values == frozenset({0, 1})
        # the identity-parameter map on this fixture has value 0
        assert fixed_point_index(first, second, identity_params(4)) == 0

    def test_size_bound(self):
        cols = [("c", 1), ("c", 2), ("c", 3)]
        rows = [("c", 1), ("c", 2), ("c", 3)]
        kinds = {}
        for i in range(14):
            cols.append(("m", i))
            rows.append(("m", i))
            kinds[i] = CrossKind.P if i % 2 == 0 else CrossKind.PTILDE
        d = abstract_diagram(cols, rows, kinds)
        with pytest.raises(TooLarge):
            oracle_enumerate(d)

    def test_extra_pair_collision_rejected(self):
        _, _, crossings, diagram = lens_fixture()
        first_crossing = next(iter(crossings))
        with pytest.raises(ConstraintOnCurve):
            oracle_with_anchors(diagram, [(first_crossing.param_k, F(1, 97))])

    def test_four_point_rectangles_diagnostic(self):
        # interleaved rectangles whose corner map has index -1: with three
        # prescribed corners some nonnegative value survives, with all four
        # none does
        first = square_curve(0, -1, 3, 4)
        second = square_curve(-1, 0, 4, 3)
        crossings = check_transverse(first, second)
        assert len(crossings) == 4
        constraints = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))]
        diagram = build_diagram(first, second, crossings, constraints)

        three = oracle_enumerate(diagram)
        _, trace = prescribe(diagram)
        assert trace.index >= 0
        assert trace.index in three

        four = oracle_with_anchors(diagram, [(F(3, 4), F(3, 4))])
        assert four <= three
        assert -1 in four
        assert max(four) < 0


# -- the integer walk against the Fraction route ----------------------------------

def reference_is_realizable(diagram, below_ids, extra=()):
    """Every below point or anchor against every above point or anchor."""
    anchors = [(diagram.col_order.index(c), diagram.row_order.index(c))
               for c in (("c", 2), ("c", 3))] + list(extra)
    placed = marks(diagram)
    below = [(m.col, m.row) for m in placed if m.crossing_id in below_ids]
    above = [(m.col, m.row) for m in placed if m.crossing_id not in below_ids]
    return not any(px < qx and py > qy for px, py in below + anchors
                   for qx, qy in above + anchors)


def reference_split_value(diagram, below_ids, extra=()):
    return index_from_torus(diagram, reference_thread_path(diagram, below_ids,
                                                           extra))


def reference_oracle(diagram, extra_pairs=()):
    extra = anchor_points(diagram, extra_pairs)
    ids = diagram._ranks.ids
    values = set()
    for mask in range(1 << len(ids)):
        below = frozenset(c for i, c in enumerate(ids) if mask >> i & 1)
        if reference_is_realizable(diagram, below, extra):
            values.add(reference_split_value(diagram, below, extra))
    return frozenset(values)


def outcome(fn, *args):
    try:
        return fn(*args)
    except FpIndexError as err:
        return type(err).__name__, str(err)


def below_sets(rng, diagram, cap: int = 256):
    """Every below-set when there are at most 2^8, else `cap` random ones."""
    ids = diagram._ranks.ids
    if len(ids) <= 8:
        masks = range(1 << len(ids))
    else:
        masks = [rng.randrange(1 << len(ids)) for _ in range(cap)]
    for mask in masks:
        yield frozenset(c for i, c in enumerate(ids) if mask >> i & 1)


def geometric_diagrams(rng, count: int, max_crossings: int = 12):
    for _ in range(count):
        first, second, crossings = random_transverse_pair(
            rng, min_crossings=4, max_crossings=max_crossings)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        yield build_diagram(first, second, crossings,
                            synthesize_constraints(crossings, phi, rng)), phi


def walk_value(diagram, below):
    """The index `_walk` reads for a below-set, None when it is not
    realizable."""
    walk = walk_below(diagram, below)
    return None if walk is None else walk[2]


def check_below_set(diagram, below):
    """Realizability, value or error, and the threaded path, both routes;
    True when the set is realizable."""
    got = outcome(walk_value, diagram, below)
    ok = got is not None
    assert ok == reference_is_realizable(diagram, below)
    if ok:
        assert got == outcome(reference_split_value, diagram, below)
    assert outcome(thread_path, diagram, below) == \
        outcome(reference_thread_path, diagram, below)
    return ok


class TestTorusFormulaOnEveryBelowSet:
    """The torus formula on every path class of the small canonical pairs.

    Every realizable below-set of the diagram is threaded, scaled and
    realized as a map; its geometric index, its torus reading at every base
    and the walk's value must agree. Together the values are the oracle's
    set.
    """

    # the seed's constraints leave 4, 9 and 12 realizable below-sets, with
    # indices 0, 1 and 2 on each pair
    @pytest.mark.parametrize("m, count", [(1, 4), (2, 9), (3, 12)])
    def test_canonical_pair(self, m, count):
        first, second, _, diagram = canonical_diagram(m, 9410)
        level = diagram._ranks
        scale, events = _events(level)
        values = []
        for below in below_sets(None, diagram):
            walk = _walk(level, scale, events, below)
            if walk is None:
                continue
            vertices, index = walk
            path = _staircase(diagram, scale, vertices)
            phi = realize_path(diagram, path)
            assert fixed_point_index(first, second, phi) == index
            assert index_from_torus(diagram, path, check_all_bases=True) == index
            values.append(index)
        assert len(values) == count
        assert set(values) == oracle_enumerate(diagram) == {0, 1, 2}


class TestSplitValueOnIntegers:
    def test_every_below_set_of_the_small_diagrams(self):
        realizable = unrealizable = 0
        for diagram in small_diagrams(2):
            for below in below_sets(None, diagram):
                if check_below_set(diagram, below):
                    realizable += 1
                else:
                    unrealizable += 1
        assert realizable > 3000 and unrealizable > 3000

    def test_seeded_geometric_diagrams(self):
        rng = random.Random(9100)
        values = set()
        for diagram, _ in geometric_diagrams(rng, 200):
            for below in below_sets(rng, diagram, cap=64):
                if check_below_set(diagram, below):
                    values.add(walk_value(diagram, below))
            _, trace = prescribe(diagram)
            assert trace.path == reference_thread_path(diagram, trace.below)
        assert len(values) > 3

    def test_oracle_with_off_grid_extra_pairs(self):
        # extra pairs on the map at odd-denominator source parameters: the
        # anchors' denominators enter the scale, and the sets shrink; with
        # no extra pair the helper is the package's oracle
        rng = random.Random(9200)
        shrunk = 0
        for diagram, phi in geometric_diagrams(rng, 60, max_crossings=8):
            three = oracle_enumerate(diagram)
            assert three == reference_oracle(diagram)
            assert oracle_with_anchors(diagram, []) == three
            for count in (1, 2):
                sources = sorted({F(rng.randrange(1, q), q) for q in
                                  (rng.randrange(3, 200, 2)
                                   for _ in range(count))})
                extra = [(s, phi.evaluate(s)) for s in sources]
                got = outcome(oracle_with_anchors, diagram, extra)
                assert got == outcome(reference_oracle, diagram, extra)
                if isinstance(got, frozenset):
                    assert got <= three
                    shrunk += got < three
                for x, y in anchor_points(diagram, extra):
                    assert x.denominator > 1 and y.denominator > 1
        assert shrunk > 10


def reference_path_induced_bits(parent, child, child_path, box):
    """The child path rewritten in parent coordinates as a `StaircasePath`,
    then the height over each reinserted mark."""
    parent_col = {tok: i for i, tok in enumerate(parent.col_order)}
    parent_row = {tok: i for i, tok in enumerate(parent.row_order)}
    nc, np_ = child.size, parent.size
    col_dst = [parent_col[t] for t in child.col_order] + [np_]
    row_dst = [parent_row[t] for t in child.row_order] + [np_]

    def lift(v, dst):
        i, r = divmod(v.numerator * nc, v.denominator)
        if r == 0:
            return F(dst[i], np_)
        q = v.denominator
        return F(dst[i] * q + (dst[i + 1] - dst[i]) * r, q * np_)

    path = StaircasePath(tuple([(lift(x, col_dst), lift(y, row_dst))
                                for x, y in child_path.points]))
    placed = {m.crossing_id: m for m in marks(parent)}
    bits = []
    for cid in (box.entry_id, box.exit_id):
        m = placed[cid]
        level = path.y_at(m.x)
        if level == m.y:
            return None
        bits.append(BELOW if m.y < level else ABOVE)
    return tuple(bits)


class TestChildSidesOnIntegers:
    def test_lifted_vertices_match_the_converted_path(self):
        rng = random.Random(9300)
        diagrams = [canonical_diagram(m, seed=m)[3] for m in range(2, 9)]
        diagrams += [d for d, _ in geometric_diagrams(rng, 60)]
        seen = set()
        for diagram in diagrams:
            if len(diagram.kinds) < 4:
                continue
            level = diagram._ranks
            try:
                pairs = _adjacent_pairs(level)
                boxes = [_build_box(level, *pair) for pair in pairs]
            except InvariantFailure:
                continue  # too few pairs, or a box guard fired
            scale, events = _events(level)
            for (e, x, _), box in zip(pairs, boxes):
                child = without_marks(diagram, (box.entry_id, box.exit_id))
                kid, kid_scale, kid_events = _child(level, scale, events, e, x)
                for below in below_sets(rng, child, cap=32):
                    walk = _walk(kid, kid_scale, kid_events, below)
                    if walk is None:
                        continue
                    got = _path_induced_bits(level, e, x, walk[0], kid_scale)
                    assert got == reference_path_induced_bits(
                        diagram, child, reference_thread_path(child, below), box)
                    seen.add(got)
        assert {(BELOW, BELOW), (ABOVE, ABOVE), (BELOW, ABOVE),
                (ABOVE, BELOW)} <= seen


def bent_walks(level, scale, vertices):
    """A walk's vertices, then each bend of them that misses constraint 2
    or 3 by one unit ("c") or passes through a mark ("m"), where the bend
    keeps the vertices rising, each with its tag."""
    yield None, vertices
    heights = {x: y for x, y in vertices}
    points = [(c * scale, r * scale) for c, r in level.constraints[1:]]
    points += [(c * scale, r * scale) for c, r in zip(level.cols, level.rows)]
    for i, (x, y) in enumerate(points):
        k = vertices.index((x, heights[x]))
        target = y + 1 if i < 2 else y
        if vertices[k - 1][1] < target < vertices[k + 1][1] and \
                target != heights[x]:
            yield "c" if i < 2 else "m", \
                vertices[:k] + [(x, target)] + vertices[k + 1:]


class TestFinalCheckOnIntegers:
    def test_reading_of_the_walk_is_the_path_reading(self):
        # prescribe checks the winning walk's integer vertices with the
        # routine behind index_from_torus(check_all_bases=True): on walks,
        # and on walks bent off a constraint or onto a mark, the two agree,
        # errors included
        rng = random.Random(9600)
        seen = Counter()
        for diagram, _ in geometric_diagrams(rng, 30):
            level = diagram._ranks
            scale, events = _events(level)
            d = diagram.size * scale
            for below in below_sets(rng, diagram, cap=8):
                walk = _walk(level, scale, events, below)
                if walk is None:
                    continue
                for _, bent in bent_walks(level, scale, walk[0]):
                    got = outcome(lambda: _read_path(
                        level, [(x, d, y, d) for x, y in bent], True)[2])
                    path = StaircasePath(tuple([(F(x, d), F(y, d))
                                                for x, y in bent]))
                    assert got == outcome(index_from_torus, diagram, path,
                                          True)
                    seen[got[0] if isinstance(got, tuple) else "index"] += 1
        assert set(seen) == {"index", "BasePointOnGrid", "PathHitsMark"}

    @pytest.mark.parametrize("tag, error", [("c", BasePointOnGrid),
                                            ("m", PathHitsMark)])
    def test_prescribe_rejects_a_bent_winning_walk(self, tag, error,
                                                  monkeypatch):
        # the check runs on the walk the solver hands back: bent off a
        # constraint or onto a mark, it does not get out
        diagram = canonical_diagram(6, seed=506)[3]
        drive = PRESCRIBE._drive

        def bent(solver):
            below, scale, vertices, index, levels = drive(solver)
            vertices = next(v for t, v in bent_walks(diagram._ranks, scale,
                                                     vertices) if t == tag)
            return below, scale, vertices, index, levels

        monkeypatch.setattr(PRESCRIBE, "_drive", bent)
        with pytest.raises(error):
            prescribe(diagram)

    def test_a_negative_reading_draws_the_ranks_and_the_path(self,
                                                             monkeypatch):
        diagram = canonical_diagram(6, seed=506)[3]
        path = prescribe(diagram)[0]
        read = PRESCRIBE._read_path
        monkeypatch.setattr(PRESCRIBE, "_read_path",
                            lambda *args: (*read(*args)[:2], -1))
        with pytest.raises(InternalCaseGap) as err:
            prescribe(diagram)
        assert str(err.value) == ("solver returned a negative index:\n"
                                  + diagram._ranks.dump(path))


def rank_fields(level):
    return (level.size, level.constraints, level.cols, level.rows, level.ids,
            level.p_ids, level.forced, level.containment)


class TestChildLevels:
    def test_each_child_is_the_diagram_without_its_pair(self):
        # every child the pair rule can take, down the first child at each
        # level: its ranks, kinds, forced sets, scale and event list are
        # those of the diagram rebuilt without the pair
        rng = random.Random(9500)
        diagrams = [canonical_diagram(m, seed=m)[3] for m in range(2, 13)]
        diagrams += [d for d, _ in geometric_diagrams(rng, 40)]
        count = 0
        for diagram in diagrams:
            level = diagram._ranks
            scale, events = _events(level)
            while len(level.ids) >= 4:
                try:
                    pairs = _adjacent_pairs(level)
                except AssumptionViolated:
                    break
                kids = []
                for e, x, _ in pairs:
                    kid = _child(level, scale, events, e, x)
                    want = without_marks(diagram, (level.ids[e], level.ids[x]))
                    assert rank_fields(kid[0]) == rank_fields(want._ranks)
                    assert kid[1:] == _events(want._ranks)
                    kids.append((kid, want))
                    count += 1
                (level, scale, events), diagram = kids[0]
        assert count > 300


def doubly_adjacent_pairs(diagram):
    """(entry, partner, descends) for each entry mark whose next mark by
    column is also next to it by row, read straight off the ranks."""
    by_col = sorted(marks(diagram), key=lambda m: m.col)
    count = len(by_col)
    row_rank = {m.crossing_id: i for i, m in
                enumerate(sorted(by_col, key=lambda m: m.row))}
    for i, entry in enumerate(by_col):
        if entry.kind is not CrossKind.P:
            continue
        j = (i + 1) % count
        partner = by_col[j]
        gap = (row_rank[entry.crossing_id]
               - row_rank[partner.crossing_id]) % count
        if gap in (1, count - 1):
            yield i, j, entry, partner, gap == 1


class TestPairsPastTheFrameCut:
    def test_pairs_without_a_box_are_skipped(self):
        # a doubly adjacent pair whose partner lies past the constraint its
        # frame is cut at has no box; the pair search must pass over it
        # rather than abort, since the solver catches only the failures a
        # parent level can recover from
        skipped = 0
        for diagram, _ in geometric_diagrams(random.Random(9300), 60):
            kept = []
            for i, j, entry, partner, descends in doubly_adjacent_pairs(diagram):
                if box_outcome(_build_box, diagram._ranks, i, j, descends) \
                        == "pair order broke under rebasing":
                    skipped += 1
                else:
                    kept.append((entry.crossing_id, partner.crossing_id))
            try:
                boxes = find_doubly_adjacent(diagram)
            except AssumptionViolated:
                assert len(kept) < 2
            else:
                assert [(b.entry_id, b.exit_id) for b in boxes] == kept
            level = diagram._ranks
            try:
                below, _, _, w, _ = _drive(
                    _solve_by_pairs(level, *_events(level), 0))
            except (AssumptionViolated, InternalCaseGap):
                pass
            else:
                assert w >= 0
                assert walk_value(diagram, below) == w
            path, trace = prescribe(diagram)
            assert trace.index >= 0
        assert skipped >= 2
