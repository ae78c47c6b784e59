"""Torus diagrams, staircase paths, and the two index formulas."""
import heapq
import random
from fractions import Fraction

import pytest

from fpindex.errors import (
    AlternationViolation,
    BasePointOnGrid,
    ConstraintOnCurve,
    FormulaMismatch,
    HasFixedPoint,
    InputRejection,
    OrderViolation,
    PathHitsMark,
)
from fpindex.exact_geom import trusted
from fpindex.jordan import (
    CrossKind,
    _containment,
    canonical_noncut_pair,
    check_transverse,
)
from fpindex.plmap import PLCorrespondence, fixed_point_index, random_correspondence
from fpindex.prescribe import prescribe
from fpindex.torus import (
    Containment,
    StaircasePath,
    TorusDiagram,
    build_diagram,
    index_from_torus,
    path_of_correspondence,
    realize_path,
)

from geomgen import (
    SquareTooLarge,
    abstract_diagram,
    constraint_point,
    cyclic_offsets,
    delta_split,
    identity_params,
    local_winding,
    marks,
    membership_matches_geometry,
    path_through_constraints,
    point_at,
    position_of_param,
    random_monotone_path,
    random_transverse_pair,
    square_curve,
    straight_path,
    walk_below,
    without_marks,
    synthesize_constraints,
    thread_path,
)
from twins import rebuilt

F = Fraction


def lens_fixture():
    """Overlapping squares, two crossings, identity-parameter map, index 0."""
    first = square_curve(0, 0, 4, 4)
    second = square_curve(2, 1, 6, 3)
    crossings = check_transverse(first, second)
    constraints = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))]
    diagram = build_diagram(first, second, crossings, constraints)
    return first, second, crossings, diagram


class TestBuildDiagram:
    def test_lens_token_orders(self):
        _, _, crossings, diagram = lens_fixture()
        assert [c.kind for c in crossings] == [CrossKind.P, CrossKind.PTILDE]
        assert diagram.col_order == (("c", 1), ("c", 2), ("m", 0), ("m", 1),
                                     ("c", 3))
        assert diagram.row_order == (("c", 1), ("m", 0), ("c", 2), ("m", 1),
                                     ("c", 3))
        placed = {m.crossing_id: m for m in marks(diagram)}
        assert (placed[0].x, placed[0].y) == (F(2, 5), F(1, 5))
        assert (placed[1].x, placed[1].y) == (F(3, 5), F(3, 5))
        assert diagram._ranks.membership(1) == (False, True)

    def test_rejects_constraint_on_crossing(self):
        first = square_curve(0, 0, 4, 4)
        second = square_curve(2, 1, 6, 3)
        crossings = check_transverse(first, second)
        bad = [(F(5, 16), F(0)), (F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))]
        with pytest.raises(ConstraintOnCurve):
            build_diagram(first, second, crossings, bad)

    def test_rejects_incompatible_cyclic_orders(self):
        first = square_curve(0, 0, 4, 4)
        second = square_curve(2, 1, 6, 3)
        crossings = check_transverse(first, second)
        bad = [(F(0), F(0)), (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]
        with pytest.raises(OrderViolation):
            build_diagram(first, second, crossings, bad)

    def test_abstract_rejects_nonalternating_kinds(self):
        with pytest.raises(AlternationViolation):
            abstract_diagram(
                (("c", 1), ("m", 0), ("m", 1), ("c", 2), ("c", 3)),
                (("c", 1), ("m", 0), ("m", 1), ("c", 2), ("c", 3)),
                {0: CrossKind.P, 1: CrossKind.P})

    @pytest.mark.parametrize("stray", [("c", 4), ("x", 7)])
    def test_rejects_tokens_that_are_neither_constraint_nor_mark(self, stray):
        # a stray token would otherwise count as one more grid rank
        order = (("c", 1), ("m", 0), ("c", 2), ("m", 1), ("c", 3), stray)
        kinds = {0: CrossKind.P, 1: CrossKind.PTILDE}
        reason = r"tokens must be constraints \('c', 1..3\) or marks"
        with pytest.raises(InputRejection, match=reason):
            abstract_diagram(order, order, kinds)
        with pytest.raises(InputRejection, match=reason):
            TorusDiagram(order, order, tuple(sorted(kinds.items())))

    @pytest.mark.parametrize("case, error, reason", [
        ("a mark missing from the rows", InputRejection,
         "column and row token sets differ"),
        ("a mark twice", InputRejection, "duplicate tokens"),
        ("a mark first", OrderViolation,
         "orders must start at the first constraint"),
        ("two constraints", InputRejection, "need exactly three constraints"),
        ("constraints 2 and 3 swapped", OrderViolation,
         "constraints must appear in the same cyclic order on both curves"),
        ("a kind missing", InputRejection,
         "kinds must cover exactly the marks"),
        ("no marks", InputRejection,
         "a diagram without marks needs a containment tag"),
        ("two column parameters", InputRejection,
         "parameter list does not match token count"),
    ])
    def test_constructor_rejection_reasons(self, case, error, reason):
        order = (("c", 1), ("m", 0), ("c", 2), ("m", 1), ("c", 3))
        kinds = ((0, CrossKind.P), (1, CrossKind.PTILDE))
        args = {
            "a mark missing from the rows": (order, order[:-2] + order[-1:],
                                             kinds),
            "a mark twice": (order + (("m", 0),),) * 2 + (kinds,),
            "a mark first": (order[1:] + order[:1],) * 2 + (kinds,),
            "two constraints": (order[:-1],) * 2 + (kinds,),
            "constraints 2 and 3 swapped": (
                (("c", 1), ("m", 0), ("c", 3), ("m", 1), ("c", 2)),) * 2
                + (kinds,),
            "a kind missing": (order, order, kinds[:1]),
            "no marks": ((("c", 1), ("c", 2), ("c", 3)),) * 2 + ((),),
            "two column parameters": (order, order, kinds, None,
                                      (F(0), F(1, 2))),
        }[case]
        with pytest.raises(error) as caught:
            TorusDiagram(*args)
        assert str(caught.value) == reason

    def test_canonical_pair_row_order(self):
        # Along the first curve the crossings alternate enter/exit going down
        # the wall; along the second curve they come back bottom-up.
        first, second = canonical_noncut_pair(2)
        crossings = check_transverse(first, second)
        assert [c.kind for c in crossings] == [CrossKind.P, CrossKind.PTILDE,
                                               CrossKind.P, CrossKind.PTILDE]
        assert [c.index for c in crossings.by_param_kt()] == [3, 2, 1, 0]


def reference_build_diagram(first, second, crossings, constraint_pairs):
    """build_diagram by sorting every parameter, with hashed sets of the
    crossing parameters for the coincidence check."""
    if len(constraint_pairs) != 3:
        raise InputRejection("exactly three prescribed pairs are required")
    pairs = [(s % 1, t % 1) for s, t in constraint_pairs]
    cross_s = {c.param_k for c in crossings}
    cross_t = {c.param_kt for c in crossings}
    for s, t in pairs:
        if s in cross_s or t in cross_t:
            raise ConstraintOnCurve(
                "prescribed parameter coincides with a crossing")
    if len({s for s, _ in pairs}) != 3 or len({t for _, t in pairs}) != 3:
        raise InputRejection("prescribed parameters must be distinct")
    s1, t1 = pairs[0]
    s_off = [(pairs[1][0] - s1) % 1, (pairs[2][0] - s1) % 1]
    t_off = [(pairs[1][1] - t1) % 1, (pairs[2][1] - t1) % 1]
    if (s_off[0] < s_off[1]) != (t_off[0] < t_off[1]):
        raise OrderViolation(
            "prescribed pairs are cyclically incompatible with orientation")
    if s_off[0] > s_off[1]:
        raise OrderViolation("prescribed pairs must be listed in cyclic order "
                             "from the first pair")
    col_items = [(s, ("c", i)) for i, (s, _) in enumerate(pairs, 1)]
    row_items = [(t, ("c", i)) for i, (_, t) in enumerate(pairs, 1)]
    for c in crossings:
        col_items.append((c.param_k % 1, ("m", c.index)))
        row_items.append((c.param_kt % 1, ("m", c.index)))
    for items in (col_items, row_items):
        items.sort(key=lambda item: item[0])
        cut = [token for _, token in items].index(("c", 1))
        items[:] = items[cut:] + items[:cut]
    return trusted(
        TorusDiagram,
        col_order=tuple(t for _, t in col_items),
        row_order=tuple(t for _, t in row_items),
        kinds=tuple((c.index, c.kind) for c in crossings),
        containment=(Containment(_containment(first, second))
                     if len(crossings) == 0 else None),
        col_params=tuple(p for p, _ in col_items),
        row_params=tuple(p for p, _ in row_items))


def value_in_gap(rng, params, gap):
    """A parameter in gap `gap` of the sorted crossing parameters: before
    the first for 0, after the last for len(params), shifted by a whole
    turn now and then."""
    lo = params[gap - 1] if gap else F(0)
    hi = params[gap] if gap < len(params) else F(1)
    value = lo + (hi - lo) * F(rng.randrange(0 if gap else 1, 16), 16)
    return value + rng.choice((0, 0, 0, 1, -2))


def constraint_placements(rng, crossings, gaps):
    """Three pairs in cyclic order, on gaps (s gap, t gap) of the crossings'
    first- and second-curve parameters."""
    axes = ([c.param_k for c in crossings],
            [c.param_kt for c in crossings.by_param_kt()])
    values = [sorted((value_in_gap(rng, params, g[axis]) for g in gaps),
                     key=lambda v: v % 1)
              for axis, params in enumerate(axes)]
    pairs = list(zip(*values))
    start = rng.randrange(3)
    return pairs[start:] + pairs[:start]


def diagram_outcome(build, *args):
    try:
        return build(*args)
    except (ConstraintOnCurve, InputRejection, OrderViolation) as err:
        return type(err).__name__, str(err)


class TestBuildDiagramMerge:
    """The bisect-and-merge build_diagram against the sort-based one."""

    def cases(self):
        rng = random.Random(2201)
        pairs = [canonical_noncut_pair(m) for m in (1, 3)]
        pairs += [random_transverse_pair(rng)[:2] for _ in range(12)]
        pairs += [(square_curve(0, 0, 1, 1), square_curve(5, 5, 6, 6)),
                  (square_curve(1, 1, 2, 2), square_curve(0, 0, 4, 4))]
        for first, second in pairs:
            crossings = check_transverse(first, second)
            n = len(crossings)
            layouts = [[(0, 0), (n // 2, n // 2), (n, n)],   # ends and middle
                       [(0, n), (0, n), (n, 0)],              # two in a gap
                       [(n // 2, n)] * 3]                     # all in one
            layouts += [[(rng.randrange(n + 1), rng.randrange(n + 1))
                         for _ in range(3)] for _ in range(8)]
            for gaps in layouts:
                yield first, second, crossings, constraint_placements(
                    rng, crossings, gaps)

    def test_equals_sort_based_reference(self):
        built = 0
        for first, second, crossings, pairs in self.cases():
            ours = diagram_outcome(build_diagram, first, second, crossings,
                                   pairs)
            assert ours == diagram_outcome(reference_build_diagram, first,
                                           second, crossings, pairs)
            built += isinstance(ours, TorusDiagram)
        assert built >= 100

    def test_equal_errors_on_bad_placements(self):
        rng = random.Random(2202)
        for first, second, crossings, pairs in self.cases():
            crossing = rng.choice(crossings.crossings or (None,))
            if crossing is not None:
                on_curve = [(crossing.param_k, pairs[0][1]), *pairs[1:]]
                on_target = [pairs[0], (pairs[1][0], crossing.param_kt + 1),
                             pairs[2]]
            else:
                on_curve = on_target = pairs[:2]
            for bad in (on_curve, on_target, pairs[::-1],
                        [pairs[0], pairs[0], pairs[2]]):
                ours = diagram_outcome(build_diagram, first, second,
                                       crossings, bad)
                assert not isinstance(ours, TorusDiagram)
                assert ours == diagram_outcome(reference_build_diagram, first,
                                               second, crossings, bad)


class TestStaircasePath:
    def test_rejects_non_monotone(self):
        with pytest.raises(InputRejection):
            StaircasePath(((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1, 2), F(3, 4)),
                           (F(1), F(1))))

    def test_rejects_a_path_that_misses_a_corner(self):
        with pytest.raises(InputRejection,
                           match=r"^path must run from \(0,0\) to \(1,1\)$"):
            StaircasePath(((F(0), F(0)), (F(1), F(1, 2))))

    def test_y_at_rejects_a_query_outside_the_square(self):
        path = StaircasePath(((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(InputRejection,
                           match="^query outside the unit square$"):
            path.y_at(F(5, 4))

    def test_y_at_interpolates(self):
        path = StaircasePath(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))))
        assert path.y_at(F(1, 4)) == F(1, 8)
        assert path.y_at(F(3, 4)) == F(5, 8)

    def test_delta_split_lens(self):
        _, _, _, diagram = lens_fixture()
        phi = identity_params(4)
        path = path_of_correspondence(diagram, phi)
        assert path.y_at(F(1, 5)) == F(2, 5)
        assert path.y_at(F(4, 5)) == F(4, 5)
        below, above = delta_split(diagram, path)
        assert below == frozenset({0})
        assert above == frozenset({1})

    def test_correspondence_needs_true_parameters(self):
        diagram = abstract_diagram(
            (("c", 1), ("m", 0), ("c", 2), ("m", 1), ("c", 3)),
            (("c", 1), ("m", 0), ("c", 2), ("m", 1), ("c", 3)),
            {0: CrossKind.P, 1: CrossKind.PTILDE})
        with pytest.raises(InputRejection,
                           match="^diagram carries no true parameters$"):
            path_of_correspondence(diagram, identity_params(4))

    def test_path_through_mark_rejected(self):
        _, _, _, diagram = lens_fixture()
        path = StaircasePath(((F(0), F(0)), (F(2, 5), F(1, 5)), (F(1), F(1))))
        with pytest.raises(PathHitsMark):
            delta_split(diagram, path)


def reference_split(diagram, path):
    """Each mark against the path's height over the mark's column."""
    below, above = set(), set()
    for m in marks(diagram):
        level = path.y_at(m.x)
        if level == m.y:
            raise PathHitsMark(f"path passes through mark {m.crossing_id}")
        (below if m.y < level else above).add(m.crossing_id)
    return frozenset(below), frozenset(above)


def split_outcome(split, diagram, path):
    try:
        return split(diagram, path)
    except PathHitsMark as err:
        return str(err)


class TestDeltaSplitWalk:
    def test_matches_per_mark_heights(self):
        # a prime denominator above the token count puts no vertex on a
        # mark column, so those paths take the cross-product branch; the
        # path of the correspondence and the 2n grid put vertices on them
        rng = random.Random(7300)
        splits = hits = 0
        for _ in range(60):
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 9))
            diagram = build_diagram(first, second, crossings,
                                    synthesize_constraints(crossings, phi, rng))
            assert diagram.size < 211
            paths = [straight_path(diagram), path_of_correspondence(diagram, phi)]
            paths += [random_monotone_path(rng, rng.randrange(1, 9), 211)
                      for _ in range(4)]
            paths += [random_monotone_path(rng, rng.randrange(1, 9),
                                           2 * diagram.size) for _ in range(2)]
            for path in paths:
                got = split_outcome(delta_split, diagram, path)
                assert got == split_outcome(reference_split, diagram, path)
                if isinstance(got, str):
                    hits += 1
                else:
                    splits += 1
        assert splits > 300 and hits > 0

    def test_path_meeting_a_mark_is_rejected(self):
        _, _, _, diagram = canonical_diagram_for_split()
        d = F(1, 4 * diagram.size)
        for m in marks(diagram):
            at_vertex = StaircasePath(((F(0), F(0)), (m.x, m.y), (F(1), F(1))))
            inside = StaircasePath(((F(0), F(0)), (m.x - d, m.y - d),
                                    (m.x + d, m.y + d), (F(1), F(1))))
            for path in (at_vertex, inside):
                with pytest.raises(PathHitsMark,
                                   match=f"mark {m.crossing_id}$"):
                    delta_split(diagram, path)


def canonical_diagram_for_split():
    first, second = canonical_noncut_pair(3)
    crossings = check_transverse(first, second)
    rng = random.Random(7400)
    phi = random_correspondence(rng, 5)
    pairs = synthesize_constraints(crossings, phi, rng)
    return first, second, crossings, build_diagram(first, second, crossings, pairs)


def point_by_point_path(diagram, phi):
    """The graph point by point: every parameter placed on its own."""
    s1 = diagram.col_params[0]
    params = set(phi.s_vals)
    params.update(diagram.col_params)
    inv = phi.invert()
    params.update(inv.evaluate(t) for t in diagram.row_params)
    ordered = sorted(params, key=lambda s: (s - s1) % 1)
    pts = [(position_of_param(diagram.col_params, s),
            position_of_param(diagram.row_params, phi.evaluate(s)))
           for s in ordered]
    return StaircasePath(tuple(pts + [(F(1), F(1))]))


class TestPathOfCorrespondenceWalk:
    def test_matches_point_by_point_placement(self):
        rng = random.Random(7500)
        cases = [(lens_fixture()[3], identity_params(4))]
        for _ in range(40):
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 9))
            pairs = synthesize_constraints(crossings, phi, rng)
            cases.append((build_diagram(first, second, crossings, pairs), phi))
        for diagram, phi in cases:
            path = path_of_correspondence(diagram, phi)
            assert path == point_by_point_path(diagram, phi)


def reference_path_of_correspondence(diagram, phi):
    """The merge walk on `Fraction`s: every merged point interpolated and
    placed between its tokens by `Fraction` arithmetic."""
    s1 = diagram.col_params[0]
    t1 = diagram.row_params[0]
    if phi.evaluate(s1) != t1:
        raise InputRejection("correspondence misses the first prescribed pair")
    knots = sorted([((s - s1) % 1, (t - t1) % 1) for s, t in phi.breakpoints])
    (u_last, v_last), (u_first, v_first) = knots[-1], knots[0]
    knots = [(u_last - 1, v_last - 1), *knots, (u_first + 1, v_first + 1)]
    cols = cyclic_offsets(diagram.col_params)
    rows = cyclic_offsets(diagram.row_params)
    row_preimages = []
    p = 0
    for v in rows[:-1]:
        while knots[p + 1][1] <= v:
            p += 1
        (u0, v0), (u1, v1) = knots[p], knots[p + 1]
        row_preimages.append(u0 + (v - v0) * (u1 - u0) / (v1 - v0))
    n = diagram.size
    pts = []
    p = k = j = 0
    last = None
    for u in heapq.merge([u for u, _ in knots[1:-1]], cols[:-1], row_preimages):
        if u == last:
            continue
        last = u
        while knots[p + 1][0] <= u:
            p += 1
        (u0, v0), (u1, v1) = knots[p], knots[p + 1]
        v = v0 + (v1 - v0) * (u - u0) / (u1 - u0)
        while cols[k + 1] <= u:
            k += 1
        while rows[j + 1] <= v:
            j += 1
        pts.append(((k + (u - cols[k]) / (cols[k + 1] - cols[k])) / n,
                    (j + (v - rows[j]) / (rows[j + 1] - rows[j])) / n))
    pts.append((F(1), F(1)))
    return StaircasePath(tuple(pts))


def token_knotted_maps(rng, diagram, phi):
    """Maps whose breakpoints sit exactly on tokens, so that knots, column
    tokens and row-token preimages coincide in the walk: phi with extra
    breakpoints of its own at column tokens and row-token preimages, and a
    map through pairs (column token, row token) with bends between them."""
    cols, rows = diagram.col_params, diagram.row_params
    refined = dict(phi.breakpoints)
    for s in rng.sample(cols, rng.randrange(1, len(cols) + 1)):
        refined[s] = phi.evaluate(s)
    inverse = phi.invert()
    for t in rng.sample(rows, rng.randrange(1, len(rows) + 1)):
        refined[inverse.evaluate(t)] = t
    yield PLCorrespondence(tuple(sorted(refined.items())))
    count = rng.randrange(2, len(cols) + 1)
    ks = [0, *sorted(rng.sample(range(1, len(cols)), count - 1))]
    js = [0, *sorted(rng.sample(range(1, len(rows)), count - 1))]
    knots = {cols[k]: rows[j] for k, j in zip(ks, js)}
    # a bend halfway between consecutive token pairs, in cyclic offsets
    for i, (k, j) in enumerate(zip(ks, js)):
        if rng.random() < 0.5:
            continue
        s0, t0 = cols[k], rows[j]
        s1 = cols[ks[i + 1]] if i + 1 < count else cols[0] + 1
        t1 = rows[js[i + 1]] if i + 1 < count else rows[0] + 1
        ds, dt = (s1 - s0) % 1 or 1, (t1 - t0) % 1 or 1
        knots[(s0 + ds * F(rng.randrange(1, 8), 8)) % 1] = \
            (t0 + dt * F(rng.randrange(1, 8), 8)) % 1
    yield PLCorrespondence(tuple(sorted(knots.items())))


class TestPathOfCorrespondenceOnIntegers:
    def test_matches_the_fraction_merge_walk(self):
        # token-knotted maps put a knot on a column token, on a row-token
        # preimage or on both, which the walk merges into one vertex
        rng = random.Random(7700)
        ties = 0
        for _ in range(200):
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 9))
            diagram = build_diagram(first, second, crossings,
                                    synthesize_constraints(crossings, phi, rng))
            for psi in (phi, *token_knotted_maps(rng, diagram, phi)):
                path = path_of_correspondence(diagram, psi)
                assert path == reference_path_of_correspondence(diagram, psi)
                n = diagram.size
                ties += sum(1 for x, y in path.points[1:-1]
                            if (x * n).denominator == (y * n).denominator == 1)
        assert ties > 200

    def test_parameters_written_outside_the_unit_interval(self):
        # the constructor takes true parameters anywhere on the real line
        # and realize_path reads them mod 1; the cut's pair is read so too
        count = 0
        for diagram, phi in reference_diagrams(random.Random(8500), 20):
            lifted = rebuilt(
                diagram, col_params=tuple(p + 1 for p in diagram.col_params),
                row_params=tuple(p + 1 for p in diagram.row_params))
            assert (path_of_correspondence(lifted, phi)
                    == path_of_correspondence(diagram, phi))
            count += 1
        assert count == 26

    def test_rejects_a_map_off_the_first_pair(self):
        _, _, _, diagram = lens_fixture()
        shifted = PLCorrespondence(tuple((F(i, 4), F(2 * i + 1, 8))
                                         for i in range(4)))
        for walk in (path_of_correspondence, reference_path_of_correspondence):
            with pytest.raises(InputRejection, match="misses the first"):
                walk(diagram, shifted)


class TestTrueParameterOrder:
    def test_comparisons_decide_as_offsets_do(self):
        order = (("c", 1), ("m", 0), ("c", 2), ("m", 1), ("c", 3))
        kinds = ((0, CrossKind.P), (1, CrossKind.PTILDE))
        rng = random.Random(7600)
        verdicts = set()
        for k in range(600):
            if k % 2:
                # a rotation of sorted values in [0, 1), ties possible
                ranked = sorted(F(rng.randrange(12), 12) for _ in order)
                cut = rng.randrange(len(order))
                params = tuple(ranked[cut:] + ranked[:cut])
            else:
                params = tuple(F(rng.randrange(-8, 24), rng.choice((4, 7)))
                               for _ in order)
            offsets = [(p - params[0]) % 1 for p in params]
            want = all(a < b for a, b in zip(offsets, offsets[1:]))
            try:
                TorusDiagram(order, order, kinds, col_params=params)
                got = True
            except OrderViolation:
                got = False
            assert got == want, params
            verdicts.add(got)
        assert verdicts == {True, False}


class TestIndexFromTorus:
    def test_lens_identity_map(self):
        first, second, _, diagram = lens_fixture()
        phi = identity_params(4)
        path = path_of_correspondence(diagram, phi)
        eta = index_from_torus(diagram, path, check_all_bases=True)
        assert membership_matches_geometry(diagram, first, second)
        assert eta == 0
        assert fixed_point_index(first, second, phi) == 0

    def test_agrees_with_geometry_on_random_instances(self):
        rng = random.Random(6100)
        done = 0
        while done < 30:
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 9))
            try:
                eta_geom = fixed_point_index(first, second, phi)
            except HasFixedPoint:
                continue
            constraints = synthesize_constraints(crossings, phi, rng)
            diagram = build_diagram(first, second, crossings, constraints)
            path = path_of_correspondence(diagram, phi)
            eta_torus = index_from_torus(diagram, path, check_all_bases=True)
            assert membership_matches_geometry(diagram, first, second)
            assert eta_torus == eta_geom
            done += 1

    def test_round_trip_through_realize(self):
        rng = random.Random(6200)
        done = 0
        while done < 10:
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, rng.randrange(3, 9))
            try:
                fixed_point_index(first, second, phi)
            except HasFixedPoint:
                continue
            constraints = synthesize_constraints(crossings, phi, rng)
            diagram = build_diagram(first, second, crossings, constraints)
            path = path_of_correspondence(diagram, phi)
            back = realize_path(diagram, path)
            for _ in range(20):
                s = F(rng.randrange(2048), 2048)
                assert back.evaluate(s) == phi.evaluate(s)
            done += 1

    def test_disjoint_straight_path(self):
        first = square_curve(0, 0, 2, 2)
        second = square_curve(10, 10, 14, 14)
        crossings = check_transverse(first, second)
        constraints = [(F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))]
        diagram = build_diagram(first, second, crossings, constraints)
        assert diagram.containment is Containment.DISJOINT
        path = straight_path(diagram)
        assert index_from_torus(diagram, path) == 0
        phi = realize_path(diagram, path)
        assert fixed_point_index(first, second, phi) == 0

    def test_nested_straight_path(self):
        first = square_curve(4, 4, 6, 6)
        second = square_curve(0, 0, 10, 10)
        crossings = check_transverse(first, second)
        constraints = [(F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))]
        diagram = build_diagram(first, second, crossings, constraints)
        assert diagram.containment is Containment.FIRST_INSIDE_SECOND
        path = straight_path(diagram)
        assert index_from_torus(diagram, path) == 1
        phi = realize_path(diagram, path)
        assert fixed_point_index(first, second, phi) == 1

    def test_outer_first_straight_path(self):
        first = square_curve(0, 0, 10, 10)
        second = square_curve(4, 4, 6, 6)
        crossings = check_transverse(first, second)
        constraints = [(F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))]
        diagram = build_diagram(first, second, crossings, constraints)
        assert diagram.containment is Containment.SECOND_INSIDE_FIRST
        path = straight_path(diagram)
        phi = realize_path(diagram, path)
        assert index_from_torus(diagram, path) == \
            fixed_point_index(first, second, phi) == 1

    def test_membership_matches_geometry_random(self):
        rng = random.Random(6300)
        for _ in range(15):
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, 4)
            constraints = synthesize_constraints(crossings, phi, rng)
            diagram = build_diagram(first, second, crossings, constraints)
            from fpindex.exact_geom import PointLocation, point_in_polygon
            u = point_at(first, constraints[0][0])
            v = point_at(second, constraints[0][1])
            want = (point_in_polygon(second.loop, u) == PointLocation.INSIDE,
                    point_in_polygon(first.loop, v) == PointLocation.INSIDE)
            assert diagram._ranks.membership(1) == want


def reference_reading(diagram, path):
    """Both formulas at the diagram's own cut, from the per-mark split."""
    below, above = reference_split(diagram, path)
    kinds = dict(diagram.kinds)
    p_below = sum(1 for i in below if kinds[i] is CrossKind.P)
    p_above = sum(1 for i in above if kinds[i] is CrossKind.P)
    base = sum(diagram._ranks.membership(1))
    eta_below = base - p_below + (len(below) - p_below)
    eta_above = base + p_above - (len(above) - p_above)
    if eta_below != eta_above:
        raise FormulaMismatch(
            f"below-form gives {eta_below}, above-form gives {eta_above}")
    return eta_below


def rebased(diagram, i):
    """The same torus cut at constraint i, which becomes constraint 1."""
    if i == 1:
        return diagram
    relabel = {("c", j): ("c", (j - i) % 3 + 1) for j in (1, 2, 3)}
    rename = lambda t: relabel.get(t, t)
    col_start = diagram.col_order.index(("c", i))
    row_start = diagram.row_order.index(("c", i))
    new_cols = tuple(rename(t) for t in
                     diagram.col_order[col_start:] + diagram.col_order[:col_start])
    new_rows = tuple(rename(t) for t in
                     diagram.row_order[row_start:] + diagram.row_order[:row_start])
    col_params = None if diagram.col_params is None else \
        diagram.col_params[col_start:] + diagram.col_params[:col_start]
    row_params = None if diagram.row_params is None else \
        diagram.row_params[row_start:] + diagram.row_params[:row_start]
    return rebuilt(diagram, col_order=new_cols, row_order=new_rows,
                   col_params=col_params, row_params=row_params)


def reference_rebase(diagram, path, i):
    """The cut moved by rebuilding: a rebased diagram, and the path with the
    constraint point inserted as a vertex, split there and wrapped."""
    x0, y0 = constraint_point(diagram, i)
    pts = list(path.points)
    if (x0, y0) not in pts:
        pts.insert(next(k for k, (x, _) in enumerate(pts) if x > x0), (x0, y0))
    split = pts.index((x0, y0))
    tail = [(x - x0, y - y0) for x, y in pts[split:]]
    head = [(x + 1 - x0, y + 1 - y0) for x, y in pts[1:split + 1]]
    return rebased(diagram, i), StaircasePath(tuple(tail + head))


def reference_all_bases(diagram, path):
    """index_from_torus(check_all_bases=True) through rebuilt diagrams."""
    eta = reference_reading(diagram, path)
    for i in (2, 3):
        x, y = constraint_point(diagram, i)
        if path.y_at(x) != y:
            raise BasePointOnGrid(
                f"cannot move the cut to constraint {i}: path misses it")
        again = reference_reading(*reference_rebase(diagram, path, i))
        if again != eta:
            raise FormulaMismatch(f"cut at constraint {i} gives {again}, not {eta}")
    return eta


def all_bases(diagram, path):
    return index_from_torus(diagram, path, check_all_bases=True)


def reading_outcome(read, diagram, path):
    try:
        return read(diagram, path)
    except (BasePointOnGrid, PathHitsMark, FormulaMismatch) as err:
        return type(err).__name__, str(err)


def threaded_paths(rng, diagram, count: int):
    """Paths `thread_path` threads for random realizable bipartitions."""
    ids = diagram._ranks.ids
    for _ in range(count):
        below = frozenset(i for i in ids if rng.random() < 0.5)
        if walk_below(diagram, below) is not None:
            yield thread_path(diagram, below)


def reference_diagrams(rng, count: int):
    """The lens, canonical pairs and random pairs, each with its map."""
    yield lens_fixture()[3], identity_params(4)
    for m in (1, 2, 3, 5, 8):
        first, second = canonical_noncut_pair(m)
        crossings = check_transverse(first, second)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        yield (build_diagram(first, second, crossings,
                             synthesize_constraints(crossings, phi, rng)), phi)
    for _ in range(count):
        first, second, crossings = random_transverse_pair(rng)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        yield (build_diagram(first, second, crossings,
                             synthesize_constraints(crossings, phi, rng)), phi)


class TestAllBasesByRankShift:
    def test_matches_the_rebuilt_diagram_route(self):
        rng = random.Random(8300)
        outcomes = set()
        for diagram, phi in reference_diagrams(rng, 50):
            n = diagram.size
            paths = [straight_path(diagram), path_of_correspondence(diagram, phi),
                     prescribe(diagram)[0], *threaded_paths(rng, diagram, 4),
                     random_monotone_path(rng, rng.randrange(1, 9), 211),
                     path_through_constraints(rng, diagram, 2 * n),
                     path_through_constraints(rng, diagram, 3 * n)]
            for path in paths:
                got = reading_outcome(all_bases, diagram, path)
                assert got == reading_outcome(reference_all_bases, diagram, path)
                outcomes.add(got[0] if isinstance(got, tuple) else "index")
        assert outcomes == {"index", "BasePointOnGrid", "PathHitsMark"}

    def test_abstract_diagrams_and_containments(self):
        rng = random.Random(8400)
        cases = [abstract_diagram((("c", 1), ("c", 2), ("c", 3)),
                                  (("c", 1), ("c", 2), ("c", 3)), {}, tag)
                 for tag in Containment]
        for diagram, _ in reference_diagrams(rng, 10):
            cases.append(abstract_diagram(diagram.col_order, diagram.row_order,
                                          dict(diagram.kinds)))
        for diagram in cases:
            for path in (straight_path(diagram), prescribe(diagram)[0],
                         *threaded_paths(rng, diagram, 4)):
                assert reading_outcome(all_bases, diagram, path) == \
                    reading_outcome(reference_all_bases, diagram, path)


def reference_realize_path(diagram, path):
    """Each vertex converted on its own from its scaled position, then the
    pairs sorted."""
    def param(params, pos):
        pos = pos % 1
        if params is None:
            return pos
        offsets = cyclic_offsets(params)
        scaled = pos * len(params)
        k = int(scaled)
        off = offsets[k] + (scaled - k) * (offsets[k + 1] - offsets[k])
        return (params[0] + off) % 1
    pairs = sorted((param(diagram.col_params, x),
                    param(diagram.row_params, y))
                   for x, y in path.points[:-1])
    return PLCorrespondence(tuple(pairs))


def wrap_kind(params, pos):
    """Where the parameter at token position pos passes 1, read on
    `Fraction`s: "drop" if pos is the first token whose parameter mod 1
    lies below the first token's, "gap" if pos lies between two tokens and
    the interpolation across that gap reaches 1, else None."""
    units = [p % 1 for p in params]
    n = len(units)
    k, frac = divmod(pos * n, 1)
    if frac == 0:
        drop = next((r for r in range(n) if units[r] < units[0]), n)
        return "drop" if k == drop else None
    lo, hi = units[k], units[(k + 1) % n]
    return "gap" if lo + (hi - lo) % 1 * frac >= 1 else None


class TestRealizePathOnePass:
    def test_matches_per_vertex_conversion(self):
        rng = random.Random(8500)
        on_token = between = 0
        wraps = {"drop": 0, "gap": 0, None: 0}
        for diagram, phi in reference_diagrams(rng, 40):
            n = diagram.size
            abstract = abstract_diagram(diagram.col_order, diagram.row_order,
                                        dict(diagram.kinds))
            paths = [straight_path(diagram), path_of_correspondence(diagram, phi),
                     *threaded_paths(rng, diagram, 3),
                     random_monotone_path(rng, rng.randrange(1, 9), 211),
                     random_monotone_path(rng, rng.randrange(1, n), 2 * n)]
            # the same true parameters, some written outside [0, 1)
            lifted = rebuilt(diagram, col_params=tuple(
                p + k % 3 - 1 for k, p in enumerate(diagram.col_params)))
            for path in paths:
                for d in (diagram, abstract, lifted):
                    assert realize_path(d, path) == reference_realize_path(d, path)
                for x, y in path.points[:-1]:
                    for v in (x, y):
                        if (v * n).denominator == 1:
                            on_token += 1
                        else:
                            between += 1
                    # the least parameter, where realize_path rotates
                    wraps[wrap_kind(diagram.col_params, x)] += 1
                    wraps[wrap_kind(diagram.row_params, y)] += 1
        assert on_token > 500 and between > 500
        assert wraps["drop"] > 100 and wraps["gap"] > 100


class TestLocalWinding:
    def test_lens_kinds(self):
        first, second, crossings, diagram = lens_fixture()
        a, b = crossings
        assert local_winding(diagram, first, second, a) == 1
        assert local_winding(diagram, first, second, b) == -1

    def test_too_large_square_rejected(self):
        first, second, crossings, diagram = lens_fixture()
        with pytest.raises(SquareTooLarge):
            local_winding(diagram, first, second, crossings.crossings[0],
                          eps=F(1, 2))

    def test_kind_rule_on_random_instances(self):
        rng = random.Random(6400)
        for _ in range(10):
            first, second, crossings = random_transverse_pair(rng)
            phi = random_correspondence(rng, 4)
            constraints = synthesize_constraints(crossings, phi, rng)
            diagram = build_diagram(first, second, crossings, constraints)
            for c in crossings:
                want = 1 if c.kind is CrossKind.P else -1
                assert local_winding(diagram, first, second, c) == want


class TestDiagramSurgery:
    def test_without_marks_freezes_membership(self):
        _, _, _, diagram = lens_fixture()
        smaller = without_marks(diagram, [0, 1])
        assert smaller.containment is Containment.SECOND_INSIDE_FIRST
        assert smaller.size == 3
        assert smaller._ranks.membership(1) == (False, True)

    def test_rebased_diagram_moves_origin(self):
        _, _, _, diagram = lens_fixture()
        d2 = rebased(diagram, 2)
        assert constraint_point(d2, 1) == (F(0), F(0))
        assert d2.size == diagram.size
        placed = {m.crossing_id: (m.x, m.y) for m in marks(d2)}
        assert placed[0] == (F(1, 5), F(4, 5))

    def test_dump_mentions_marks(self):
        _, _, _, diagram = lens_fixture()
        art = diagram._ranks.dump(straight_path(diagram))
        assert "P" in art and "~" in art and "1" in art
