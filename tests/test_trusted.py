"""Objects the package builds without a check would pass the check.

A map, diagram, path or curve is checked once, where it enters. What the
package derives from a checked object by an operation that keeps the
invariant (an inverse, a rotation, a child diagram, a translate) is built by
the trusted constructor `exact_geom.trusted`, which skips `__init__` and its
checks. Each test takes what one trusted call site makes on seeded draws and
rebuilds it with the checked constructor: the rebuild must succeed and
compare equal, and a map must keep its `s_vals` and `wrap`.
"""
import random
from fractions import Fraction

import pytest

from fpindex.errors import (
    AlternationViolation,
    AssumptionViolated,
    InputRejection,
    OrderViolation,
)
from fpindex.exact_geom import PLLoop, pt
from fpindex.jordan import (
    CrossKind,
    CrossingSet,
    canonical_noncut_pair,
    check_transverse,
    validate_curve,
)
from fpindex.packing import translate_packing
from fpindex.plmap import PLCorrespondence, random_correspondence
from fpindex.prescribe import (
    _adjacent_pairs,
    _child,
    _events,
    prescribe,
)
from fpindex.torus import (
    Containment,
    StaircasePath,
    TorusDiagram,
    build_diagram,
    path_of_correspondence,
    realize_path,
)

from geomgen import (
    AffineMap,
    abstract_diagram,
    path_through_constraints,
    random_monotone_path,
    random_transverse_pair,
    square_curve,
    straight_path,
    synthesize_constraints,
    thread_path,
    transform_pair,
    walk_below,
    without_marks,
)
from packfix import one_piece_pair, two_piece_pair
from twins import rebuilt

F = Fraction


def checked(obj):
    """obj rebuilt from its fields by the checked constructor, which must
    accept it and give an equal object; a map keeps s_vals and wrap too."""
    again = rebuilt(obj)
    assert again == obj
    if isinstance(obj, PLCorrespondence):
        assert (again.s_vals, again.wrap) == (obj.s_vals, obj.wrap)
    return again


def random_maps(seed: int, count: int):
    sizes = random.Random(seed)
    for _ in range(count):
        yield random_correspondence(sizes, sizes.randrange(2, 13))


def geometric_diagrams(seed: int, count: int, min_crossings: int = 2):
    """(diagram, phi) on seeded star-polygon pairs, with three constraints
    on phi; then the crossing-free nested and disjoint squares."""
    rng = random.Random(seed)
    for _ in range(count):
        first, second, crossings = random_transverse_pair(
            rng, min_crossings=min_crossings, max_crossings=12)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        pairs = synthesize_constraints(crossings, phi, rng)
        yield build_diagram(first, second, crossings, pairs), phi
    outer = square_curve(0, 0, 8, 8)
    for inner in (square_curve(2, 2, 5, 5), square_curve(10, 1, 12, 3)):
        phi = random_correspondence(rng, 5)
        for first, second in ((outer, inner), (inner, outer)):
            crossings = check_transverse(first, second)
            pairs = synthesize_constraints(crossings, phi, rng)
            yield build_diagram(first, second, crossings, pairs), phi


def canonical_diagrams(ms):
    for m in ms:
        first, second = canonical_noncut_pair(m)
        crossings = check_transverse(first, second)
        rng = random.Random(m)
        phi = random_correspondence(rng, 6)
        pairs = synthesize_constraints(crossings, phi, rng)
        yield build_diagram(first, second, crossings, pairs), phi


class TestMaps:
    def test_inverse_is_the_checked_sorted_flip(self):
        for phi in random_maps(7100, 2000):
            inverse = checked(phi.invert())
            assert inverse.breakpoints == tuple(
                sorted((t, s) for s, t in phi.breakpoints))
            assert checked(inverse.invert()) == phi
            assert inverse.invert().wrap == phi.wrap

    def test_inverse_of_a_checked_map(self):
        # wrap read by the checked constructor, at every position
        for phi in random_maps(7101, 300):
            n = len(phi.breakpoints)
            for shift in range(n):
                pairs = [(s, phi.breakpoints[(k + shift) % n][1])
                         for k, (s, _) in enumerate(phi.breakpoints)]
                start = PLCorrespondence(tuple(pairs))
                checked(start.invert())
                assert start.invert().invert() == start

    def test_random_draws(self):
        for phi in random_maps(7102, 2000):
            checked(phi)

    def test_realized_paths(self):
        rng = random.Random(7103)
        for diagram, phi in geometric_diagrams(7104, 40):
            paths = [path_of_correspondence(diagram, phi),
                     prescribe(diagram)[0],
                     random_monotone_path(rng, rng.randrange(1, 6), 64),
                     path_through_constraints(rng, diagram, 96)]
            for path in paths:
                checked(realize_path(diagram, path))

    def test_realized_paths_on_abstract_diagrams(self):
        rng = random.Random(7105)
        for _ in range(200):
            path = random_monotone_path(rng, rng.randrange(1, 8), 50)
            realized = checked(realize_path(BARE, path))
            assert realized.breakpoints == path.points[:-1]

    @pytest.mark.parametrize("with_params", [True, False])
    def test_single_step_path_is_rejected(self, with_params):
        diagram = next(geometric_diagrams(7106, 1))[0] if with_params else BARE
        one_step = StaircasePath(((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(InputRejection, match="need at least two breakpoints"):
            realize_path(diagram, one_step)


BARE = abstract_diagram([("c", 1), ("c", 2), ("c", 3)],
                        [("c", 1), ("c", 2), ("c", 3)], {},
                        containment=Containment.DISJOINT)


def children(diagram):
    """The child level the pair rule derives for each doubly adjacent pair,
    and so on down from the first child at each level, as prescribe's first
    attempt descends."""
    level = diagram._ranks
    scale, events = _events(level)
    while len(level.ids) >= 4:
        try:
            pairs = _adjacent_pairs(level)
        except AssumptionViolated:
            return
        kids = [_child(level, scale, events, e, x) for e, x, _ in pairs]
        yield from (kid for kid, _, _ in kids)
        level, scale, events = kids[0]


def checked_level(level):
    """A level the solver derived without a check, rebuilt as a diagram by
    the checked constructor, which must accept it and read the same ranks,
    kinds and forced sets."""
    n = level.size
    cols, rows = [None] * n, [None] * n
    for i, (c, r) in enumerate(level.constraints, 1):
        cols[c] = rows[r] = ("c", i)
    for c, r, k in zip(level.cols, level.rows, level.ids):
        cols[c] = rows[r] = ("m", k)
    kinds = tuple([(k, CrossKind.P if k in level.p_ids else CrossKind.PTILDE)
                   for k in level.ids])
    again = TorusDiagram(tuple(cols), tuple(rows), kinds,
                         level.containment)._ranks
    fields = ("size", "constraints", "cols", "rows", "ids", "p_ids",
              "forced", "containment")
    assert [getattr(again, f) for f in fields] == \
        [getattr(level, f) for f in fields]


class TestDiagrams:
    def test_built_diagrams(self):
        for diagram, _ in geometric_diagrams(7200, 60):
            checked(diagram)
        for diagram, _ in canonical_diagrams(range(1, 21)):
            checked(diagram)

    def test_children_without_a_pair(self):
        count = 0
        for diagram, _ in geometric_diagrams(7201, 30, min_crossings=4):
            for child in children(diagram):
                checked_level(child)
                count += 1
        for diagram, _ in canonical_diagrams(range(2, 9)):
            for child in children(diagram):
                assert len(child.ids) < len(diagram.kinds)
                checked_level(child)
                count += 1
        assert count > 100


    @pytest.mark.parametrize("drop, reason", [
        ((0,), "odd crossing count"),
        ((0, 1, 2), "odd crossing count"),
        ((0, 2), "crossing kinds fail to alternate"),
    ])
    def test_children_keep_the_alternation_checks(self, drop, reason):
        # marks 0 and 2 have the same kind; dropping both leaves 1 next to 3
        diagram, _ = next(canonical_diagrams([2]))
        with pytest.raises(AlternationViolation, match=reason):
            without_marks(diagram, drop)


class TestCrossingSets:
    def test_check_transverse_sets(self):
        # built trusted after the integer pass: the checked constructor
        # accepts each set, with the same second-curve order
        rng = random.Random(7450)
        pairs = [canonical_noncut_pair(m) for m in range(1, 21)]
        pairs += [random_transverse_pair(rng)[:2] for _ in range(40)]
        pairs.append((square_curve(0, 0, 1, 1), square_curve(5, 5, 6, 6)))
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                crossings = check_transverse(first, second)
                again = checked(crossings)
                assert again.by_param_kt() == crossings.by_param_kt()


class TestHandBuiltCrossings:
    """`build_diagram` trusts its `CrossingSet`, so a set that breaks what
    it relies on is rejected where it is made. A repeated parameter or id
    raises the class and message that the checked `TorusDiagram` raised."""

    @pytest.mark.parametrize("change, error, message", [
        (lambda c0, c1: rebuilt(c1, param_k=c0.param_k),
         OrderViolation, "true parameters out of cyclic order"),
        (lambda c0, c1: rebuilt(c1, param_kt=c0.param_kt),
         OrderViolation, "true parameters out of cyclic order"),
        (lambda c0, c1: rebuilt(c1, index=c0.index),
         InputRejection, "duplicate tokens"),
        (lambda c0, c1: rebuilt(c1, param_k=c1.param_k + 1),
         InputRejection, r"crossing parameters must lie in \[0, 1\)"),
        (lambda c0, c1: rebuilt(c1, param_kt=c1.param_kt - 1),
         InputRejection, r"crossing parameters must lie in \[0, 1\)"),
    ], ids=["repeated_param_k", "repeated_param_kt", "repeated_id",
            "param_k_above_range", "param_kt_below_range"])
    def test_rejected_on_the_way_to_build_diagram(self, change, error, message):
        first, second = square_curve(0, 0, 4, 4), square_curve(2, 1, 6, 3)
        c0, c1 = check_transverse(first, second)
        pairs = synthesize_constraints(
            CrossingSet((c0, c1)), random_correspondence(random.Random(5), 5),
            random.Random(5))
        with pytest.raises(error, match=message) as caught:
            build_diagram(first, second, CrossingSet((c0, change(c0, c1))),
                          pairs)
        assert caught.type is error


class TestPaths:
    def test_straight_and_correspondence_paths(self):
        for diagram, phi in [*geometric_diagrams(7300, 60),
                             *canonical_diagrams(range(1, 21))]:
            checked(straight_path(diagram))
            checked(path_of_correspondence(diagram, phi))

    def test_threaded_paths(self):
        rng = random.Random(7301)
        for diagram, _ in geometric_diagrams(7302, 30):
            ids = diagram._ranks.ids
            for _ in range(16):
                below = frozenset(c for c in ids if rng.randrange(2))
                if walk_below(diagram, below) is not None:
                    checked(thread_path(diagram, below))
            checked(prescribe(diagram)[0])


class TestCurves:
    def test_translated_packings(self):
        rng = random.Random(7400)
        for spec in [*one_piece_pair()[:2], *two_piece_pair()[:2]]:
            for _ in range(10):
                shift = pt(F(rng.randrange(-99, 100), rng.randrange(1, 9)),
                           F(rng.randrange(-99, 100), rng.randrange(1, 9)))
                moved = translate_packing(spec, shift)
                for curve in (moved.rect.curve, *moved.pieces):
                    checked(curve)

    def test_canonical_pairs_from_integers(self):
        # built trusted on seeded rows: the checked constructor accepts
        # each curve, and the seeded rows and cached keys are the ones the
        # vertices give
        for m in range(1, 65):
            for curve in canonical_noncut_pair(m):
                assert validate_curve(curve.vertices) == curve
                loop = curve.loop
                assert loop.rows == PLLoop(loop.vertices).rows
                assert loop.edge_keys == PLLoop(loop.vertices).edge_keys

    def test_affine_images(self):
        rng = random.Random(7401)
        done = 0
        while done < 40:
            first, second, _ = random_transverse_pair(rng)
            mapping = AffineMap(
                a=F(rng.randrange(-4, 5), rng.randrange(1, 4)),
                b=F(rng.randrange(-4, 5), rng.randrange(1, 4)),
                c=F(rng.randrange(-4, 5), rng.randrange(1, 4)),
                d=F(rng.randrange(-4, 5), rng.randrange(1, 4)),
                e=F(rng.randrange(-9, 10)), f=F(rng.randrange(-9, 10)))
            if mapping.determinant() <= 0:
                continue
            phi = random_correspondence(rng, 4)
            new_first, new_second, _ = transform_pair(first, second, phi,
                                                      mapping)
            checked(new_first)
            checked(new_second)
            done += 1
