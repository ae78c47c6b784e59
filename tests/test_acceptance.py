"""End-to-end acceptance gate, one test per shipped guarantee.

Each test is a single pass or fail verdict: the shipped figure fixtures, the
circle index laws, additivity under gluing, the torus reading of the index,
the index window on non-cutting pairs, three-point prescription with an
exhaustive cross-check, the four-constraint obstruction, uniqueness of the
non-cutting crossing pattern, the packing incompatibility kernel, and affine
invariance.
"""
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from fpindex.errors import HasFixedPoint
from fpindex.jordan import (
    CrossKind,
    PolyJordanCurve,
    canonical_noncut_pair,
    check_transverse,
)
from fpindex.packing import assemble_theorem_certificate, find_cutting_pair
from fpindex.plmap import (
    PLCorrespondence,
    fixed_point_index,
    glue,
    random_correspondence,
)
from fpindex.prescribe import oracle_enumerate, prescribe
from fpindex.serialize import load_curve, load_json_file, load_map
from fpindex.torus import (
    build_diagram,
    index_from_torus,
    path_of_correspondence,
    realize_path,
)

from geomgen import (
    AffineMap,
    circle_pools,
    constraint_point,
    glued_square_fixture,
    local_winding,
    membership_matches_geometry,
    random_transverse_pair,
    square_curve,
    synthesize_constraints,
    transform_pair,
)
from meander_oracle import crossing_word, enumerate_noncut_words
from packfix import one_piece_pair, two_piece_pair

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"
REPORTS = Path(__file__).parents[1] / "reports"


def _load(name: str):
    return load_json_file(str(FIXTURES / name))


def _indexable_map(rng: random.Random, first: PolyJordanCurve,
                   second: PolyJordanCurve,
                   breakpoints: range = range(3, 10),
                   ) -> tuple[PLCorrespondence, int]:
    while True:
        phi = random_correspondence(rng, rng.randrange(breakpoints.start,
                                                       breakpoints.stop))
        try:
            return phi, fixed_point_index(first, second, phi)
        except HasFixedPoint:
            continue


# -- affine fixtures ---------------------------------------------------------

def _random_affine(rng: random.Random) -> AffineMap:
    """Composite of rotations, positive scalings, and shears, plus a shift."""
    a, b, c, d = F(1), F(0), F(0), F(1)
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            t = F(rng.randrange(-40, 41), 29)
            den = 1 + t * t
            cos, sin = (1 - t * t) / den, 2 * t / den
            fa, fb, fc, fd = cos, -sin, sin, cos
        elif kind == 1:
            fa, fd = F(rng.randrange(1, 13), 4), F(rng.randrange(1, 13), 4)
            fb = fc = F(0)
        elif rng.randrange(2):
            fa, fb, fc, fd = F(1), F(rng.randrange(-8, 9), 4), F(0), F(1)
        else:
            fa, fb, fc, fd = F(1), F(0), F(rng.randrange(-8, 9), 4), F(1)
        a, b, c, d = (fa * a + fb * c, fa * b + fb * d,
                      fc * a + fd * c, fc * b + fd * d)
    mapping = AffineMap(a, b, c, d,
                        F(rng.randrange(-40, 41), 8),
                        F(rng.randrange(-40, 41), 8))
    assert mapping.determinant() > 0
    return mapping


# -- the gate ----------------------------------------------------------------

def test_c01_figure_fixtures_reproduce_exact_indices():
    t0 = time.monotonic()
    corner_map = load_map(_load("identity_corner_map.json"))
    far = (load_curve(_load("fig_disjoint_first.json")),
           load_curve(_load("fig_disjoint_second.json")))
    mixed = (load_curve(_load("fig_interleaved_first.json")),
             load_curve(_load("fig_interleaved_second.json")))
    assert fixed_point_index(*far, corner_map) == 0
    assert fixed_point_index(*mixed, corner_map) == -1
    assert time.monotonic() - t0 < 1.0


def test_c02_circle_index_laws_hold_on_1000_maps():
    t0 = time.monotonic()
    rng = random.Random(20260802)
    pools = circle_pools(rng, per_class=5)
    classes = ("disjoint", "nested", "two_cross", "general")
    trials = 0
    for i in range(1000):
        cls = classes[i % 4]
        first, second = pools[cls][(i // 4) % 5]
        phi, eta = _indexable_map(rng, first, second)
        assert fixed_point_index(second, first, phi.invert()) == eta
        if cls == "disjoint":
            assert eta == 0
        elif cls == "nested":
            assert eta == 1
        else:
            assert eta >= 0
        trials += 1
    assert trials == 1000
    assert time.monotonic() - t0 < 30.0


def test_c03_index_adds_under_gluing_on_100_fixtures():
    rng = random.Random(20260803)
    done = 0
    while done < 100:
        sa, ta, phi_a, sb, tb, phi_b = glued_square_fixture(rng)
        try:
            eta_a = fixed_point_index(sa, ta, phi_a)
            eta_b = fixed_point_index(sb, tb, phi_b)
            joined = glue(sa, ta, phi_a, sb, tb, phi_b)
            eta = fixed_point_index(joined.source, joined.target, joined.phi)
        except HasFixedPoint:
            continue
        assert eta == eta_a + eta_b
        done += 1


def test_c04_torus_reading_matches_geometry_on_1000_instances():
    rng = random.Random(20260804)
    instances = 0
    for _ in range(125):
        first, second, crossings = random_transverse_pair(
            rng, min_crossings=2, max_crossings=10)
        windings_checked = False
        for _ in range(8):
            phi, _ = _indexable_map(rng, first, second, range(3, 9))
            pairs = synthesize_constraints(crossings, phi, rng)
            diagram = build_diagram(first, second, crossings, pairs)
            path = path_of_correspondence(diagram, phi)
            eta = index_from_torus(diagram, path, check_all_bases=True)
            assert membership_matches_geometry(diagram, first, second)
            realized = realize_path(diagram, path)
            assert fixed_point_index(first, second, realized) == eta
            if not windings_checked:
                for crossing in crossings:
                    want = 1 if crossing.kind is CrossKind.P else -1
                    assert local_winding(diagram, first, second,
                                         crossing) == want
                windings_checked = True
            instances += 1
    assert instances == 1000


def test_c05_noncut_pairs_keep_index_between_0_and_2():
    rng = random.Random(20260805)
    witnessed: dict[int, list[int]] = {}
    for m in range(1, 7):
        first, second = canonical_noncut_pair(m)
        seen: set[int] = set()
        done = 0
        while done < 200:
            phi = random_correspondence(rng, rng.randrange(3, 10))
            try:
                eta = fixed_point_index(first, second, phi)
            except HasFixedPoint:
                continue
            assert 0 <= eta <= 2
            seen.add(eta)
            done += 1
        witnessed[2 * m] = sorted(seen)
    report = {str(k): v for k, v in witnessed.items()}
    print("index values witnessed by crossing count:", report)
    assert all(set(v) <= {0, 1, 2} for v in witnessed.values())
    recorded = json.loads(
        (REPORTS / "noncut_index_witnesses.json").read_text())
    assert report == recorded


def test_c06_prescription_succeeds_on_500_random_pairs():
    t0 = time.monotonic()
    rng = random.Random(20260806)
    oracled = 0
    for _ in range(500):
        first, second, crossings = random_transverse_pair(
            rng, min_crossings=4, max_crossings=12)
        phi = random_correspondence(rng, rng.randrange(4, 9))
        pairs = synthesize_constraints(crossings, phi, rng)
        diagram = build_diagram(first, second, crossings, pairs)
        path, trace = prescribe(diagram)
        assert trace.index >= 0
        for i in (2, 3):
            x, y = constraint_point(diagram, i)
            assert path.y_at(x) == y
        realized = realize_path(diagram, path)
        assert fixed_point_index(first, second, realized) == trace.index
        if len(crossings) <= 8:
            achievable = oracle_enumerate(diagram)
            assert trace.index in achievable
            assert max(achievable) >= 0
            oracled += 1
    assert oracled > 0
    assert time.monotonic() - t0 < 300.0


def test_c07_fourth_constraint_forces_negative_index():
    first = square_curve(0, -1, 3, 4)
    second = square_curve(-1, 0, 4, 3)
    crossings = check_transverse(first, second)
    assert len(crossings) == 4
    constraints = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))]
    diagram = build_diagram(first, second, crossings, constraints)
    three = oracle_enumerate(diagram)
    four = oracle_enumerate(diagram, extra_pairs=[(F(3, 4), F(3, 4))])
    assert four <= three
    assert four
    assert -1 in four
    assert max(four) < 0


def test_c08_noncut_crossing_pattern_is_unique_per_count():
    for m in (1, 2, 3, 4):
        words = enumerate_noncut_words(m)
        assert len(words) == 1
        first, second = canonical_noncut_pair(m)
        assert crossing_word(check_transverse(first, second)) in words


def test_c09_packing_certificates_on_both_fixtures():
    for fixture in (one_piece_pair, two_piece_pair):
        first, second, corr = fixture()
        cutting = find_cutting_pair(first, second, corr)
        assert isinstance(cutting, int)
        cert = assemble_theorem_certificate(first, second, corr)
        assert cert.cutting_index == cutting
        assert cert.piece_indices[cutting] < 0
        assert cert.rect_index == (sum(cert.piece_indices)
                                   + sum(cert.interstice_indices))
        assert all(v >= 0 for v in cert.interstice_indices)


def test_c10_index_is_affine_invariant_on_500_triples():
    rng = random.Random(20260810)
    pool = [random_transverse_pair(rng)[:2] for _ in range(20)]
    done = 0
    while done < 500:
        first, second = pool[done % len(pool)]
        phi, eta = _indexable_map(rng, first, second)
        mapping = _random_affine(rng)
        moved = transform_pair(first, second, phi, mapping)
        assert fixed_point_index(*moved) == eta
        done += 1
