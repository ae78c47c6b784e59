"""Write what the index, torus and prescription kernels answer on seeded inputs.

    python scripts/kernel_dump.py OUTDIR [--seed N]

For seeded random transverse pairs (`tests/geomgen.py`) and the canonical
non-cutting pairs, each with a seeded map and three constraints through it,
the dump records: `fixed_point_index` of the map and the source parameters
of its bends (`_bend_walk`), `path_of_correspondence`, the breakpoints
`realize_path` gives for the correspondence, straight, prescribed and
random monotone paths (some of them through constraints 2 and 3) with the
index of each realized map,
`index_from_torus(check_all_bases=True)` on those paths, `prescribe`'s path
and trace, and `oracle_enumerate`'s set, alone and, from
`tests/geomgen.py`'s `oracle_with_anchors`, with one and with two extra
prescribed pairs on the map at source parameters with odd denominators,
which put the extra anchors off the token grid.
Every error is written as its class and message. A third file records
`glue` on seeded pairs of grid rectangles and polygons, each curve its own
target under the identity map, and on the square fixtures of the gluing
acceptance test: the glued source and target vertices and breakpoints, or
the error class alone. A fourth file, `circle.txt`, records the index
forward and on the inverse map for seeded maps on seeded 64-gon circle
pairs in four positions (disjoint, nested, two crossings, general), whose
coordinates carry denominators near 10^12. A fifth file, `packing.txt`,
records `assemble_theorem_certificate` on the three pairs of
`tests/packfix.py` and seeded translates of each: the certificate (frame,
piece and interstice indices and interstice triples) and every map the
certificate passes to `fixed_point_index`, with its index, then
`validate_packing`'s verdict on seeded mutations of the six packings of
those pairs (a piece moved, a vertex moved, a piece dropped or duplicated,
or a small triangle added): the sorted edges and triangles of the contact
graph, or the error class and reason, which pins the order in which the
packing rules fire. A sixth file,
`rotated.txt`, records the crossing set and second-curve order of each
canonical pair and of its quarter turn: the tall pairs and the wide ones
sweep their boxes along different axes, so both sweeps are covered. A
seventh file, `predicates.txt`, records the exact predicates on seeded star
polygons, lattice polygons and near-degenerate variants of them (a vertex
moved onto another edge, 10^-9 off it, onto its neighbours' line or back
past a neighbour): each `validate_curve` outcome, `signed_area`,
`locate_param` on vertices, edge midpoints and off-curve points,
`winding_number` around those points, and `check_transverse` on pairs of
them and on tiny translates, whose crossings carry their points. The
script loads `fpindex` from this checkout's `src/`, so the dumps of two checkouts
are identical exactly when `diff -r OUT_A OUT_B` prints nothing.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fpindex import packing  # noqa: E402
from fpindex.errors import FpIndexError  # noqa: E402
from fpindex.exact_geom import signed_area, winding_number  # noqa: E402
from fpindex.jordan import (  # noqa: E402
    canonical_noncut_pair,
    check_transverse,
    validate_curve,
)
from fpindex.plmap import (  # noqa: E402
    _bend_walk,
    fixed_point_index,
    glue,
    random_correspondence,
)
from fpindex.exact_geom import RatPoint  # noqa: E402
from fpindex.prescribe import oracle_enumerate, prescribe  # noqa: E402
from fpindex.torus import (  # noqa: E402
    StaircasePath,
    build_diagram,
    index_from_torus,
    path_of_correspondence,
    realize_path,
)

from geomgen import (  # noqa: E402
    AffineMap,
    circle_pools,
    glued_square_fixture,
    grid_curve,
    identity_params,
    oracle_with_anchors,
    path_through_constraints,
    random_monotone_path,
    star_polygon,
    random_transverse_pair,
    straight_path,
    synthesize_constraints,
    transform_pair,
)
from packfix import (  # noqa: E402
    bent_one_piece_pair,
    one_piece_pair,
    sorted_edges,
    sorted_triangles,
    two_piece_pair,
)

RANDOM_PAIRS = 150
CANONICAL_SIZES = range(1, 17)
ORACLE_MAX_MARKS = 10
GLUE_GRID_PAIRS = 1000
GLUE_SQUARE_FIXTURES = 100
CIRCLE_PAIRS_PER_CLASS = 2
CIRCLE_MAPS = 25
PACKING_TRANSLATES = 3
PACKING_MUTATIONS = 2400
PREDICATE_POLYGONS = 30


def fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, StaircasePath):
        return fmt(value.points)
    if isinstance(value, (tuple, list)):
        return "(" + " ".join(fmt(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + " ".join(fmt(v) for v in sorted(value)) + "}"
    return repr(value)


def outcome(fn, *args, **kwargs):
    try:
        return fmt(fn(*args, **kwargs))
    except (FpIndexError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def dump_case(out: list[str], rng: random.Random, xrng: random.Random,
              first, second, crossings) -> None:
    """One case; `xrng` draws the extra pairs, so that the other lines do
    not depend on them."""
    phi = random_correspondence(rng, rng.randrange(3, 9))
    out.append(f"phi {fmt(phi.breakpoints)}")
    out.append(f"index {outcome(fixed_point_index, first, second, phi)}")
    out.append("refined " + fmt([Fraction(s, g) for s, _, g, _, _ in
                                 _bend_walk(len(first), len(second), phi)]))
    diagram = build_diagram(first, second, crossings,
                            synthesize_constraints(crossings, phi, rng))
    paths = {"straight": straight_path(diagram)}
    paths["correspondence"] = path_of_correspondence(diagram, phi)
    out.append(f"correspondence_path {fmt(paths['correspondence'])}")
    try:
        paths["prescribed"], trace = prescribe(diagram)
        out.append(f"prescribe {fmt(paths['prescribed'])}")
        out.extend(f"  {level!r}" for level in trace.levels)
    except FpIndexError as err:
        out.append(f"prescribe {type(err).__name__}: {err}")
    n = diagram.size
    paths["monotone_211"] = random_monotone_path(rng, rng.randrange(1, 9), 211)
    paths["monotone_2n"] = random_monotone_path(rng, rng.randrange(1, n), 2 * n)
    paths["through_4n"] = path_through_constraints(rng, diagram, 4 * n)
    for name, path in paths.items():
        eta = outcome(index_from_torus, diagram, path, check_all_bases=True)
        out.append(f"torus {name} {eta}")
        realized = realize_path(diagram, path)
        out.append(f"realize {name} {fmt(realized.breakpoints)}")
        out.append(f"realized_index {name} "
                   f"{outcome(fixed_point_index, first, second, realized)}")
    if len(crossings) <= ORACLE_MAX_MARKS:
        out.append(f"oracle {outcome(oracle_enumerate, diagram)}")
        for count in (1, 2):
            extra = [(s, phi.evaluate(s)) for s in
                     sorted(Fraction(xrng.randrange(1, q), q) for q in
                            (xrng.randrange(3, 200, 2) for _ in range(count)))]
            out.append(f"oracle_extra {fmt(extra)} "
                       f"{outcome(oracle_with_anchors, diagram, extra)}")


def random_dump(seed: int) -> list[str]:
    rng = random.Random(f"kernel-dump:{seed}")
    xrng = random.Random(f"kernel-dump-extra:{seed}")
    out: list[str] = []
    for k in range(RANDOM_PAIRS):
        first, second, crossings = random_transverse_pair(rng)
        out.append(f"# random {k}: {len(crossings)} crossings")
        dump_case(out, rng, xrng, first, second, crossings)
    return out


def canonical_dump(seed: int) -> list[str]:
    rng = random.Random(f"kernel-dump-canonical:{seed}")
    xrng = random.Random(f"kernel-dump-canonical-extra:{seed}")
    out: list[str] = []
    for m in CANONICAL_SIZES:
        first, second = canonical_noncut_pair(m)
        out.append(f"# canonical {m}")
        dump_case(out, rng, xrng, first, second,
                  check_transverse(first, second))
    return out


def glue_outcome(*args) -> str:
    try:
        glued = glue(*args)
    except FpIndexError as err:
        return type(err).__name__

    def points(curve) -> str:
        return " ".join(f"{p.x},{p.y}" for p in curve.vertices)

    return (f"source {points(glued.source)} target {points(glued.target)} "
            f"phi {fmt(glued.phi.breakpoints)}")


def glue_dump(seed: int) -> list[str]:
    rng = random.Random(f"kernel-dump-glue:{seed}")
    out: list[str] = []
    for k in range(GLUE_GRID_PAIRS):
        a, b = grid_curve(rng), grid_curve(rng)
        phi_a, phi_b = identity_params(len(a)), identity_params(len(b))
        out.append(f"grid {k} {glue_outcome(a, a, phi_a, b, b, phi_b)}")
    for k in range(GLUE_SQUARE_FIXTURES):
        out.append(f"squares {k} {glue_outcome(*glued_square_fixture(rng))}")
    return out


def circle_dump(seed: int) -> list[str]:
    rng = random.Random(f"kernel-dump-circle:{seed}")
    out: list[str] = []
    for cls, pairs in circle_pools(rng, CIRCLE_PAIRS_PER_CLASS).items():
        for k, (first, second) in enumerate(pairs):
            out.append(f"# circle {cls} {k}")
            for _ in range(CIRCLE_MAPS):
                phi = random_correspondence(rng, rng.randrange(3, 10))
                out.append(f"phi {fmt(phi.breakpoints)}")
                out.append(f"index {outcome(fixed_point_index, first, second, phi)}")
                out.append("inverse "
                           f"{outcome(fixed_point_index, second, first, phi.invert())}")
    return out


def packing_dump(seed: int) -> list[str]:
    rng = random.Random(f"kernel-dump-packing:{seed}")
    out: list[str] = []
    calls: list[str] = []
    index = packing.fixed_point_index

    def recorded(source, target, phi):
        calls.append(f"map {outcome(index, source, target, phi)} "
                     f"{fmt(phi.breakpoints)}")
        return index(source, target, phi)

    packing.fixed_point_index = recorded
    try:
        for name, make in (("one_piece_pair", one_piece_pair),
                           ("two_piece_pair", two_piece_pair),
                           ("bent_one_piece_pair", bent_one_piece_pair)):
            first, second, corr = make()
            shifts = [RatPoint(Fraction(0), Fraction(0))]
            shifts += [RatPoint(Fraction(rng.randrange(-99, 100),
                                         rng.randrange(1, 12)),
                                Fraction(rng.randrange(-99, 100),
                                         rng.randrange(1, 12)))
                       for _ in range(PACKING_TRANSLATES)]
            for shift in shifts:
                out.append(f"# {name} shift {shift.x},{shift.y}")
                calls.clear()
                try:
                    cert = packing.assemble_theorem_certificate(
                        packing.translate_packing(first, shift),
                        packing.translate_packing(second, shift), corr)
                    out.append(
                        f"certificate rect {cert.rect_index} "
                        f"pieces {fmt(cert.piece_indices)} "
                        f"interstices {fmt(cert.interstice_indices)} "
                        f"triples {fmt(cert.interstice_triples)}")
                except FpIndexError as err:
                    out.append(f"certificate {type(err).__name__}: {err}")
                out.extend(calls)
    finally:
        packing.fixed_point_index = index
    out.extend(mutation_dump(seed))
    return out


def mutated_packing(rng: random.Random, spec: packing.PackingSpec,
                    ) -> tuple[str, list, list[list]]:
    """A seeded mutation of a packing, as its description and the frame's
    and pieces' vertex lists. A vertex moves, and a triangle is anchored,
    onto another vertex of the packing or a small step from one, so that
    contacts are made and broken."""
    frame = list(spec.rect.curve.vertices)
    pieces = [list(piece.vertices) for piece in spec.pieces]
    points = frame + [p for piece in pieces for p in piece]

    def step() -> RatPoint:
        return RatPoint(Fraction(rng.randrange(-4, 5), rng.choice((4, 8))),
                        Fraction(rng.randrange(-4, 5), rng.choice((4, 8))))

    kind = rng.choice(("move piece", "move vertex", "drop", "duplicate",
                       "triangle"))
    i = rng.randrange(len(pieces))
    if kind == "move piece":
        shift = step()
        pieces[i] = [p + shift for p in pieces[i]]
        what = f"move piece {i} by {shift.x},{shift.y}"
    elif kind == "move vertex":
        host = frame if rng.random() < 0.25 else pieces[i]
        t = rng.randrange(len(host))
        host[t] = rng.choice(points) if rng.random() < 0.5 else host[t] + step()
        name = "frame" if host is frame else f"piece {i}"
        what = f"move vertex {t} of {name} to {host[t].x},{host[t].y}"
    elif kind == "drop":
        del pieces[i]
        what = f"drop piece {i}"
    elif kind == "duplicate":
        pieces.append(list(pieces[i]))
        what = f"duplicate piece {i}"
    else:
        anchor = rng.choice(points)
        if rng.random() < 0.5:
            anchor += step()
        tri = [anchor, anchor + step(), anchor + step()]
        (ux, uy), (vx, vy) = ((p.x - anchor.x, p.y - anchor.y)
                              for p in tri[1:])
        if ux * vy < uy * vx:  # clockwise
            tri[1], tri[2] = tri[2], tri[1]
        pieces.append(tri)
        what = f"add triangle {fmt([(p.x, p.y) for p in tri])}"
    return what, frame, pieces


def packing_verdict(spec: packing.PackingSpec, frame: list,
                    pieces: list[list]) -> str:
    try:
        rect = packing.TopoRectangle(validate_curve(frame), spec.rect.corners)
        _, graph = packing.validate_packing(packing.PackingSpec(
            rect, tuple([validate_curve(p) for p in pieces])))
    except (FpIndexError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return (f"edges {fmt(sorted_edges(graph))} "
            f"triangles {fmt(sorted_triangles(graph))}")


def mutation_dump(seed: int) -> list[str]:
    """validate_packing on seeded mutations of the fixture packings."""
    rng = random.Random(f"kernel-dump-packing-mutations:{seed}")
    specs = [(f"{name} {side}", spec) for name, make in (
                 ("one_piece_pair", one_piece_pair),
                 ("two_piece_pair", two_piece_pair),
                 ("bent_one_piece_pair", bent_one_piece_pair))
             for side, spec in zip("ab", make()[:2])]
    out = []
    for k in range(PACKING_MUTATIONS):
        name, spec = rng.choice(specs)
        what, frame, pieces = mutated_packing(rng, spec)
        out.append(f"mutation {k} {name} {what}: "
                   f"{packing_verdict(spec, frame, pieces)}")
    return out


def rotated_dump(seed: int) -> list[str]:
    """Crossing sets of the canonical pairs and their quarter turns, which
    draw nothing from the seed."""
    quarter_turn = AffineMap(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
    out: list[str] = []
    for m in CANONICAL_SIZES:
        pair = canonical_noncut_pair(m)
        for name, (first, second) in (
                ("canonical", pair),
                ("quarter_turn",
                 transform_pair(*pair, identity_params(4), quarter_turn)[:2])):
            out.append(f"# {name} {m}")
            try:
                crossings = check_transverse(first, second)
            except FpIndexError as err:
                out.append(f"crossings {type(err).__name__}: {err}")
                continue
            out.append(f"crossings {fmt(crossings)}")
            out.append("second_curve_order "
                       f"{fmt([c.index for c in crossings.by_param_kt()])}")
    return out


def near_degenerate(rng: random.Random, vertices: list) -> list[list]:
    """Variants of a polygon with one vertex k moved: onto the midpoint of
    another edge, 10^-9 off it either way, onto the line of its two
    neighbours, and past its next neighbour along the edge into it."""
    n = len(vertices)
    k = rng.randrange(n)
    before, after = vertices[k - 1], vertices[(k + 1) % n]
    e = (k + 1 + rng.randrange(1, n - 1)) % n  # an edge not starting at k + 1
    mid = (vertices[e] + vertices[(e + 1) % n]).scale(Fraction(1, 2))
    tiny = RatPoint(Fraction(1, 10**9), Fraction(-1, 10**9))
    moved = [mid, mid + tiny, mid - tiny,
             (before + after).scale(Fraction(1, 2)),
             after + (after - vertices[k]).scale(Fraction(1, 3))]
    return [vertices[:k] + [p] + vertices[k + 1:] for p in moved]


def predicates_dump(seed: int) -> list[str]:
    rng = random.Random(f"kernel-dump-predicates:{seed}")
    out: list[str] = []
    polygons = []
    for k in range(PREDICATE_POLYGONS):
        star = star_polygon(rng, rng.randrange(3, 13),
                            RatPoint(Fraction(rng.randrange(-9, 10), 7),
                                     Fraction(rng.randrange(-9, 10), 5)),
                            Fraction(1), Fraction(4))
        lattice = grid_curve(rng)
        for name, vs in (("star", list(star.vertices)),
                         ("lattice", list(lattice.vertices))):
            polygons.append((f"{name} {k}", vs))
            polygons += [(f"{name} {k} moved {v}", moved) for v, moved
                         in enumerate(near_degenerate(rng, vs))]
    curves = []
    for name, vs in polygons:
        out.append(f"# {name}: {fmt([(p.x, p.y) for p in vs])}")
        try:
            curve = validate_curve(vs)
        except (FpIndexError, ValueError) as err:
            out.append(f"validate {type(err).__name__}: {err}")
            continue
        out.append("validate ok")
        curves.append(curve)
        out.append(f"area {fmt(signed_area(curve.loop))}")
        n = len(vs)
        mids = [(vs[i] + vs[(i + 1) % n]).scale(Fraction(1, 2))
                for i in range(n)]
        off = RatPoint(Fraction(1, 10**9), Fraction(1, 3 * 10**9))
        probes = vs + mids + [p + off for p in mids] + [
            sum(vs[1:], vs[0]).scale(Fraction(1, n))]
        out.append("locate " + fmt([curve.locate_param(p) for p in probes]))
        out.append("winding " + " ".join(
            outcome(winding_number, curve.loop, p) for p in probes))
    shift = RatPoint(Fraction(1, 10**12), Fraction(-1, 7 * 10**11))
    for k, first in enumerate(curves):
        second = curves[(k + 1) % len(curves)]
        moved = validate_curve([p + shift for p in first.vertices])
        for name, other in (("next", second), ("tiny_shift", moved),
                            ("self", first)):
            out.append(f"# pair {k} {name}")
            out.append(f"crossings {outcome(check_transverse, first, other)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, build in (("random", random_dump), ("canonical", canonical_dump),
                        ("glue", glue_dump), ("circle", circle_dump),
                        ("packing", packing_dump), ("rotated", rotated_dump),
                        ("predicates", predicates_dump)):
        path = args.outdir / f"{name}.txt"
        path.write_text("\n".join(build(args.seed)) + "\n", encoding="utf-8")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
