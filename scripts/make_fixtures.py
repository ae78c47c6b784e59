"""Regenerate the JSON fixtures under tests/fixtures, or under OUTDIR.

    python scripts/make_fixtures.py [OUTDIR]

Everything is deterministic: fixed coordinates for the hand-built figures and
a fixed seed for the twelve-crossing pair.  The golden prescribe report is
frozen by running the CLI pipeline on the generated inputs; rerunning this
script must reproduce every file byte for byte, which
`python scripts/make_fixtures.py /tmp/fx && diff -r /tmp/fx tests/fixtures`
checks without rewriting the tree.
"""
from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from fpindex.exact_geom import PLLoop, RatPoint, pt
from fpindex.jordan import check_transverse, validate_curve
from fpindex.packing import PackingSpec, TopoRectangle
from fpindex.plmap import random_correspondence
from fpindex.serialize import dump_curve, dump_map, dump_packing

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

F = Fraction


def square(x0, y0, x1, y1):
    return validate_curve([pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)])


def curve(*vs):
    return validate_curve([pt(x, y) for x, y in vs])


def write(out: Path, name: str, payload: dict | list) -> None:
    path = out / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print("wrote", path.name)


def identity_corners() -> dict:
    return {"breakpoints": [[0, 1, 0, 1], [1, 4, 1, 4],
                            [1, 2, 1, 2], [3, 4, 3, 4]]}


def corner_constraints() -> dict:
    return {"constraints": [[0, 1, 0, 1], [1, 4, 1, 4], [1, 2, 1, 2]]}


def star_polygon(rng: random.Random, n: int, center: RatPoint,
                 rmin: int, rmax: int) -> PLLoop:
    # stratified tangent-half-angle directions keep the radial polygon simple
    us = [(i + F(rng.randrange(5, 96), 100)) / n for i in range(n)]
    ts = [F(math.tan(math.pi * (float(u) - 0.5))).limit_denominator(10**6)
          for u in us]
    vertices = []
    for t in ts:
        r = F(rng.randrange(rmin * 64, rmax * 64 + 1), 64)
        den = 1 + t * t
        d = RatPoint((1 - t * t) / den, 2 * t / den)
        vertices.append(center + d.scale(r))
    return PLLoop(tuple(vertices))


def twelve_crossing_pair(seed: int):
    rng = random.Random(seed)
    while True:
        try:
            first = validate_curve(star_polygon(rng, 9, pt(0, 0), 2, 5))
            second = validate_curve(star_polygon(rng, 9, pt(1, -1), 2, 5))
            crossings = check_transverse(first, second)
        except Exception:
            continue
        if len(crossings) == 12:
            return first, second, crossings, rng


def packing_fixtures(out: Path) -> None:
    rect_a = TopoRectangle(
        curve((0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)),
        (0, 2, 4, 6))
    one_a = PackingSpec(rect_a, (curve((2, 0), (4, 2), (2, 4), (0, 2)),))
    rect_b = TopoRectangle(
        curve((-2, 1), (2, 1), (6, 1), (6, 2), (6, 3), (2, 3), (-2, 3),
              (-2, 2)),
        (0, 2, 4, 6))
    one_b = PackingSpec(rect_b, (curve((2, 1), (6, 2), (2, 3), (-2, 2)),))
    write(out, "pack_one_a.json", dump_packing(one_a))
    write(out, "pack_one_b.json", dump_packing(one_b))
    write(out, "corr_one.json", [0])

    rect_a2 = TopoRectangle(
        curve((0, 0), (3, 0), (6, 0), (6, 2), (6, 5), (6, 6), (3, 6), (0, 6),
              (0, 5), (0, 2)),
        (0, 2, 5, 7))
    two_a = PackingSpec(rect_a2, (
        curve((3, 0), (6, 2), (3, 4), (0, 2)),
        curve((3, 4), (6, 5), (3, 6), (0, 5)),
    ))
    rect_b2 = TopoRectangle(
        curve((-2, 1), (3, 1), (8, 1), (8, F(15, 8)), (8, F(29, 8)),
              (8, F(9, 2)), (3, F(9, 2)), (-2, F(9, 2)), (-2, F(29, 8)),
              (-2, F(15, 8))),
        (0, 2, 5, 7))
    two_b = PackingSpec(rect_b2, (
        curve((3, 1), (8, F(15, 8)), (3, F(11, 4)), (-2, F(15, 8))),
        curve((3, F(11, 4)), (8, F(29, 8)), (3, F(9, 2)), (-2, F(29, 8))),
    ))
    write(out, "pack_two_a.json", dump_packing(two_a))
    write(out, "pack_two_b.json", dump_packing(two_b))
    write(out, "corr_two.json", [0, 1])


def main(out: Path = FIXTURES) -> int:
    out.mkdir(parents=True, exist_ok=True)

    # disjoint pair, identity corner map: index 0
    write(out, "fig_disjoint_first.json", dump_curve(square(0, 0, 2, 2)))
    write(out, "fig_disjoint_second.json", dump_curve(square(10, 0, 14, 4)))
    # interleaved rectangles, corner-to-corner map: index -1
    write(out, "fig_interleaved_first.json", dump_curve(square(0, -1, 3, 4)))
    write(out, "fig_interleaved_second.json", dump_curve(square(-1, 0, 4, 3)))
    write(out, "identity_corner_map.json", identity_corners())
    write(out, "corner_constraints.json", corner_constraints())

    packing_fixtures(out)

    first, second, crossings, rng = twelve_crossing_pair(seed=20240817)
    write(out, "fig_twelve_first.json", dump_curve(first))
    write(out, "fig_twelve_second.json", dump_curve(second))
    phi = random_correspondence(rng, 5)
    banned_s = {c.param_k for c in crossings}
    banned_t = {c.param_kt for c in crossings}
    pairs: dict = {}
    while len(pairs) < 3:
        s = F(rng.randrange(997), 997)
        t = phi.evaluate(s)
        if s in banned_s or t in banned_t or s in pairs:
            continue
        pairs[s] = t
    write(out, "twelve_constraints.json",
          {"constraints": [[s.numerator, s.denominator,
                            t.numerator, t.denominator]
                           for s, t in sorted(pairs.items())]})

    # freeze the CLI prescribe report for the twelve-crossing inputs
    from fpindex.cli import cmd_prescribe
    report = cmd_prescribe(str(out / "fig_twelve_first.json"),
                           str(out / "fig_twelve_second.json"),
                           str(out / "twelve_constraints.json"))
    write(out, "golden_twelve_trace.json", report)
    print("golden trace: w =", report["w"], "depth =", report["depth"])
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(Path, sys.argv[1:2])))
