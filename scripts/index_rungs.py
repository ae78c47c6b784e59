"""Time the fixed-point index on circle n-gons and count its exact work.

    python scripts/index_rungs.py [--quick] [--out FILE]

For each n in SIZES (only n = 16 with --quick), `geomgen.circle_pools`
draws one pair of n-gon circles in each of the four mutual positions of the
`circle_index` workload: disjoint, nested, two crossings and general, with
coordinate denominators near 10^12. Each pair gets MAPS seeded maps without
fixed points, and `fixed_point_index` runs on each map and, with the curves
swapped, on its inverse. Per class the report gives, per index call:

- `best_us`: the best of REPEATS passes over those calls, in microseconds;
- `cells_walked`: the steps of the difference loop, one per cell
  (`plmap._bend_walk`'s entries);
- `cells_y`: the steps whose cells' y keys meet (`PLLoop.edge_keys`), which
  a filter on y alone would keep;
- `cells_exact`: the steps the walk's key filter keeps, which get exact
  ends, counted as calls of `plmap.edge_crossing` in one extra pass. The
  filter also skips a cell whose target edge lies left of its source edge,
  so cells_y - cells_exact is what the x keys remove;
- `exact_frac`: cells_exact / cells_walked, the share the filter keeps.

A second part, `realized`, times the index on the maps that
`torus.realize_path` builds, as the `prescribe_random` workload does: for
REALIZED seeded star-polygon pairs (`geomgen.random_transverse_pair`; 4
with --quick), a seeded map without fixed points and three prescribed
pairs through it, the maps realized from `path_of_correspondence` and
from `prescribe`'s path. Per kind of path it gives `best_us` as above,
and the median and greatest bit length of the pieces' common
denominators G (`plmap._bend_steps`), which grow far past the random
maps' because the realized breakpoints interpolate between crossing
parameters.

The report is JSON, on standard output and in FILE if given. It loads
`fpindex` from this checkout's `src/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from math import lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fpindex import plmap  # noqa: E402
from fpindex.errors import HasFixedPoint  # noqa: E402
from fpindex.prescribe import prescribe  # noqa: E402
from fpindex.torus import (  # noqa: E402
    build_diagram,
    path_of_correspondence,
    realize_path,
)

from geomgen import (  # noqa: E402
    circle_pools,
    random_transverse_pair,
    synthesize_constraints,
    unit_directions,
)

SIZES = (16, 64, 256, 1024)
MAPS = 4
REPEATS = 10
REALIZED = 20


def index_calls(rng: random.Random, first, second) -> list[tuple]:
    """MAPS seeded maps without fixed points, forward and inverse."""
    calls = []
    while len(calls) < 2 * MAPS:
        phi = plmap.random_correspondence(rng, rng.randrange(3, 10))
        try:
            plmap.fixed_point_index(first, second, phi)
        except HasFixedPoint:
            continue
        calls += [(first, second, phi), (second, first, phi.invert())]
    return calls


def exact_ends(calls: list[tuple]) -> int:
    """Calls of plmap.edge_crossing made by the index over these calls."""
    count = 0
    crossing = plmap.edge_crossing

    def counted(*ends):
        nonlocal count
        count += 1
        return crossing(*ends)

    plmap.edge_crossing = counted
    try:
        for call in calls:
            plmap.fixed_point_index(*call)
    finally:
        plmap.edge_crossing = crossing
    return count


def y_kept(calls: list[tuple]) -> int:
    """Steps over these calls whose cells' y keys meet."""
    count = 0
    for source, target, phi in calls:
        _, _, lo_s, hi_s = source.loop.edge_keys
        _, _, lo_t, hi_t = target.loop.edge_keys
        count += sum(lo_t[j] <= hi_s[i] and hi_t[j] >= lo_s[i] for *_, i, j
                     in plmap._bend_walk(len(source), len(target), phi))
    return count


def rung(n: int) -> dict:
    rng = random.Random(n)
    pools = circle_pools(rng, per_class=1, dirs=unit_directions(n))
    classes = {}
    for cls, [(first, second)] in pools.items():
        calls = index_calls(rng, first, second)
        walked = sum(len(plmap._bend_walk(len(a), len(b), phi))
                     for a, b, phi in calls)
        exact = exact_ends(calls)
        classes[cls] = {
            "best_us": best_us(calls),
            "cells_walked": round(walked / len(calls), 1),
            "cells_y": round(y_kept(calls) / len(calls), 1),
            "cells_exact": round(exact / len(calls), 1),
            "exact_frac": round(exact / walked, 4),
        }
    return {"n": n, "calls_per_class": 2 * MAPS, "classes": classes}


def best_us(calls: list[tuple]) -> float:
    """The best of REPEATS passes over the index calls, per call."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for call in calls:
            plmap.fixed_point_index(*call)
        best = min(best, time.perf_counter() - start)
    return round(best / len(calls) * 1e6, 1)


def piece_bits(n_source: int, n_target: int, phi) -> list[int]:
    """Bit length of each piece's G = D * lcm(n_source ds, n_target dt),
    as `plmap._bend_steps` defines them."""
    bps = phi.breakpoints
    bits = []
    for (sa, ta), (sb, tb) in zip(bps, bps[1:] + bps[:1]):
        den = lcm(sa.denominator, ta.denominator, sb.denominator,
                  tb.denominator)
        ds, dt = int((sb - sa) % 1 * den), int((tb - ta) % 1 * den)
        bits.append((den * lcm(n_source * ds, n_target * dt)).bit_length())
    return bits


def realized_rung(pairs: int) -> dict:
    rng = random.Random(41)
    calls = {"path_of_correspondence": [], "prescribe": []}
    for _ in range(pairs):
        first, second, crossings = random_transverse_pair(rng)
        while True:
            phi = plmap.random_correspondence(rng, rng.randrange(4, 9))
            try:
                plmap.fixed_point_index(first, second, phi)
                break
            except HasFixedPoint:
                continue
        diagram = build_diagram(first, second, crossings,
                                synthesize_constraints(crossings, phi, rng))
        for kind, path in (("path_of_correspondence",
                            path_of_correspondence(diagram, phi)),
                           ("prescribe", prescribe(diagram)[0])):
            calls[kind].append((first, second, realize_path(diagram, path)))
    kinds = {}
    for kind, group in calls.items():
        bits = [b for first, second, phi in group
                for b in piece_bits(len(first), len(second), phi)]
        kinds[kind] = {"best_us": best_us(group),
                       "piece_g_bits_median": statistics.median(bits),
                       "piece_g_bits_max": max(bits)}
    return {"pairs": pairs, "kinds": kinds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="only n = 16, and 4 realized pairs")
    parser.add_argument("--out", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    report = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "rungs": [rung(n) for n in (SIZES[:1] if args.quick else SIZES)],
        "realized": realized_rung(4 if args.quick else REALIZED),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
