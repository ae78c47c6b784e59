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

The report is JSON, on standard output and in FILE if given. It loads
`fpindex` from this checkout's `src/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fpindex import plmap  # noqa: E402
from fpindex.errors import HasFixedPoint  # noqa: E402

from geomgen import circle_pools, unit_directions  # noqa: E402

SIZES = (16, 64, 256, 1024)
MAPS = 4
REPEATS = 10


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
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for call in calls:
                plmap.fixed_point_index(*call)
            best = min(best, time.perf_counter() - start)
        walked = sum(len(plmap._bend_walk(len(a), len(b), phi))
                     for a, b, phi in calls)
        exact = exact_ends(calls)
        classes[cls] = {
            "best_us": round(best / len(calls) * 1e6, 1),
            "cells_walked": round(walked / len(calls), 1),
            "cells_y": round(y_kept(calls) / len(calls), 1),
            "cells_exact": round(exact / len(calls), 1),
            "exact_frac": round(exact / walked, 4),
        }
    return {"n": n, "calls_per_class": 2 * MAPS, "classes": classes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="only n = 16")
    parser.add_argument("--out", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    report = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "rungs": [rung(n) for n in (SIZES[:1] if args.quick else SIZES)],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
