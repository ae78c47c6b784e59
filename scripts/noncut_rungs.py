"""Time each layer on the canonical non-cutting pairs, rung by rung.

    python scripts/noncut_rungs.py [--out FILE]

For each rung m in RUNGS, `canonical_noncut_pair(m)` has 2m crossings; the
`noncut_ladder` workload runs m up to 20, and m = 32 and 64 go deeper. The
script times, in this process, one pass through the layers a `noncut_ladder`
op runs: `canonical_noncut_pair`, `check_transverse` and `cuts_each_other`
on that fresh pair, `fixed_point_index` of a seeded map without fixed
points, `build_diagram` with three constraints through the map, `prescribe`,
and `realize_path` of the prescribed path. It also times two layers that op
does not run: `oracle_enumerate` on the same diagram, and `segment_contacts`,
the integer sweep both crossing scans start from, on the same pair after
them, with the pair's edge tables built. Each layer reports the best of
REPEATS passes in milliseconds, each pass on a new pair, map and diagram
from the same seed; `check_transverse_over_sweep` is the best
`check_transverse` over the best `segment_contacts`. Then it prescribes on
DRAWS seeded draws of map and constraints and reports the median and
greatest `prescribe` time and the median and greatest prescription depth
(the deepest trace level). The report is JSON, on standard output and in
FILE if given. It loads `fpindex` from this checkout's `src/`.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fpindex.jordan import (  # noqa: E402
    canonical_noncut_pair,
    check_transverse,
    cuts_each_other,
    segment_contacts,
)
from fpindex.plmap import fixed_point_index  # noqa: E402
from fpindex.prescribe import oracle_enumerate, prescribe  # noqa: E402
from fpindex.torus import build_diagram, realize_path  # noqa: E402

from geomgen import indexable_map, synthesize_constraints  # noqa: E402

RUNGS = (1, 5, 8, 12, 16, 20, 32, 64)
REPEATS = 20
DRAWS = 30
LAYERS = ("canonical_noncut_pair", "check_transverse", "cuts_each_other",
          "segment_contacts", "fixed_point_index", "build_diagram",
          "prescribe", "oracle_enumerate", "realize_path")


def one_pass(m: int, seed: int) -> tuple[dict[str, float], int]:
    """Seconds per layer of one op on rung m, and the prescription depth."""
    rng = random.Random(seed)
    spent = {}

    def timed(layer, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        spent[layer] = time.perf_counter() - start
        return result

    first, second = timed("canonical_noncut_pair", canonical_noncut_pair, m)
    crossings = timed("check_transverse", check_transverse, first, second)
    timed("cuts_each_other", cuts_each_other, first, second)
    timed("segment_contacts", segment_contacts, first.loop, second.loop)
    phi, _ = indexable_map(rng, first, second)
    timed("fixed_point_index", fixed_point_index, first, second, phi)
    pairs = synthesize_constraints(crossings, phi, rng)
    diagram = timed("build_diagram", build_diagram, first, second, crossings,
                    pairs)
    path, trace = timed("prescribe", prescribe, diagram)
    timed("oracle_enumerate", oracle_enumerate, diagram)
    timed("realize_path", realize_path, diagram, path)
    return spent, max((level.depth for level in trace.levels), default=0)


def rung(m: int) -> dict:
    best = dict.fromkeys(LAYERS, float("inf"))
    for _ in range(REPEATS):
        spent, _ = one_pass(m, seed=m)
        for layer in LAYERS:
            best[layer] = min(best[layer], spent[layer])
    times, depths = [], []
    for seed in range(DRAWS):
        spent, depth = one_pass(m, seed=1000 * m + seed)
        times.append(spent["prescribe"] * 1e3)
        depths.append(depth)
    return {
        "m": m,
        "crossings": 2 * m,
        "best_ms": {layer: round(best[layer] * 1e3, 4) for layer in LAYERS},
        "check_transverse_over_sweep": round(
            best["check_transverse"] / best["segment_contacts"], 2),
        "prescribe_draws": {
            "draws": DRAWS,
            "median_ms": round(statistics.median(times), 3),
            "max_ms": round(max(times), 3),
            "depth_median": statistics.median(depths),
            "depth_max": max(depths),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    report = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "rungs": [rung(m) for m in RUNGS],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
