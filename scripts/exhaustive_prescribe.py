"""Check three-point prescription on every small torus diagram.

    python scripts/exhaustive_prescribe.py [--max-crossings 6] [--out PATH]

Every combinatorial torus diagram with at most the given number of crossings
(`tests/test_prescribe.py`'s `small_diagrams`: each planar alternating
crossing pattern, constraint 1 at the cut and constraints 2 and 3 at every
ordered placement on each axis, plus the three crossing-free containments)
gets the three checks of `TestExhaustiveSmall`:

- `prescribe` succeeds and its index is at least 0;
- that index lies in `oracle_enumerate`'s set;
- it equals the reading with the cut moved by rebuilt diagrams
  (`tests/test_torus.py`'s `reference_all_bases`).

The counts per crossing number, the index values and the oracle set sizes
seen, any failures, and the wall time go to the JSON report (default
`reports/exhaustive_prescribe.json`). The script loads `fpindex` from this
checkout's `src/` and exits 1 if any diagram fails a check.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fpindex.errors import FpIndexError  # noqa: E402
from fpindex.prescribe import oracle_enumerate, prescribe  # noqa: E402

from test_prescribe import small_diagrams  # noqa: E402
from test_torus import reference_all_bases  # noqa: E402


class CheckFailed(Exception):
    """A diagram failed one of the three checks."""


def check(diagram) -> tuple[int, int]:
    """The prescribed index and the oracle set size; CheckFailed or the
    package's own error on a failed check."""
    path, trace = prescribe(diagram)
    achievable = oracle_enumerate(diagram)
    if trace.index < 0:
        raise CheckFailed(f"index {trace.index} < 0")
    if trace.index not in achievable:
        raise CheckFailed(
            f"index {trace.index} not in oracle set {sorted(achievable)}")
    again = reference_all_bases(diagram, path)
    if again != trace.index:
        raise CheckFailed(f"rebuilt cuts read {again}, not {trace.index}")
    return trace.index, len(achievable)


def run(max_crossings: int) -> dict:
    started = time.perf_counter()
    counts: Counter[int] = Counter()
    by_size: dict[int, dict[str, Counter]] = {}
    failures = []
    for diagram in small_diagrams(max_crossings // 2):
        size = len(diagram.kinds)
        counts[size] += 1
        tally = by_size.setdefault(size, {"index": Counter(),
                                          "oracle_set_size": Counter()})
        try:
            index, achievable = check(diagram)
        except (CheckFailed, FpIndexError) as err:
            failures.append({"crossings": size,
                             "error": f"{type(err).__name__}: {err}",
                             "diagram": diagram._ranks.dump()})
            continue
        tally["index"][index] += 1
        tally["oracle_set_size"][achievable] += 1
    return {
        "max_crossings": max_crossings,
        "checks": ["prescribe succeeds with index >= 0",
                   "index in oracle_enumerate's set",
                   "index equals the rebuilt-cut reading"],
        "by_crossings": {
            str(size): {"diagrams": counts[size],
                        **{name: {str(k): v for k, v in sorted(tally.items())}
                           for name, tally in by_size[size].items()}}
            for size in sorted(counts)},
        "diagrams": sum(counts.values()),
        "failures": failures,
        "wall_s": round(time.perf_counter() - started, 1),
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-crossings", type=int, default=6)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "reports" / "exhaustive_prescribe.json")
    args = parser.parse_args(argv)
    if args.max_crossings < 0 or args.max_crossings % 2:
        parser.error("--max-crossings must be even and at least 0")
    report = run(args.max_crossings)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"{report['diagrams']} diagrams, {len(report['failures'])} failures, "
          f"{report['wall_s']} s; wrote {args.out}")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
