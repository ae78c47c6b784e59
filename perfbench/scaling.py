"""Scaling report: how single layers grow with input size. It does not gate.

    python3 perfbench/scaling.py

Run from the root of a checkout. Three sweeps, each rung timed as the
median of three calls and rescaled to nominal host speed like run.py:

- `validate_curve` on circle n-gons, n doubling from 16 toward 1024;
- `check_transverse`, `cuts_each_other` and `prescribe` on
  `canonical_noncut_pair(m)`, 2m = 2..64 crossings;
- `fixed_point_index` on a crossing 64-gon circle pair whose directions are
  limited to denominators of 10^k, against the coordinate bit length; the
  same seven random maps on every rung, less those with a fixed point.

Per-rung cap: a sweep stops before a rung whose predicted time per call (the
last rung's time times the growth factor of the step before it, at least 2)
exceeds CAP_S (10 s). The maps come from the fixed SEED. The report goes to
`.perfbench_out/scaling.json`; `exponent` is log2 of the time ratio between
neighbouring rungs per doubling of the size.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction

from run import OUT, ROOT, provenance
from spans import nominal, reference_probe

CAP_S = 10.0  # per-rung cap on the predicted time of one call
SEED = 0


def _timed(fn, *args) -> tuple[float, object]:
    """Median of three calls, at nominal host speed (see run.py)."""
    times, refs, result = [], [reference_probe()], None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
        refs.append(reference_probe())
    return statistics.median(times) * nominal(refs), result


def _sweep(sizes, rung) -> list[dict]:
    """Run `rung(size)` (which returns a dict with a "s" total) until CAP_S."""
    rows: list[dict] = []
    for size in sizes:
        if len(rows) >= 2:
            growth = max(2.0, rows[-1]["s"] / rows[-2]["s"])
            if rows[-1]["s"] * growth > CAP_S:
                rows.append({"size": size, "skipped": "predicted over cap"})
                break
        row = rung(size)
        if rows and "s" in rows[-1]:
            ratio = row["s"] / rows[-1]["s"]
            row["exponent"] = math.log2(ratio) / math.log2(size / rows[-1]["size"])
        rows.append(row)
    return rows


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    from fpindex.errors import FpIndexError, HasFixedPoint
    from fpindex.exact_geom import pt
    from fpindex.jordan import (canonical_noncut_pair, check_transverse,
                                cuts_each_other, validate_curve)
    from fpindex.plmap import fixed_point_index, random_correspondence
    from fpindex.prescribe import prescribe
    from fpindex.torus import build_diagram
    from spans import NullTracer

    tr = NullTracer()
    rng = random.Random(f"scaling:{SEED}")
    maps = [random_correspondence(rng, rng.randrange(3, 10)) for _ in range(7)]

    def ngon(n: int) -> dict:
        pts = [pt(3 * d.x, 3 * d.y) for d in gen.unit_directions(n)]
        s, _ = _timed(validate_curve, pts)
        return {"size": n, "s": s}

    def noncut(two_m: int) -> dict:
        first, second = canonical_noncut_pair(two_m // 2)
        t_cross, crossings = _timed(check_transverse, first, second)
        t_cuts, _ = _timed(cuts_each_other, first, second)
        phi, _ = gen.indexable_map(rng, tr, first, second, 3, 10)
        diagram = build_diagram(first, second, crossings,
                                gen.synth_constraints(rng, crossings, phi))
        t_presc, _ = _timed(prescribe, diagram)
        return {"size": two_m, "vertices": len(second),
                "check_transverse_s": t_cross, "cuts_each_other_s": t_cuts,
                "prescribe_s": t_presc, "s": t_cross + t_cuts + t_presc}

    def bits(k: int) -> dict:
        dirs = gen.unit_directions(64, 10**k)
        try:
            first = gen.circle(tr, dirs, Fraction(0), Fraction(0), Fraction(3))
            second = gen.circle(tr, dirs, Fraction(1), Fraction(0),
                                Fraction(5, 2))
        except FpIndexError as exc:
            return {"size": k, "rejected": type(exc).__name__}
        width = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for p_ in first.vertices + second.vertices
                    for c in (p_.x, p_.y))
        times = []
        for phi in maps:
            try:
                times.append(_timed(fixed_point_index, first, second, phi)[0])
            except HasFixedPoint:
                continue
        return {"size": k, "input_bits": width, "maps": len(times),
                "s": statistics.median(times)}

    report = {
        "provenance": provenance(SEED),
        "cap_seconds": CAP_S,
        "validate_curve_vs_vertices": _sweep(
            [16 * 2**i for i in range(7)], ngon),
        "noncut_vs_crossings": _sweep(
            [2 * 2**i for i in range(6)], noncut),
        "fixed_point_index_vs_log10_den": [bits(k) for k in range(2, 10)],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(report, indent=1) + "\n")
    for key, rows in report.items():
        if isinstance(rows, list):
            print(key)
            for row in rows:
                print("  " + "  ".join(
                    f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
