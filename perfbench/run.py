"""fpindex benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload circle_index --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The package is loaded from `src/` of that
checkout. The next op starts only when the previous one has finished. The
loop runs for `--seconds`, and on until at least MIN_OPS ops are done, so
that p90 has ten samples beyond it. Every op's answer is checked.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same ops
twice, first untraced and then traced, and prints the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The full result, with provenance, answer digests and failures, goes to
`.perfbench_out/` in the checkout, and the spans of a traced run beside it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import (NullTracer, Tracer, nominal, probes, reference_probe,
                   timed_nominal)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100
QUICK_MIN_OPS = 15
SETUP_PROBES = (3, 9)  # at least 3, then more until SETUP_PROBE_S, at most 9
SETUP_PROBE_S = 2.0
LOOP_CAP_S = 70.0  # per loop, so that a traced run ends well within 180 s
REPLAY_PAIRS = 4000

LAYER_FUNCS = {
    "jordan": ("validate_curve", "check_transverse", "cuts_each_other",
               "canonical_noncut_pair"),
    "plmap": ("fixed_point_index",),
    "torus": ("build_diagram", "path_of_correspondence", "index_from_torus",
              "realize_path"),
    "prescribe": ("prescribe", "oracle_enumerate"),
    "packing": ("validate_packing", "check_overlay_transverse",
                "find_cutting_pair", "assemble_theorem_certificate"),
}
MODULES = ("jordan", "plmap", "torus", "prescribe", "packing", "cli")


class Loop:
    """Latencies, answers and failures of one closed-loop pass.

    `refs[i]` is the reference probe taken just before op i, and the last
    one follows the last op.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.answers: list[str] = []
        self.failures: list[dict] = []

    def digest(self, count: int | None = None) -> str:
        text = "\n".join(self.answers[:count])
        return hashlib.sha256(text.encode()).hexdigest()

    def scales(self) -> list[float]:
        """Per op, the factor that brings its times to nominal host speed,
        from the median of the six probes around it."""
        return [nominal(self.refs[max(0, i - 2):i + 4])
                for i in range(len(self.latencies))]

    def steady(self) -> list[float]:
        """Op latencies at nominal host speed."""
        return [lat * f for lat, f in zip(self.latencies, self.scales())]


def run_loop(wl, seed: int, tr, seconds: float, min_ops: int,
             n_ops: int | None = None) -> Loop:
    """Run ops back to back; op i's inputs depend only on the seed and i."""
    from workloads import CheckFailed
    rng = random.Random(f"ops:{seed}")
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif (elapsed >= seconds and i >= min_ops) or elapsed >= LOOP_CAP_S:
            break
        loop.refs.append(reference_probe())
        tr.op = i
        t0 = clock()
        try:
            answer = tr.call("harness.op", wl.op, i, rng, tr)
        except CheckFailed as exc:
            answer = ("failed", str(exc))
            loop.failures.append({"op": i, "check": str(exc)})
        except Exception as exc:  # a defect in the program: count, go on
            answer = ("error", type(exc).__name__)
            loop.failures.append({"op": i, "error": type(exc).__name__,
                                  "traceback": traceback.format_exc(limit=8)})
        loop.latencies.append(clock() - t0)
        loop.answers.append(repr(answer))
        i += 1
    loop.refs.append(reference_probe())
    return loop


def setup_probes(workload: str, seed: int, quick: bool) -> list[float]:
    """Set-up times at nominal host speed, each of a fresh interpreter that
    imports and sets up, then exits. At least SETUP_PROBES[0] of them, then
    more until SETUP_PROBE_S have gone, at most SETUP_PROBES[1]; one in
    quick mode."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"] + (["--quick"] if quick else [])
    least, most = (1, 1) if quick else SETUP_PROBES
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < most and (
            len(times) < least or time.perf_counter() - start < SETUP_PROBE_S):
        times.append(timed_nominal(subprocess.run, argv, cwd=ROOT, check=True,
                                   stdout=subprocess.DEVNULL)[0])
    return times


def segment_replay(tr, seed: int) -> dict[str, float]:
    """Time the exact predicates on the workload's own segment pairs."""
    from fpindex.exact_geom import orient2d, segment_intersection
    pairs = [(s, t) for first, second in tr.pairs.values()
             for s in first.loop.segments() for t in second.loop.segments()]
    if len(pairs) > REPLAY_PAIRS:
        pairs = random.Random(f"replay:{seed}").sample(pairs, REPLAY_PAIRS)

    def ns_per_call(body) -> float:
        if not pairs:
            return 0.0
        times = [timed_nominal(body)[0] for _ in range(3)]
        return 1e9 * statistics.median(times) / len(pairs)

    return {
        "exact_geom.segment_intersection.ns_per_call": ns_per_call(
            lambda: [segment_intersection(s, t) for s, t in pairs]),
        "exact_geom.orient2d.ns_per_call": ns_per_call(
            lambda: [orient2d(s.a, s.b, t.a) for s, t in pairs]),
        "exact_geom.input_bits.max": float(tr.max_bits),
    }


def end_to_end(loop: Loop, setups: list[float],
               peak_rss_kb: int) -> dict[str, float]:
    """The user-facing metrics, every time at nominal host speed.

    ops_per_s counts op time only, not the probes between ops.
    """
    lat = loop.steady()
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "passed_frac": 1 - len(loop.failures) / len(lat),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def per_layer(tr, untraced: Loop, traced: Loop,
              phase_refs: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics from the spans, every time at nominal host speed:
    an op's spans are rescaled like its latency, and the spans of set-up
    and of the replay after the loop by the probes around that phase."""
    from workloads import CLI_GROUPS
    n = len(traced.latencies)
    op_scales = traced.scales()

    def scale(op) -> float:
        return nominal(phase_refs[op]) if isinstance(op, str) else op_scales[op]

    st = tr.self_times(scale)

    def total(phase: str, name: str, key: str) -> float:
        return st.get(f"{phase}:{name}", {}).get(key, 0)

    out: dict[str, float] = {}
    for mod, funcs in LAYER_FUNCS.items():
        for fn in funcs:
            name = f"{mod}.{fn}"
            out[f"{name}.ms_per_op"] = 1000 * sum(
                total(p, name, "self_s") for p in ("op", "replay")) / n
            out[f"{name}.calls_per_op"] = sum(
                total(p, name, "calls") for p in ("op", "replay")) / n
    for mod in MODULES:
        out[f"{mod}.ms_per_op"] = 1000 * sum(
            v["self_s"] for k, v in st.items()
            if k.split(":", 1)[1].startswith(mod + ".")
            and not k.startswith("setup:")) / n
    out["serialize.load.ms_per_op"] = 1000 * total("replay", "serialize.load",
                                                   "self_s") / n
    by_group: dict[str, list[float]] = {g: [] for g in CLI_GROUPS}
    for name, start, end, _, op in tr.spans:
        if name.startswith("cli.") and not isinstance(op, str):
            by_group[name[4:]].append((end - start) * scale(op))
    for g, times in by_group.items():
        out[f"cli.{g}.ms"] = 1000 * statistics.median(times) if times else 0.0
    out["jordan.setup_ms"] = 1000.0 * sum(
        v["self_s"] for k, v in st.items() if k.startswith("setup:jordan."))
    counts = tr.counts
    sampled = counts["jordan.pairs_sampled"]
    out["jordan.check_transverse.crossings_per_op"] = (
        counts["jordan.check_transverse.crossings"] / n)
    out["jordan.check_transverse.accepted_ratio"] = (
        counts["jordan.check_transverse.accepted"] / sampled if sampled else 0.0)
    out["plmap.fixed_point_index.rejected_per_op"] = (
        counts["plmap.fixed_point_index.rejected"] / n)
    out["prescribe.prescribe.depth_max"] = float(
        tr.peaks.get("prescribe.prescribe.depth_max", 0))
    out["prescribe.prescribe.levels_per_op"] = (
        counts["prescribe.prescribe.levels"] / n)
    out["prescribe.oracle_enumerate.masks_per_op"] = (
        counts["prescribe.oracle_enumerate.masks"] / n)
    op_total = total("op", "harness.op", "self_s")
    traced_s = sum(traced.steady())
    out["harness.glue_ms_per_op"] = 1000 * op_total / n
    out["trace.op_ms"] = 1000 * traced_s / n
    out["trace.accounted_frac"] = 1 - op_total / traced_s
    out["trace.overhead_frac"] = (sum(traced.steady())
                                  / sum(untraced.steady()) - 1)
    return out


def provenance(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "seed": seed, "cpu_model": "unknown", "git_sha": "unknown",
            "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), "unknown")
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            info["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                check=True).stdout.strip()
            info["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return info


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes and 15 ops, for the harness's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fpindex").is_dir():
        print(f"no fpindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload](ROOT, None, args.quick).setup(
            args.seed, NullTracer())
        return 0
    load_before = os.getloadavg()
    min_ops = QUICK_MIN_OPS if args.quick else MIN_OPS
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        wl = WORKLOADS[args.workload](ROOT, Path(workdir), args.quick)
        if args.trace:
            tr = Tracer()
            phase_refs = {"setup": probes()}
            wl.setup(args.seed, tr)
            phase_refs["setup"] += probes()
            wl.start()
            try:
                untraced = run_loop(wl, args.seed, NullTracer(), args.seconds,
                                    min_ops)
                traced = run_loop(wl, args.seed, tr, args.seconds, min_ops,
                                  n_ops=len(untraced.latencies))
                tr.op = "replay"
                phase_refs["replay"] = probes()
                metrics = wl.replay(tr, len(traced.latencies))
                phase_refs["replay"] += probes()
            finally:
                wl.close()
            loops = [untraced, traced]
            metrics.update(segment_replay(tr, args.seed))
            metrics.update(per_layer(tr, untraced, traced, phase_refs))
            (OUT / f"{stem}-spans.json").write_text(json.dumps(tr.dump()))
        else:
            setups = setup_probes(args.workload, args.seed, args.quick)
            wl.setup(args.seed, NullTracer())
            wl.start()
            try:
                loops = [run_loop(wl, args.seed, NullTracer(), args.seconds,
                                  min_ops)]
            finally:
                peak_rss_kb = wl.close()
            metrics = end_to_end(loops[0], setups, peak_rss_kb)
    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    digests = {lp_name: lp.digest(min_ops)
               for lp_name, lp in zip(("untraced", "traced"), loops)}
    if len(set(digests.values())) > 1:
        failures.append({"check": "traced and untraced answers differ"})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "provenance": dict(provenance(args.seed), load_before=load_before,
                           load_after=os.getloadavg()),
        "ops": [len(lp.latencies) for lp in loops],
        "answers_digest": digests, "answers_digest_ops": min_ops,
        "answers_digest_all": [lp.digest() for lp in loops],
        "failures": failures[:20], "metrics": metrics,
        "latencies_ms": [[round(1000 * t, 3) for t in lp.steady()]
                         for lp in loops],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} ops={record['ops']} "
          f"failed={len(failures)} digest={digests['untraced'][:16]}")
    for f in failures[:5]:
        print("FAILED", json.dumps(f)[:400])
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a metric, from its name's suffix."""
    for suffix, unit in (("ns_per_call", "ns"), ("ops_per_s", "1/s"),
                         ("_ms", "ms"), (".ms", "ms"), ("ms_per_op", "ms"),
                         ("_s", "s"), ("_mb", "MB"), ("bits.max", "bits"),
                         ("_frac", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
