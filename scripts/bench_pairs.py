"""Measure a change against its parent in alternating perfbench runs.

    python scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
        [--first-seed S]

PARENT and CHANGE are two checkouts. Pair k runs `perfbench/run.py
--workload W --seed S+k --seconds T --trace 0` once in each, the parent
first when k is even and the change first when k is odd. Then the first
three seeds run once more on each side with `--trace 1`, in the same
alternating order, and give the per-layer metrics. Each run uses its own
checkout's unchanged `perfbench/`, as the benchmark does, and T is the
`run_seconds` of the change's `BENCHMARK.json`.

The record goes to BENCH_<change sha>.json at this checkout's root; a
record that already exists keeps its other workloads, so one file can hold
every workload a change was measured on. For each
workload it keeps every pair's end-to-end metrics, answer digests, failure
counts and load averages, and for each metric of `BENCHMARK.json` both
sides' medians and quartiles (inclusive method), the pairs the change won
(ties count for neither), the gain in the metric's better direction, the
parent's quartile distance, whether the change won at least nine tenths of
the pairs by more than that distance, and whether its median stays within
the metric's bound. It also keeps whether the answer digests were equal on
every pair, the host's provenance, and for each traced per-layer value its
median, least and greatest over the traced runs of each side, since a
single traced run swings more than most changes move a layer.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_sha(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout} is not a git checkout")
    return proc.stdout.strip()


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    prov = record["provenance"]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "digest": record["answers_digest"]["untraced"],
            "git_sha": prov["git_sha"], "git_dirty": prov["git_dirty"],
            "load_before": prov["load_before"], "load_after": prov["load_after"],
            "host": {k: prov[k] for k in ("nproc", "cpu_model", "python")}}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def layer_spread(runs: list[dict]) -> dict:
    """Median, least and greatest of each per-layer value over traced runs."""
    out = {}
    for name in {name for metrics in runs for name in metrics}:
        values = [m[name] for m in runs
                  if isinstance(m.get(name), (int, float))]
        if values:
            out[name] = {"median": statistics.median(values),
                         "min": min(values), "max": max(values)}
    return out


def summarize(pairs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if higher else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q, c_q = quartiles(parent), quartiles(change)
        gain = sign * (c_med - p_med)
        worse = -gain / p_med if p_med else (0.0 if gain >= 0 else float("inf"))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent_median": p_med, "parent_quartiles": [p_q[0], p_q[2]],
            "change_median": c_med, "change_quartiles": [c_q[0], c_q[2]],
            "ratio": c_med / p_med if p_med else None,
            "wins": wins, "pairs": len(pairs), "gain": gain,
            "parent_quartile_distance": p_q[2] - p_q[0],
            "gain_holds": wins >= 0.9 * len(pairs) and gain > p_q[2] - p_q[0],
            "bound": metric["bound"], "within_bound": worse <= metric["bound"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: git_sha(path) for side, path in sides.items()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])

    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, seconds, 0)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: ops_per_s "
              f"{pair['parent']['metrics']['ops_per_s']:.1f} -> "
              f"{pair['change']['metrics']['ops_per_s']:.1f}", flush=True)
    traced: dict[str, list[dict]] = {side: [] for side in sides}
    for k, pair in enumerate(pairs[:3]):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            traced[side].append(
                run(sides[side], args.workload, pair["seed"], seconds,
                    1)["metrics"])
    spread = {side: layer_spread(runs) for side, runs in traced.items()}

    entry = {
        "seconds": seconds,
        "seeds": [p["seed"] for p in pairs],
        "digests_equal": all(p["parent"]["digest"] == p["change"]["digest"]
                             for p in pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs)
                   for side in sides},
        "metrics": summarize(pairs, spec),
        "pairs": pairs,
        "per_layer_traced": {
            name: {side: spread[side].get(name) for side in sides}
            for name in sorted(set(spread["parent"]) | set(spread["change"]))},
    }
    path = ROOT / f"BENCH_{shas['change'][:12]}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "parent_sha": shas["parent"], "change_sha": shas["change"],
        "host": dict(pairs[0]["change"]["host"], platform=platform.platform()),
        "workloads": {}}
    if record["parent_sha"] != shas["parent"]:
        sys.exit(f"{path} measured another parent, {record['parent_sha']}")
    record["workloads"][args.workload] = entry
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
