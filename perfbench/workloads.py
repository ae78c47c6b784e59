"""The four benchmark workloads.

Each workload builds its reusable inputs in `setup`, and `op` runs one
checked operation and returns its answer. A wrong answer raises
`CheckFailed`; any other exception out of `op` is an unexpected failure.
Redraws on `HasFixedPoint` or `NotTransverse` happen inside the generators
and are not failures.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from fpindex.jordan import (
    canonical_noncut_pair,
    check_transverse,
    cuts_each_other,
)
from fpindex.packing import (
    assemble_theorem_certificate,
    check_overlay_transverse,
    find_cutting_pair,
    validate_packing,
)
from fpindex.plmap import fixed_point_index
from fpindex.prescribe import oracle_enumerate, prescribe
from fpindex.serialize import (
    load_constraints,
    load_curve,
    load_json_file,
    load_map,
    load_packing,
    load_piece_correspondence,
)
from fpindex.torus import (
    build_diagram,
    index_from_torus,
    path_of_correspondence,
    realize_path,
)

import gen
from spans import timed_nominal


class CheckFailed(Exception):
    """An op's answer broke the law it is checked against."""


def check(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def _realized_index(tr, diagram, first, second, path) -> int:
    realized = tr.call("torus.realize_path", realize_path, diagram, path)
    tr.note_rationals(v for bp in realized.breakpoints for v in bp)
    return tr.call("plmap.fixed_point_index", fixed_point_index,
                   first, second, realized)


def _prescribe(tr, diagram):
    path, trace = tr.call("prescribe.prescribe", prescribe, diagram)
    tr.count("prescribe.prescribe.levels", len(trace.levels))
    tr.peak("prescribe.prescribe.depth_max",
            max((lv.depth for lv in trace.levels), default=0))
    return path, trace


CLI_GROUPS = ("index", "torus", "prescribe", "cut", "incompat_one",
              "incompat_two", "render_faces", "render_overlay", "render_torus",
              "selftest")


class Workload:
    name = ""

    def __init__(self, root: Path, workdir: Path | None, quick: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.quick = quick

    def setup(self, seed: int, tr) -> None:
        pass

    def start(self) -> None:
        """Called after set-up, before the first op."""

    def close(self) -> int:
        """Called after the last op: the peak resident memory, in KiB, of
        the processes that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def op(self, i: int, rng, tr):
        raise NotImplementedError

    def replay(self, tr, traced_ops: int) -> dict[str, float]:
        """Extra per-layer measurements after the traced loop; the cold CLI
        import is 0 on a workload that starts no CLI process."""
        return {"cli.import_ms": 0.0}


class CircleIndex(Workload):
    """64-gon circle pairs in four positions; the index forward and back."""

    name = "circle_index"
    CLASSES = ("disjoint", "nested", "two_cross", "general")

    def setup(self, seed, tr):
        dirs = gen.unit_directions(16 if self.quick else 64)
        self.pairs = gen.circle_pairs(random.Random(f"setup:{seed}"), tr, dirs)

    def op(self, i, rng, tr):
        cls = self.CLASSES[i % 4]
        first, second = self.pairs[cls]
        tr.note_pair(first, second)
        phi, eta = gen.indexable_map(rng, tr, first, second, 3, 10)
        tr.note_rationals(v for bp in phi.breakpoints for v in bp)
        inverse = tr.call("plmap.PLCorrespondence.invert", phi.invert)
        back = tr.call("plmap.fixed_point_index", fixed_point_index,
                       second, first, inverse)
        check(back == eta, f"{cls}: inverse index {back} != {eta}")
        if cls == "disjoint":
            check(eta == 0, f"disjoint circles gave index {eta}")
        elif cls == "nested":
            check(eta == 1, f"nested circles gave index {eta}")
        else:
            check(eta >= 0, f"{cls} circles gave index {eta}")
        return cls, eta


class PrescribeRandom(Workload):
    """Random star-polygon pairs through the torus, prescription and oracle."""

    name = "prescribe_random"

    def op(self, i, rng, tr):
        first, second, crossings = gen.transverse_pair(rng, tr, 4, 12)
        tr.note_pair(first, second)
        tr.count("jordan.check_transverse.accepted")
        tr.count("jordan.check_transverse.crossings", len(crossings))
        cuts = tr.call("jordan.cuts_each_other", cuts_each_other, first, second)
        phi, eta = gen.indexable_map(rng, tr, first, second, 4, 9)
        pairs = gen.synth_constraints(rng, crossings, phi)
        tr.note_rationals(v for pair in pairs for v in pair)
        diagram = tr.call("torus.build_diagram", build_diagram,
                          first, second, crossings, pairs)
        path = tr.call("torus.path_of_correspondence", path_of_correspondence,
                       diagram, phi)
        eta_torus = tr.call("torus.index_from_torus", index_from_torus,
                            diagram, path, check_all_bases=True)
        eta_real = _realized_index(tr, diagram, first, second, path)
        check(eta_torus == eta_real == eta,
              f"torus reading {eta_torus}, realized {eta_real}, map {eta}")
        ppath, trace = _prescribe(tr, diagram)
        check(trace.index >= 0, f"prescribed index {trace.index} < 0")
        realized = _realized_index(tr, diagram, first, second, ppath)
        check(realized == trace.index,
              f"prescribed index {trace.index}, realized {realized}")
        achievable = None
        if len(crossings) <= 8:
            tr.count("prescribe.oracle_enumerate.masks", 2 ** len(crossings))
            achievable = tr.call("prescribe.oracle_enumerate",
                                 oracle_enumerate, diagram)
            check(trace.index in achievable,
                  f"index {trace.index} not in oracle set {sorted(achievable)}")
            achievable = tuple(sorted(achievable))
        return len(crossings), cuts, eta, trace.index, achievable


class NoncutLadder(Workload):
    """The canonical non-cutting pairs on a fixed ladder of sizes."""

    name = "noncut_ladder"
    # A cycle of 25 slots. Sorted by latency, p50 (rank 12.5) falls in the
    # middle of the three m=5 slots and p90 (rank 22.5) in the middle of the
    # three m=16 slots, so each percentile is an order statistic of one rung
    # and never sits on a boundary between two rungs. Cheap rungs are
    # repeated so that 100 ops take about 20 s.
    RUNGS = (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11,
             12, 16, 16, 16, 20)
    QUICK_RUNGS = (1, 2, 3)

    def op(self, i, rng, tr):
        rungs = self.QUICK_RUNGS if self.quick else self.RUNGS
        m = rungs[i % len(rungs)]
        first, second = tr.call("jordan.canonical_noncut_pair",
                                canonical_noncut_pair, m)
        tr.note_pair(first, second)
        crossings = tr.call("jordan.check_transverse", check_transverse,
                            first, second)
        tr.count("jordan.pairs_sampled")
        tr.count("jordan.check_transverse.accepted")
        tr.count("jordan.check_transverse.crossings", len(crossings))
        check(len(crossings) == 2 * m, f"m={m}: {len(crossings)} crossings")
        cuts = tr.call("jordan.cuts_each_other", cuts_each_other, first, second)
        check(cuts is False, f"m={m}: canonical pair cuts")
        phi, eta = gen.indexable_map(rng, tr, first, second, 3, 10)
        check(0 <= eta <= 2, f"m={m}: non-cutting index {eta}")
        pairs = gen.synth_constraints(rng, crossings, phi)
        tr.note_rationals(v for pair in pairs for v in pair)
        diagram = tr.call("torus.build_diagram", build_diagram,
                          first, second, crossings, pairs)
        path, trace = _prescribe(tr, diagram)
        check(trace.index >= 0, f"m={m}: prescribed index {trace.index} < 0")
        realized = _realized_index(tr, diagram, first, second, path)
        check(realized == trace.index,
              f"m={m}: prescribed index {trace.index}, realized {realized}")
        return m, len(crossings), cuts, eta, trace.index


def _json_out(proc) -> dict:
    return json.loads(proc.stdout)


def _check_index(want: int):
    def run(proc, _svg):
        report = _json_out(proc)
        check(report["eta"] == want, f"index eta {report['eta']} != {want}")
    return run


def _check_crossings(proc, _svg):
    report = _json_out(proc)
    check(report["crossings"] == 12, f"{report['crossings']} crossings")


def _check_cut(proc, _svg):
    report = _json_out(proc)
    check(isinstance(report["cuts"], bool) and report["crossings"] == 12,
          f"cut report {report}")


def _check_incompat(proc, _svg):
    cert = _json_out(proc)["certificate"]
    check(cert["identity_holds"] is True, "certificate identity fails")
    check(cert["piece_indices"][cert["cutting_index"]] < 0,
          "cutting piece index is not negative")


def _check_render(proc, svg: Path):
    report = _json_out(proc)
    body = svg.read_bytes()
    check(report["bytes"] == len(body) > 0 and body.lstrip().startswith(b"<"),
          f"render wrote {len(body)} bytes, reported {report['bytes']}")


def _check_selftest(proc, _svg):
    check(_json_out(proc)["ok"] is True, "selftest reported violations")


# Runs the CLI commands one at a time and, at the end of its input, prints
# the peak resident memory of its children. A child starts with at least the
# resident memory of the process that forks it, so the commands are forked
# from this small interpreter and not from the harness, which holds fpindex.
SPAWNER = """
import json, resource, subprocess, sys
for line in sys.stdin:
    try:
        proc = subprocess.run(json.loads(line), capture_output=True, timeout=120)
        reply = [proc.returncode, proc.stdout.decode("latin-1"),
                 proc.stderr.decode("latin-1")]
    except subprocess.TimeoutExpired:
        reply = [None, "", "timed out after 120 s"]
    print(json.dumps(reply), flush=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)
"""


class CliFixtures(Workload):
    """One `fpindex` subprocess per op on the shipped fixtures."""

    name = "cli_fixtures"
    FIX = "tests/fixtures/"
    COMMANDS = {  # name: (metric group, argv with @fixture words, check)
        "index_interleaved": ("index", "index @fig_interleaved_first "
                              "@fig_interleaved_second @identity_corner_map",
                              _check_index(-1)),
        "index_disjoint": ("index", "index @fig_disjoint_first "
                           "@fig_disjoint_second @identity_corner_map",
                           _check_index(0)),
        "torus": ("torus", "torus @fig_twelve_first @fig_twelve_second "
                  "@twelve_constraints", _check_crossings),
        "prescribe": ("prescribe", "prescribe @fig_twelve_first "
                      "@fig_twelve_second @twelve_constraints", None),
        "cut": ("cut", "cut @fig_twelve_first @fig_twelve_second", _check_cut),
        "incompat_one": ("incompat_one", "incompat @pack_one_a @pack_one_b "
                         "@corr_one", _check_incompat),
        "incompat_two": ("incompat_two", "incompat @pack_two_a @pack_two_b "
                         "@corr_two", _check_incompat),
        "render_faces": ("render_faces", "render faces @fig_twelve_first "
                         "@fig_twelve_second", _check_render),
        "render_overlay": ("render_overlay", "render overlay @pack_two_a "
                           "@pack_two_b", _check_render),
        "render_torus": ("render_torus", "render torus @fig_twelve_first "
                         "@fig_twelve_second @twelve_constraints",
                         _check_render),
        "selftest": ("selftest", "selftest --trials 1", _check_selftest),
    }
    MIX = ("index_interleaved", "index_interleaved", "index_disjoint",
           "torus", "torus", "prescribe", "prescribe", "cut", "cut",
           "incompat_one", "incompat_two", "render_faces", "render_overlay",
           "render_torus", "selftest")
    LOADERS = {"fig_": load_curve, "identity_corner_map": load_map,
               "twelve_constraints": load_constraints, "pack_": load_packing,
               "corr_": load_piece_correspondence}

    def __init__(self, root, workdir, quick):
        super().__init__(root, workdir, quick)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.order: list[str] = []
        self.done: list[str] = []

    def setup(self, seed, tr):
        import fpindex.cli  # noqa: F401  (the cold import a CLI user pays)
        self.golden = (self.root / self.FIX / "golden_twelve_trace.json").read_bytes()

    def start(self):
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", SPAWNER], cwd=self.root,
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def close(self):
        self.spawner.stdin.close()
        line = self.spawner.stdout.readline()
        self.spawner.stdout.close()
        self.spawner.wait()
        return int(line) if line.strip() else 0

    def _cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        self.spawner.stdin.write(json.dumps(argv) + "\n")
        self.spawner.stdin.flush()
        code, out, err = json.loads(self.spawner.stdout.readline())
        return subprocess.CompletedProcess(argv, code, out.encode("latin-1"),
                                           err.encode("latin-1"))

    def _fixtures(self, key: str) -> list[str]:
        return [w[1:] for w in self.COMMANDS[key][1].split() if w[0] == "@"]

    def _argv(self, key: str, selftest_seed: int) -> tuple[list[str], Path | None]:
        argv = [str(self.root / self.FIX / f"{w[1:]}.json") if w[0] == "@"
                else w for w in self.COMMANDS[key][1].split()]
        svg = None
        if argv[0] == "render":
            svg = self.workdir / f"{key}.svg"
            argv += ["--svg", str(svg)]
        if argv[0] == "selftest":
            argv += ["--seed", str(selftest_seed)]
        return argv, svg

    def op(self, i, rng, tr):
        if i % len(self.MIX) == 0:
            self.order = list(self.MIX)
            rng.shuffle(self.order)
        key = self.order[i % len(self.MIX)]
        group, _, check_fn = self.COMMANDS[key]
        argv, svg = self._argv(key, rng.randrange(1000))
        proc = tr.call(f"cli.{group}", self._cli,
                       [sys.executable, "-m", "fpindex.cli", *argv])
        self.done.append(key)
        check(proc.returncode == 0,
              f"{key} exited {proc.returncode}: {proc.stdout[-300:]!r}")
        if check_fn is None:
            check(proc.stdout == self.golden,
                  "prescribe report differs from golden_twelve_trace.json")
        else:
            check_fn(proc, svg)
        body = svg.read_bytes() if svg else proc.stdout
        return key, hashlib.sha256(body).hexdigest()

    def _load(self, word: str):
        loader = next(fn for prefix, fn in self.LOADERS.items()
                      if word.startswith(prefix))
        return loader(load_json_file(str(self.root / self.FIX / f"{word}.json")))

    def replay(self, tr, traced_ops):
        """Serialize loads and packing calls in-process, and the cold import.

        The subprocess ops hide the layers inside them, so each traced op's
        input files are loaded again here, and each traced incompat op's
        packing pair runs through the packing calls `fpindex incompat`
        makes; the ops themselves check the certificate. These spans sit
        outside any op.
        """
        done = self.done[-traced_ops:]
        for key in done:
            for w in self._fixtures(key):
                tr.call("serialize.load", self._load, w)
        for key in done:
            if not key.startswith("incompat"):
                continue
            a, b, corr = (self._load(w) for w in self._fixtures(key))
            tr.call("packing.validate_packing", validate_packing, a)
            tr.call("packing.validate_packing", validate_packing, b)
            tr.call("packing.check_overlay_transverse",
                    check_overlay_transverse, a, b)
            tr.call("packing.find_cutting_pair", find_cutting_pair, a, b, corr)
            tr.call("packing.assemble_theorem_certificate",
                    assemble_theorem_certificate, a, b, corr)
        for w in ("fig_twelve", "fig_interleaved", "fig_disjoint"):
            tr.note_pair(self._load(f"{w}_first"), self._load(f"{w}_second"))
        return {"cli.import_ms": 1000 * statistics.median(
            self._cold_import() for _ in range(3))}

    def _cold_import(self) -> float:
        return timed_nominal(subprocess.run,
                             [sys.executable, "-c", "import fpindex.cli"],
                             cwd=self.root, env=self.env, check=True)[0]


WORKLOADS = {w.name: w for w in (CircleIndex, PrescribeRandom, NoncutLadder,
                                 CliFixtures)}
