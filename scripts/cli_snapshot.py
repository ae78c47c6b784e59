"""Run every CLI command on the shipped fixtures and keep what it writes.

    python scripts/cli_snapshot.py OUTDIR

Each invocation runs `python -m fpindex.cli` on this checkout's `src/` with
OUTDIR as its working directory and the shipped fixtures copied into
OUTDIR/inputs, so no path in a report depends on where the checkout or
OUTDIR lives. The report an invocation prints goes to OUTDIR/<name>.json,
its SVGs to OUTDIR/<name>*.svg, anything on standard error to
OUTDIR/<name>.stderr, and every exit code to OUTDIR/exit_codes.txt.
Snapshots of two checkouts are byte-identical exactly when
`diff -r OUT_A OUT_B` prints nothing.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

TWELVE = "@fig_twelve_first @fig_twelve_second"
INTERLEAVED = "@fig_interleaved_first @fig_interleaved_second"
DISJOINT = "@fig_disjoint_first @fig_disjoint_second"
PACK_ONE = "@pack_one_a @pack_one_b @corr_one"
PACK_TWO = "@pack_two_a @pack_two_b @corr_two"

# name: argv, with @name for a fixture and {svg} for OUTDIR/<name>.svg
COMMANDS = {
    "index_interleaved": f"index {INTERLEAVED} @identity_corner_map",
    "index_disjoint": f"index {DISJOINT} @identity_corner_map",
    "index_fixed_point": "index @fig_disjoint_first @fig_disjoint_first "
                         "@identity_corner_map",
    "torus_twelve": f"torus {TWELVE} @twelve_constraints --svg {{svg}}",
    "torus_interleaved": f"torus {INTERLEAVED} @corner_constraints --svg {{svg}}",
    "prescribe_twelve": f"prescribe {TWELVE} @twelve_constraints --svg {{svg}}",
    "prescribe_interleaved": f"prescribe {INTERLEAVED} @corner_constraints "
                             "--svg {svg}",
    "prescribe_disjoint": f"prescribe {DISJOINT} @corner_constraints",
    "cut_twelve": f"cut {TWELVE}",
    "cut_interleaved": f"cut {INTERLEAVED}",
    "cut_disjoint": f"cut {DISJOINT}",
    "incompat_one": f"incompat {PACK_ONE}",
    "incompat_two": f"incompat {PACK_TWO}",
    "incompat_one_epsilon": f"incompat {PACK_ONE} --epsilon 1/1000",
    "incompat_two_epsilon": f"incompat {PACK_TWO} --epsilon 1/1000",
    "incompat_self_overlay": "incompat @pack_one_a @pack_one_a @corr_one",
    "incompat_bad_epsilon": f"incompat {PACK_ONE} --epsilon 0.5x",
    "render_torus": f"render torus {TWELVE} @twelve_constraints --svg {{svg}}",
    "render_overlay": "render overlay @pack_two_a @pack_two_b --svg {svg}",
    "render_faces": f"render faces {TWELVE} --svg {{svg}}",
    "selftest_default": "selftest",
    "selftest_seeded": "selftest --seed 7 --trials 3",
    # the parser: help texts and the dispatch error paths
    "help": "--help",
    **{f"help_{cmd}": f"{cmd} --help" for cmd in
       ("index", "torus", "prescribe", "cut", "incompat", "render", "selftest")},
    "render_without_svg": f"render faces {TWELVE}",
    "selftest_zero_trials": "selftest --trials 0",
    "index_missing_map": f"index {INTERLEAVED}",
}


def argv_of(name: str, words: str) -> list[str]:
    out = []
    for word in words.split():
        if word.startswith("@"):
            out.append(f"inputs/{word[1:]}.json")
        else:
            out.append(word.replace("{svg}", f"{name}.svg"))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    shutil.copytree(FIXTURES, out / "inputs", dirs_exist_ok=True)
    # a fixed width, so argparse wraps help and usage the same everywhere
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    codes = []
    for name, words in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "fpindex.cli",
                               *argv_of(name, words)],
                              cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.json").write_text(proc.stdout)
        if proc.stderr:
            (out / f"{name}.stderr").write_text(proc.stderr)
        codes.append(f"{name} {proc.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
