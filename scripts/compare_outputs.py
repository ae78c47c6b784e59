"""Check that this checkout writes the same outputs as another one.

    python scripts/compare_outputs.py PARENT [--keep DIR]

PARENT is another checkout of the repository, for example a `git worktree`
or a `git archive` of the parent commit. In each checkout, with that
checkout's own scripts and `src/`, the script runs

- `scripts/kernel_dump.py` into kernel/,
- `scripts/cli_snapshot.py` into cli/,
- `scripts/make_fixtures.py` into fixtures/,

under a fresh directory per checkout, then compares the two trees file by
file. It prints every file that differs or exists on one side only and
exits 1 if there is any, 0 if every output is byte-identical. With --keep
the two trees are left under DIR/parent and DIR/change; otherwise they go
to a temporary directory that is removed afterwards.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (output directory, script that takes it as its one argument)
STEPS = (
    ("kernel", "kernel_dump.py"),
    ("cli", "cli_snapshot.py"),
    ("fixtures", "make_fixtures.py"),
)


def write_outputs(checkout: Path, out: Path) -> None:
    """Run every step of STEPS in `checkout`, writing under `out`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for name, script in STEPS:
        target = out / name
        target.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(checkout / "scripts" / script), str(target)],
            cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{script} in {checkout} exited {proc.returncode}:\n"
                     f"{proc.stderr[-2000:]}")


def files_under(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def differences(parent: Path, change: Path) -> list[str]:
    """One line per file that differs or exists on one side only."""
    lines = []
    left, right = files_under(parent), files_under(change)
    for rel in sorted(left | right):
        if rel not in right:
            lines.append(f"only in parent: {rel}")
        elif rel not in left:
            lines.append(f"only in change: {rel}")
        elif (parent / rel).read_bytes() != (change / rel).read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--keep", type=Path,
                        help="leave both output trees under this directory")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "scripts").is_dir() or not (parent / "src").is_dir():
        parser.error(f"{parent} is not a checkout of this repository")
    if args.keep and any((args.keep / side).exists()
                         for side in ("parent", "change")):
        parser.error(f"{args.keep} already holds a parent/ or change/ tree")
    with tempfile.TemporaryDirectory() as tmp:
        top = args.keep.resolve() if args.keep else Path(tmp)
        for side, checkout in (("parent", parent), ("change", ROOT)):
            write_outputs(checkout, top / side)
        lines = differences(top / "parent", top / "change")
        count = len(files_under(top / "change"))
    for line in lines:
        print(line)
    print(f"{len(lines)} of {count} files differ" if lines
          else f"all {count} files are byte-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
