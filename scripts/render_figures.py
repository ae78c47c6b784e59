"""Render every bundled fixture to SVG under figures/.

Produces the torus diagram with its prescribed path for the interleaved
rectangles, the overlay drawings for both packing pairs, and the colored
arrangement faces of the figure pairs.
"""
import os
import sys
from pathlib import Path

from fpindex.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path("tests") / "fixtures"
OUT = Path("figures")


def fx(name: str) -> str:
    return str(FIXTURES / name)


RENDERS = [
    ("torus_interleaved.svg", ["render", "torus",
                               fx("fig_interleaved_first.json"),
                               fx("fig_interleaved_second.json"),
                               fx("corner_constraints.json")]),
    ("torus_twelve.svg", ["render", "torus", fx("fig_twelve_first.json"),
                          fx("fig_twelve_second.json"),
                          fx("twelve_constraints.json")]),
    ("overlay_one_piece.svg", ["render", "overlay", fx("pack_one_a.json"),
                               fx("pack_one_b.json")]),
    ("overlay_two_piece.svg", ["render", "overlay", fx("pack_two_a.json"),
                               fx("pack_two_b.json")]),
    ("faces_interleaved.svg", ["render", "faces",
                               fx("fig_interleaved_first.json"),
                               fx("fig_interleaved_second.json")]),
    ("faces_twelve.svg", ["render", "faces", fx("fig_twelve_first.json"),
                          fx("fig_twelve_second.json")]),
]


def run() -> int:
    # Paths stay relative to the checkout, so the reports (which echo the
    # SVG path) come out the same wherever the repository lives.
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    for name, argv in RENDERS:
        code = main([*argv, "--svg", str(OUT / name),
                     "--out", str(OUT / f"{name}.report.json")])
        print(("ok  " if code == 0 else "FAIL") + f"  {name}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
