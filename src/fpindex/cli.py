"""Command-line front end: JSON ingestion, dispatch, reports.

Exit codes: 0 success, 1 broken invariant or failed self-check, 2 rejected
input.  Reports are JSON with every rational as an integer pair; identical
inputs and seed produce byte-identical bytes.  SVG figures come from
`fpindex.svg`.

Each command imports the layers it uses inside its own function, so a
process loads and compiles only what its command needs: `cut` stops at
`jordan` and `serialize`, only `render` and `--svg` load `svg`, and only
`selftest` loads its suites (`fpindex.selftest`).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputRejection, InvariantFailure, NotTransverse

if TYPE_CHECKING:
    from .jordan import PolyJordanCurve
    from .packing import PackingSpec
    from .torus import TorusDiagram


# -- command implementations ------------------------------------------------------


def _curves_from_files(curve_a: str, curve_b: str,
                       ) -> tuple[PolyJordanCurve, PolyJordanCurve]:
    from .serialize import load_curve, load_json_file
    return (load_curve(load_json_file(curve_a), "first curve"),
            load_curve(load_json_file(curve_b), "second curve"))


def cmd_index(curve_a: str, curve_b: str, map_path: str) -> dict:
    from .jordan import check_transverse
    from .plmap import fixed_point_index
    from .serialize import load_json_file, load_map
    first, second = _curves_from_files(curve_a, curve_b)
    phi = load_map(load_json_file(map_path))
    try:
        crossings: int | None = len(check_transverse(first, second))
        transverse = True
    except NotTransverse:
        crossings, transverse = None, False
    return {"eta": fixed_point_index(first, second, phi),
            "crossings": crossings, "transverse": transverse}


def _diagram_from_files(curve_a: str, curve_b: str, constraints_path: str,
                        ) -> tuple[PolyJordanCurve, PolyJordanCurve,
                                   TorusDiagram]:
    from .jordan import check_transverse
    from .serialize import load_constraints, load_json_file
    from .torus import build_diagram
    first, second = _curves_from_files(curve_a, curve_b)
    constraints = load_constraints(load_json_file(constraints_path))
    crossings = check_transverse(first, second)
    return first, second, build_diagram(first, second, crossings, constraints)


def cmd_torus(curve_a: str, curve_b: str, constraints_path: str,
              svg: str | None = None) -> dict:
    from .serialize import fraction_to_json
    _, _, diagram = _diagram_from_files(curve_a, curve_b, constraints_path)
    if svg:
        from .svg import render_torus
        _write(svg, render_torus(diagram))
    n, ranks, kind = diagram.size, diagram._ranks, dict(diagram.kinds)
    return {
        "size": n,
        "crossings": len(diagram.kinds),
        "cols": [list(tok) for tok in diagram.col_order],
        "rows": [list(tok) for tok in diagram.row_order],
        "marks": [{"id": k, "kind": kind[k].name, "col": col, "row": row,
                   "x": fraction_to_json(Fraction(col, n)),
                   "y": fraction_to_json(Fraction(row, n))}
                  for col, row, k in zip(ranks.cols, ranks.rows, ranks.ids)],
    }


def cmd_prescribe(curve_a: str, curve_b: str, constraints_path: str,
                  svg: str | None = None) -> dict:
    from .plmap import fixed_point_index
    from .prescribe import prescribe
    from .serialize import dump_map, path_to_json
    from .torus import realize_path
    first, second, diagram = _diagram_from_files(curve_a, curve_b,
                                                 constraints_path)
    path, trace = prescribe(diagram)
    realized = realize_path(diagram, path)
    eta = fixed_point_index(first, second, realized)
    if eta != trace.index:
        raise InvariantFailure(
            f"realized index {eta} disagrees with trace value {trace.index}")
    if svg:
        from .svg import render_torus
        base, suffix = os.path.splitext(svg)  # the file name's extension
        suffix = suffix[1:] if suffix else "svg"
        levels = sorted({lv.depth for lv in trace.levels})
        for depth in levels:
            pairs = [lv.pair for lv in trace.levels
                     if lv.depth == depth and lv.pair]
            content = render_torus(diagram, path if depth == 0 else None,
                                   highlight=pairs)
            _write(f"{base}-L{depth}.{suffix}", content)
    return {
        "crossings": len(diagram.kinds),
        "w": trace.index,
        "eta_realized": eta,
        "depth": max((lv.depth for lv in trace.levels), default=0),
        "below": sorted(trace.below),
        "levels": [{
            "depth": lv.depth, "rule": lv.rule, "index": lv.index,
            "pair": list(lv.pair) if lv.pair else None,
            "base_constraint": lv.base_constraint,
            "category": lv.category,
        } for lv in trace.levels],
        "path": path_to_json(path.points),
        "map": dump_map(realized),
    }


def cmd_cut(curve_a: str, curve_b: str) -> dict:
    from .jordan import check_transverse, crossing_pattern_cuts
    first, second = _curves_from_files(curve_a, curve_b)
    crossings = check_transverse(first, second)
    return {"cuts": crossing_pattern_cuts(crossings),
            "crossings": len(crossings)}


def _packings_from_files(pack_a: str, pack_b: str,
                         ) -> tuple[PackingSpec, PackingSpec]:
    from .serialize import load_json_file, load_packing
    return (load_packing(load_json_file(pack_a), "first packing"),
            load_packing(load_json_file(pack_b), "second packing"))


def cmd_incompat(pack_a: str, pack_b: str, correspondence_path: str,
                 epsilon: str | None = None) -> dict:
    from .exact_geom import RatPoint
    from .packing import certify_incompatibility, translate_packing
    from .serialize import (
        fraction_to_json,
        load_json_file,
        load_piece_correspondence,
    )
    first, second = _packings_from_files(pack_a, pack_b)
    correspondence = load_piece_correspondence(
        load_json_file(correspondence_path))
    eps: Fraction | None = None
    if epsilon is not None:
        try:
            eps = Fraction(epsilon)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputRejection(f"bad epsilon {epsilon!r}: {exc}") from exc
        # generic non-axis direction so a nudge breaks coincidences
        second = translate_packing(second, RatPoint(eps, eps / 3))
    overlay, cutting, cert = certify_incompatibility(first, second,
                                                     correspondence)
    return {
        "epsilon": None if eps is None else fraction_to_json(eps),
        "overlay": {"pairs": [list(entry) for entry in overlay.entries],
                    "total": overlay.total_crossings},
        "cutting_index": cutting,
        "certificate": {
            "rect_index": cert.rect_index,
            "piece_indices": list(cert.piece_indices),
            "interstice_indices": list(cert.interstice_indices),
            "interstice_triples": [list(t) for t in cert.interstice_triples],
            "cutting_index": cert.cutting_index,
            "degenerate": cert.degenerate,
            "identity_holds": cert.rect_index
            == cert.piece_sum + cert.interstice_sum,
        },
    }


def cmd_render(kind: str, inputs: list[str], svg: str | None) -> dict:
    if not svg:
        raise InputRejection("render requires --svg OUTPUT")
    if kind == "torus":
        if len(inputs) != 3:
            raise InputRejection("render torus needs curveA curveB constraints")
        from .prescribe import prescribe
        from .svg import render_torus
        _, _, diagram = _diagram_from_files(*inputs)
        path, _ = prescribe(diagram)
        content = render_torus(diagram, path)
    elif kind == "overlay":
        if len(inputs) != 2:
            raise InputRejection("render overlay needs packA packB")
        from .svg import render_overlay
        content = render_overlay(*_packings_from_files(*inputs))
    elif kind == "faces":
        if len(inputs) != 2:
            raise InputRejection("render faces needs curveA curveB")
        from .svg import render_faces
        content = render_faces(*_curves_from_files(*inputs))
    else:
        raise InputRejection(f"unknown render kind {kind!r}")
    _write(svg, content)
    return {"kind": kind, "svg": svg, "bytes": len(content.encode())}


def cmd_selftest(seed: int, trials: int | None) -> dict:
    from . import selftest
    return selftest.cmd_selftest(seed, trials)


# -- dispatch ---------------------------------------------------------------------


def _write(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise InputRejection(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpindex",
        description="Exact fixed-point indices of boundary correspondences, "
                    "torus diagrams, prescribed-index maps, and packing "
                    "incompatibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(run, *positionals: str, svg=False, epsilon=False,
            seeded=False) -> None:
        """A subparser that passes its arguments to `run` by name; a
        positional's `_path` suffix is left out of the help text."""
        name = run.__name__.removeprefix("cmd_")
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        for pos in positionals:
            p.add_argument(pos, metavar=pos.removesuffix("_path"))
        if name == "render":
            p.add_argument("kind", choices=("torus", "overlay", "faces"))
            p.add_argument("inputs", nargs="+")
        if svg:
            p.add_argument("--svg", help="write an SVG rendering here")
        if epsilon:
            p.add_argument("--epsilon",
                           help="rational nudge applied to the second packing")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int)
        p.add_argument("--out", help="write the JSON report here")

    add(cmd_index, "curve_a", "curve_b", "map_path")
    add(cmd_torus, "curve_a", "curve_b", "constraints_path", svg=True)
    add(cmd_prescribe, "curve_a", "curve_b", "constraints_path", svg=True)
    add(cmd_cut, "curve_a", "curve_b")
    add(cmd_incompat, "pack_a", "pack_b", "correspondence_path", epsilon=True)
    add(cmd_render, svg=True)
    add(cmd_selftest, seeded=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_parser().parse_args(argv))
    run, out = args.pop("run"), args.pop("out")
    del args["command"]
    code = 0
    try:
        report = run(**args)
    except InputRejection as exc:
        code, report = 2, {"error": type(exc).__name__, "reason": str(exc)}
    except InvariantFailure as exc:
        # a failed selftest (selftest.SelfTestFailure) carries its report
        code, report = 1, getattr(exc, "report", None) or {
            "error": type(exc).__name__, "reason": str(exc)}
    try:
        _emit(report, out)
    except InputRejection as exc:  # --out itself cannot be written
        _emit({"error": type(exc).__name__, "reason": str(exc)}, None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
