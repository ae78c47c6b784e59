"""Command-line front end: JSON ingestion, dispatch, reports, SVG figures.

Exit codes: 0 success, 1 broken invariant or failed self-check, 2 rejected
input.  Reports are JSON with every rational as an integer pair; identical
inputs and seed produce byte-identical bytes.  SVG emission converts
rationals to floats at the last moment and is never read back.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AssumptionViolated,
    HasFixedPoint,
    InputRejection,
    InvariantFailure,
    NotTransverse,
    TooLarge,
)
from .exact_geom import RatPoint, signed_area
from .jordan import (
    PolyJordanCurve,
    build_arrangement,
    canonical_noncut_pair,
    check_transverse,
    cuts_each_other,
    validate_curve,
)
from .packing import (
    PackingSpec,
    TopoRectangle,
    assemble_theorem_certificate,
    certify_incompatibility,
    find_cutting_pair,
    translate_packing,
    validate_packing,
)
from .plmap import PLCorrespondence, fixed_point_index, random_correspondence
from .prescribe import oracle_enumerate, prescribe
from .serialize import (
    dump_map,
    fraction_to_json,
    load_constraints,
    load_curve,
    load_json_file,
    load_map,
    load_packing,
    load_piece_correspondence,
    path_to_json,
)
from .torus import TorusDiagram, build_diagram, realize_path


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; same config and seed give bit-identical reports."""

    command: str
    inputs: tuple[str, ...]
    seed: int = 0
    trials: int | None = None
    out: str | None = None
    svg: str | None = None
    epsilon: str | None = None
    kind: str | None = None


# -- command implementations ------------------------------------------------------


def cmd_index(curve_a: str, curve_b: str, map_path: str) -> dict:
    first = load_curve(load_json_file(curve_a), "first curve")
    second = load_curve(load_json_file(curve_b), "second curve")
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
    first = load_curve(load_json_file(curve_a), "first curve")
    second = load_curve(load_json_file(curve_b), "second curve")
    constraints = load_constraints(load_json_file(constraints_path))
    crossings = check_transverse(first, second)
    return first, second, build_diagram(first, second, crossings, constraints)


def cmd_torus(curve_a: str, curve_b: str, constraints_path: str,
              svg: str | None = None) -> dict:
    _, _, diagram = _diagram_from_files(curve_a, curve_b, constraints_path)
    if svg:
        _write(svg, render_torus(diagram))
    return {
        "size": diagram.size,
        "crossings": len(diagram.marks),
        "cols": [list(tok) for tok in diagram.col_order],
        "rows": [list(tok) for tok in diagram.row_order],
        "marks": [{"id": m.crossing_id, "kind": m.kind.name,
                   "col": m.col, "row": m.row,
                   "x": fraction_to_json(m.x), "y": fraction_to_json(m.y)}
                  for m in diagram.marks],
    }


def cmd_prescribe(curve_a: str, curve_b: str, constraints_path: str,
                  svg: str | None = None) -> dict:
    first, second, diagram = _diagram_from_files(curve_a, curve_b,
                                                 constraints_path)
    path, trace = prescribe(diagram)
    realized = realize_path(diagram, path)
    eta = fixed_point_index(first, second, realized)
    if eta != trace.index:
        raise InvariantFailure(
            f"realized index {eta} disagrees with trace value {trace.index}")
    if svg:
        base, dot, suffix = svg.rpartition(".")
        if not dot:
            base, suffix = svg, "svg"
        levels = sorted({lv.depth for lv in trace.levels})
        for depth in levels:
            pairs = [lv.pair for lv in trace.levels
                     if lv.depth == depth and lv.pair]
            content = render_torus(diagram, path if depth == 0 else None,
                                   highlight=pairs)
            _write(f"{base}-L{depth}.{suffix}", content)
    return {
        "crossings": len(diagram.marks),
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
    first = load_curve(load_json_file(curve_a), "first curve")
    second = load_curve(load_json_file(curve_b), "second curve")
    crossings = check_transverse(first, second)
    return {"cuts": cuts_each_other(first, second),
            "crossings": len(crossings)}


def cmd_incompat(pack_a: str, pack_b: str, correspondence_path: str,
                 epsilon: str | None = None) -> dict:
    first = load_packing(load_json_file(pack_a), "first packing")
    second = load_packing(load_json_file(pack_b), "second packing")
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


def cmd_render(kind: str, inputs: tuple[str, ...], svg: str) -> dict:
    if kind == "torus":
        if len(inputs) != 3:
            raise InputRejection("render torus needs curveA curveB constraints")
        _, _, diagram = _diagram_from_files(*inputs)
        path, _ = prescribe(diagram)
        content = render_torus(diagram, path)
    elif kind == "overlay":
        if len(inputs) != 2:
            raise InputRejection("render overlay needs packA packB")
        first = load_packing(load_json_file(inputs[0]), "first packing")
        second = load_packing(load_json_file(inputs[1]), "second packing")
        content = render_overlay(first, second)
    elif kind == "faces":
        if len(inputs) != 2:
            raise InputRejection("render faces needs curveA curveB")
        first = load_curve(load_json_file(inputs[0]), "first curve")
        second = load_curve(load_json_file(inputs[1]), "second curve")
        content = render_faces(first, second)
    else:
        raise InputRejection(f"unknown render kind {kind!r}")
    _write(svg, content)
    return {"kind": kind, "svg": svg, "bytes": len(content.encode())}


# -- selftest ---------------------------------------------------------------------


@functools.cache
def _unit_directions(n: int) -> tuple[RatPoint, ...]:
    """n rational points on the unit circle at near-regular angles."""
    points = []
    for k in range(n):
        u = Fraction(2 * k + 1, 2 * n)
        t = Fraction(math.tan(math.pi * (float(u) - 0.5))).limit_denominator(10**6)
        den = 1 + t * t
        points.append(RatPoint((1 - t * t) / den, 2 * t / den))
    return tuple(points)


def _circle_gon(center: RatPoint, radius: Fraction, n: int = 64) -> PolyJordanCurve:
    """Convex rational n-gon inscribed in the circle, circle-like for index
    purposes: convex, star-shaped around its center."""
    return validate_curve([center + d.scale(radius)
                           for d in _unit_directions(n)])


def _suite_circle_index(rng: random.Random, trials: int) -> dict:
    violations = []
    for k in range(trials):
        config = ("disjoint", "nested", "crossing")[k % 3]
        r1 = Fraction(rng.randrange(2, 5))
        r2 = Fraction(rng.randrange(2, 5))
        if config == "disjoint":
            c2 = RatPoint(r1 + r2 + rng.randrange(1, 4), Fraction(0))
            want = {0}
        elif config == "nested":
            r2 = r1 + rng.randrange(2, 5)
            c2 = RatPoint(Fraction(0), Fraction(0))
            want = {1}
        else:
            c2 = RatPoint(max(r1, r2), Fraction(0))
            want = {0, 1, 2}  # crossing circles: nonnegative, at most 2
        first = _circle_gon(RatPoint(Fraction(0), Fraction(0)), r1)
        second = _circle_gon(c2, r2)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        try:
            eta = fixed_point_index(first, second, phi)
            back = fixed_point_index(second, first, phi.invert())
        except HasFixedPoint:
            continue
        if eta != back:
            violations.append({"trial": k, "why": "inverse index differs",
                               "eta": eta, "back": back})
        if eta not in want and not (config == "crossing" and eta >= 0):
            violations.append({"trial": k, "why": f"{config} index {eta}"})
    return {"name": "circle_index", "trials": trials, "violations": violations}


def _synth_constraints(rng: random.Random, crossings,
                       phi: PLCorrespondence) -> list:
    banned_s = {c.param_k for c in crossings}
    banned_t = {c.param_kt for c in crossings}
    pairs: dict = {}
    while len(pairs) < 3:
        s = Fraction(rng.randrange(997), 997)
        t = phi.evaluate(s)
        if s in banned_s or t in banned_t or s in pairs:
            continue
        pairs[s] = t
    return sorted(pairs.items())


def _suite_prescribe(rng: random.Random, trials: int) -> dict:
    violations = []
    dumps = []
    for k in range(trials):
        m = 1 + k % 2
        first, second = canonical_noncut_pair(m)
        crossings = check_transverse(first, second)
        phi = random_correspondence(rng, rng.randrange(3, 7))
        try:
            eta_pair = fixed_point_index(first, second, phi)
        except HasFixedPoint:
            eta_pair = None
        if eta_pair is not None and not 0 <= eta_pair <= 2:
            violations.append({"trial": k, "why": f"noncut index {eta_pair}"})
        constraints = _synth_constraints(rng, crossings, phi)
        diagram = build_diagram(first, second, crossings, constraints)
        try:
            path, trace = prescribe(diagram)
        except AssumptionViolated as exc:
            dumps.append(str(exc))
            violations.append({"trial": k, "why": "assumption violated"})
            continue
        realized = realize_path(diagram, path)
        eta = fixed_point_index(first, second, realized)
        if trace.index < 0 or eta != trace.index:
            violations.append({"trial": k, "why": "trace/geometry mismatch",
                               "w": trace.index, "eta": eta})
        try:
            achievable = oracle_enumerate(diagram)
        except TooLarge:
            continue
        if trace.index not in achievable or max(achievable) < 0:
            violations.append({"trial": k, "why": "oracle disagrees",
                               "achievable": sorted(achievable)})
    return {"name": "prescribe", "trials": trials,
            "violations": violations, "assumption_dumps": dumps}


def _builtin_packing_pair() -> tuple[PackingSpec, PackingSpec, list[int]]:
    def c(*vs):
        return validate_curve([RatPoint(Fraction(x), Fraction(y))
                               for x, y in vs])

    rect_a = TopoRectangle(
        c((0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)),
        (0, 2, 4, 6))
    first = PackingSpec(rect_a, (c((2, 0), (4, 2), (2, 4), (0, 2)),))
    rect_b = TopoRectangle(
        c((-2, 1), (2, 1), (6, 1), (6, 2), (6, 3), (2, 3), (-2, 3), (-2, 2)),
        (0, 2, 4, 6))
    second = PackingSpec(rect_b, (c((2, 1), (6, 2), (2, 3), (-2, 2)),))
    return first, second, [0]


def _suite_packing(_rng: random.Random, _trials: int) -> dict:
    violations = []
    first, second, correspondence = _builtin_packing_pair()
    validate_packing(first)
    validate_packing(second)
    cutting = find_cutting_pair(first, second, correspondence)
    cert = assemble_theorem_certificate(first, second, correspondence)
    if cutting != cert.cutting_index:
        violations.append({"why": "cutting indices disagree"})
    if cert.rect_index != cert.piece_sum + cert.interstice_sum:
        violations.append({"why": "additivity identity failed"})
    if any(v < 0 for v in cert.interstice_indices):
        violations.append({"why": "negative interstice index"})
    return {"name": "packing_kernel", "trials": 1, "violations": violations}


def cmd_selftest(seed: int, trials: int | None) -> dict:
    if trials is not None and trials < 1:
        raise InputRejection(f"--trials must be at least 1, got {trials}")
    suites = []
    for suite, default in ((_suite_circle_index, 30), (_suite_prescribe, 10),
                           (_suite_packing, 1)):
        rng = random.Random(seed)
        suites.append(suite(rng, default if trials is None else trials))
    ok = all(not s["violations"] for s in suites)
    report = {"seed": seed, "ok": ok, "suites": suites}
    if not ok:
        raise SelfTestFailure(report)
    return report


class SelfTestFailure(InvariantFailure):
    """Carries the full selftest report for the failure path."""

    def __init__(self, report: dict):
        super().__init__("selftest found violations")
        self.report = report


# -- SVG emitters -----------------------------------------------------------------


def _f(v) -> str:
    return f"{float(v):.2f}"


def _polyline(points, style: str) -> str:
    coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polyline points="{coords}" {style}/>'


def _polygon(points, style: str) -> str:
    coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polygon points="{coords}" {style}/>'


def _svg_doc(width: int, height: int, body: list[str]) -> str:
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_torus(diagram: TorusDiagram, path=None,
                 highlight: list | None = None) -> str:
    n, side, margin = diagram.size, 520, 45
    size = side + 2 * margin

    def sx(x) -> float:
        return margin + float(x) * side

    def sy(y) -> float:
        return margin + (1 - float(y)) * side

    body = [f'<rect x="{margin}" y="{margin}" width="{side}" height="{side}" '
            'fill="white" stroke="black" stroke-width="1.5"/>']
    for k, token in enumerate(diagram.col_order):
        x = sx(Fraction(k, n))
        dashed = 'stroke="#555" stroke-dasharray="7 5"' if token[0] == "c" \
            else 'stroke="#ccc"'
        body.append(f'<line x1="{_f(x)}" y1="{margin}" x2="{_f(x)}" '
                    f'y2="{margin + side}" {dashed}/>')
        if token[0] == "c":
            body.append(f'<text x="{_f(x)}" y="{margin - 8}" font-size="14" '
                        f'text-anchor="middle">c{token[1]}</text>')
    for k, token in enumerate(diagram.row_order):
        y = sy(Fraction(k, n))
        dashed = 'stroke="#555" stroke-dasharray="7 5"' if token[0] == "c" \
            else 'stroke="#ccc"'
        body.append(f'<line x1="{margin}" y1="{_f(y)}" x2="{margin + side}" '
                    f'y2="{_f(y)}" {dashed}/>')
        if token[0] == "c":
            body.append(f'<text x="{margin - 10}" y="{_f(y)}" font-size="14" '
                        f'text-anchor="end">c{token[1]}</text>')
    hot = {cid for pair in (highlight or []) for cid in pair}
    for m in diagram.marks:
        cx, cy = _f(sx(m.x)), _f(sy(m.y))
        if m.kind.name == "P":
            body.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="black"/>')
        else:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="white" '
                        'stroke="black" stroke-width="2"/>')
        if m.crossing_id in hot:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="11" fill="none" '
                        'stroke="#d62728" stroke-width="2.5"/>')
        body.append(f'<text x="{cx}" y="{float(cy) - 10:.2f}" font-size="11" '
                    f'text-anchor="middle">{m.crossing_id}</text>')
    if path is not None:
        pts = [(sx(x), sy(y)) for x, y in path.points]
        body.append(_polyline(
            pts, 'fill="none" stroke="#1f77b4" stroke-width="3"'))
    return _svg_doc(size, size, body)


def _scaler(curves: list[PolyJordanCurve], side: int = 640, margin: int = 30):
    xs = [p.x for c in curves for p in c.vertices]
    ys = [p.y for c in curves for p in c.vertices]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    scale = Fraction(side) / span

    def to_px(p: RatPoint) -> tuple[float, float]:
        return (margin + float((p.x - lo_x) * scale),
                margin + float((hi_y - p.y) * scale))

    width = 2 * margin + float((hi_x - lo_x) * scale)
    height = 2 * margin + float((hi_y - lo_y) * scale)
    return to_px, int(width) + 1, int(height) + 1


def _packing_paths(spec: PackingSpec, to_px, color: str, dash: str) -> list[str]:
    body = []
    frame = spec.rect.curve
    body.append(_polygon([to_px(p) for p in frame.vertices],
                         f'fill="none" stroke="{color}" stroke-width="2.5"'
                         f'{dash}'))
    for piece in spec.pieces:
        body.append(_polygon([to_px(p) for p in piece.vertices],
                             f'fill="{color}" fill-opacity="0.12" '
                             f'stroke="{color}" stroke-width="1.5"{dash}'))
    for corner in spec.rect.corner_points:
        x, y = to_px(corner)
        body.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="4" '
                    f'fill="{color}"/>')
    return body


def render_overlay(first: PackingSpec, second: PackingSpec) -> str:
    curves = [first.rect.curve, *first.pieces,
              second.rect.curve, *second.pieces]
    to_px, width, height = _scaler(curves)
    body = _packing_paths(first, to_px, "#1f77b4", "")
    body += _packing_paths(second, to_px, "#d62728",
                           ' stroke-dasharray="8 5"')
    return _svg_doc(width, height, body)


def render_faces(first: PolyJordanCurve, second: PolyJordanCurve) -> str:
    crossings = check_transverse(first, second)
    faces = build_arrangement(first, second, crossings)
    to_px, width, height = _scaler([first, second])
    fills = {(True, True): "#9467bd", (True, False): "#1f77b4",
             (False, True): "#d62728", (False, False): "#eeeeee"}
    body = []
    for face in faces:
        if face.polygon is None or signed_area(face.polygon) <= 0:
            continue
        fill = fills[(face.in_K, face.in_Kt)]
        body.append(_polygon([to_px(p) for p in face.polygon.vertices],
                             f'fill="{fill}" fill-opacity="0.55" '
                             'stroke="#333" stroke-width="0.7"'))
    for curve, color in ((first, "#1f77b4"), (second, "#d62728")):
        body.append(_polygon([to_px(p) for p in curve.vertices],
                             f'fill="none" stroke="{color}" stroke-width="2"'))
    return _svg_doc(width, height, body)


# -- dispatch ---------------------------------------------------------------------


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _run(config: RunConfig) -> dict:
    if config.command == "index":
        return cmd_index(*config.inputs)
    if config.command == "torus":
        return cmd_torus(*config.inputs, svg=config.svg)
    if config.command == "prescribe":
        return cmd_prescribe(*config.inputs, svg=config.svg)
    if config.command == "cut":
        return cmd_cut(*config.inputs)
    if config.command == "incompat":
        return cmd_incompat(*config.inputs, epsilon=config.epsilon)
    if config.command == "render":
        if not config.svg:
            raise InputRejection("render requires --svg OUTPUT")
        return cmd_render(config.kind or "", config.inputs, config.svg)
    if config.command == "selftest":
        return cmd_selftest(config.seed, config.trials)
    raise InputRejection(f"unknown command {config.command!r}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpindex",
        description="Exact fixed-point indices of boundary correspondences, "
                    "torus diagrams, prescribed-index maps, and packing "
                    "incompatibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *positionals: str, svg=False, epsilon=False,
            seeded=False) -> None:
        p = sub.add_parser(name)
        for pos in positionals:
            p.add_argument(pos)
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

    add("index", "curve_a", "curve_b", "map")
    add("torus", "curve_a", "curve_b", "constraints", svg=True)
    add("prescribe", "curve_a", "curve_b", "constraints", svg=True)
    add("cut", "curve_a", "curve_b")
    add("incompat", "pack_a", "pack_b", "correspondence", epsilon=True)
    add("render", svg=True)
    add("selftest", seeded=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    named = vars(args)
    order = {"index": ("curve_a", "curve_b", "map"),
             "torus": ("curve_a", "curve_b", "constraints"),
             "prescribe": ("curve_a", "curve_b", "constraints"),
             "cut": ("curve_a", "curve_b"),
             "incompat": ("pack_a", "pack_b", "correspondence"),
             "render": (), "selftest": ()}
    inputs = tuple(named[k] for k in order[args.command])
    if args.command == "render":
        inputs = tuple(args.inputs)
    return RunConfig(
        command=args.command, inputs=inputs,
        seed=named.get("seed") or 0, trials=named.get("trials"),
        out=named.get("out"), svg=named.get("svg"),
        epsilon=named.get("epsilon"), kind=named.get("kind"))


def main(argv: list[str] | None = None) -> int:
    config = _config_from_args(_parser().parse_args(argv))
    try:
        report = _run(config)
    except SelfTestFailure as exc:
        _emit(exc.report, config.out)
        return 1
    except InputRejection as exc:
        _emit({"error": type(exc).__name__, "reason": str(exc)}, config.out)
        return 2
    except InvariantFailure as exc:
        _emit({"error": type(exc).__name__, "reason": str(exc)}, config.out)
        return 1
    _emit(report, config.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
