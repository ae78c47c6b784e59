"""SVG figures: the torus diagram, a packing overlay, arrangement faces.

Rationals become floats only here, at the last moment, and nothing written
is ever read back. Only `fpindex render` and `--svg` load this module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .exact_geom import RatPoint, signed_area
from .jordan import PolyJordanCurve, build_arrangement, check_transverse

if TYPE_CHECKING:
    from .packing import PackingSpec
    from .torus import TorusDiagram


def _f(v) -> str:
    return f"{float(v):.2f}"


def _shape(tag: str, points, style: str) -> str:
    coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<{tag} points="{coords}" {style}/>'


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
    ranks = diagram._ranks
    for col, row, k in zip(ranks.cols, ranks.rows, ranks.ids):
        cx, cy = _f(sx(Fraction(col, n))), _f(sy(Fraction(row, n)))
        if k in ranks.p_ids:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="black"/>')
        else:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="white" '
                        'stroke="black" stroke-width="2"/>')
        if k in hot:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="11" fill="none" '
                        'stroke="#d62728" stroke-width="2.5"/>')
        body.append(f'<text x="{cx}" y="{float(cy) - 10:.2f}" font-size="11" '
                    f'text-anchor="middle">{k}</text>')
    if path is not None:
        pts = [(sx(x), sy(y)) for x, y in path.points]
        body.append(_shape(
            "polyline", pts, 'fill="none" stroke="#1f77b4" stroke-width="3"'))
    return _svg_doc(size, size, body)


def _scaler(curves: list[PolyJordanCurve]):
    side, margin = 640, 30
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
    body.append(_shape("polygon", [to_px(p) for p in frame.vertices],
                       f'fill="none" stroke="{color}" stroke-width="2.5"'
                       f'{dash}'))
    for piece in spec.pieces:
        body.append(_shape("polygon", [to_px(p) for p in piece.vertices],
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
        body.append(_shape("polygon",
                           [to_px(p) for p in face.polygon.vertices],
                           f'fill="{fill}" fill-opacity="0.55" '
                           'stroke="#333" stroke-width="0.7"'))
    for curve, color in ((first, "#1f77b4"), (second, "#d62728")):
        body.append(_shape("polygon", [to_px(p) for p in curve.vertices],
                           f'fill="none" stroke="{color}" stroke-width="2"'))
    return _svg_doc(width, height, body)
