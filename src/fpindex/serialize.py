"""JSON serialization with exact rationals.

Every rational travels as an integer pair [numerator, denominator]; curve
vertices and map breakpoints travel as flat four-integer rows.  Loaders
validate as they build and raise InputRejection with the offending field
named, so the CLI can exit with a machine-readable reason.  `packing` and
`plmap` load only when a packing or a map is loaded.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .errors import DegenerateLoop, InputRejection
from .exact_geom import RatPoint
from .jordan import PolyJordanCurve, validate_curve

if TYPE_CHECKING:
    from .packing import PackingSpec, TopoRectangle
    from .plmap import PLCorrespondence


def load_json_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputRejection(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputRejection(f"{path} is not valid JSON: {exc}") from exc


def fraction_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _int_rows(obj: Any, key: str, width: int, what: str) -> list[list[int]]:
    if not isinstance(obj, dict) or key not in obj:
        raise InputRejection(f"{what} must be an object with a {key!r} list")
    rows = obj[key]
    if not isinstance(rows, list):
        raise InputRejection(f"{what}.{key} must be a list")
    for row in rows:
        if not (isinstance(row, list) and len(row) == width
                and all(isinstance(v, int) and not isinstance(v, bool)
                        for v in row)):
            raise InputRejection(
                f"each {what}.{key} row must be {width} integers")
        if any(den == 0 for den in row[1::2]):
            raise InputRejection(f"{what}.{key} row has a zero denominator")
    return rows


def load_curve(obj: Any, what: str = "curve") -> PolyJordanCurve:
    """{"vertices": [[x_num, x_den, y_num, y_den], ...]}"""
    rows = _int_rows(obj, "vertices", 4, what)
    points = [RatPoint(Fraction(xn, xd), Fraction(yn, yd))
              for xn, xd, yn, yd in rows]
    if len(points) < 3:
        raise DegenerateLoop(f"{what} needs at least 3 vertices")
    for i, p in enumerate(points):
        if p == points[i - 1]:
            raise DegenerateLoop(f"{what} has equal consecutive vertices "
                                 f"{(i - 1) % len(points)} and {i}")
    return validate_curve(points)


def load_rect(obj: Any, what: str = "rect") -> TopoRectangle:
    """A curve object with an extra "corners": [i, j, k, l] field."""
    from .packing import TopoRectangle
    curve = load_curve(obj, what)
    corners = obj.get("corners")
    if not (isinstance(corners, list) and len(corners) == 4
            and all(isinstance(c, int) and not isinstance(c, bool)
                    for c in corners)):
        raise InputRejection(f"{what}.corners must be four vertex indices")
    return TopoRectangle(curve, tuple(corners))


def load_packing(obj: Any, what: str = "packing") -> PackingSpec:
    """{"rect": {...curve..., "corners": [...]}, "pieces": [{...curve...}]}"""
    from .packing import PackingSpec
    if not isinstance(obj, dict) or "rect" not in obj:
        raise InputRejection(f"{what} must be an object with a rect")
    pieces = obj.get("pieces", [])
    if not isinstance(pieces, list):
        raise InputRejection(f"{what}.pieces must be a list")
    return PackingSpec(
        rect=load_rect(obj["rect"], f"{what}.rect"),
        pieces=tuple(load_curve(p, f"{what}.pieces[{i}]")
                     for i, p in enumerate(pieces)))


def load_map(obj: Any, what: str = "map") -> PLCorrespondence:
    """{"breakpoints": [[s_num, s_den, t_num, t_den], ...]}"""
    from .plmap import PLCorrespondence
    rows = _int_rows(obj, "breakpoints", 4, what)
    return PLCorrespondence(tuple(
        (Fraction(sn, sd), Fraction(tn, td)) for sn, sd, tn, td in rows))


def dump_map(phi: PLCorrespondence) -> dict:
    return {"breakpoints": [[s.numerator, s.denominator,
                             t.numerator, t.denominator]
                            for s, t in phi.breakpoints]}


def load_constraints(obj: Any, what: str = "constraints",
                     ) -> list[tuple[Fraction, Fraction]]:
    """{"constraints": [[s_num, s_den, t_num, t_den], ...]}"""
    rows = _int_rows(obj, "constraints", 4, what)
    return [(Fraction(sn, sd), Fraction(tn, td)) for sn, sd, tn, td in rows]


def load_piece_correspondence(obj: Any) -> list[int]:
    """A bare JSON list of piece indices, or {"correspondence": [...]}."""
    if isinstance(obj, dict):
        obj = obj.get("correspondence")
    if not (isinstance(obj, list)
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in obj)):
        raise InputRejection("correspondence must be a list of piece indices")
    return list(obj)


def path_to_json(points: Sequence[tuple[Fraction, Fraction]]) -> list[list[int]]:
    return [[x.numerator, x.denominator, y.numerator, y.denominator]
            for x, y in points]
