"""Frozen dataclass twins of the package's value types, and a checked rebuild.

The package writes its value types by hand (`exact_geom.value_type`). Each
twin here is the frozen dataclass its class replaced, with the same name,
fields, defaults and `compare`/`repr` flags, so `test_value_types` can hold
equality, hash and repr to what the dataclass generated. The twins exist for
that test alone; the package never imports `dataclasses`.
"""
from __future__ import annotations

from dataclasses import dataclass, field


def rebuilt(obj, **changes):
    """obj built again by its class's checked constructor from the class's
    field tuple, with the given fields replaced; an unknown name is a
    TypeError, as it was for `dataclasses.replace`."""
    values = {name: getattr(obj, name) for name in type(obj)._fields}
    return type(obj)(**{**values, **changes})


# -- exact_geom ------------------------------------------------------------------

@dataclass(frozen=True)
class RatPoint:
    x: object
    y: object


@dataclass(frozen=True)
class Segment:
    a: object
    b: object


@dataclass(frozen=True)
class SegmentMeeting:
    kind: object
    point: object = None


@dataclass(frozen=True)
class PLLoop:
    vertices: object


# -- jordan ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolyJordanCurve:
    loop: object


@dataclass(frozen=True)
class Crossing:
    index: object
    point: object
    param_k: object
    param_kt: object
    kind: object


@dataclass(frozen=True)
class CrossingSet:
    crossings: object


@dataclass(frozen=True)
class ArrangementFace:
    id: object
    boundary: object
    in_K: object
    in_Kt: object
    polygon: object = None


# -- plmap -----------------------------------------------------------------------

@dataclass(frozen=True)
class PLCorrespondence:
    breakpoints: object
    s_vals: object = field(init=False, repr=False, compare=False, default=None)
    wrap: object = field(init=False, repr=False, compare=False, default=None)


@dataclass(frozen=True)
class GluedMap:
    source: object
    target: object
    phi: object


# -- torus -----------------------------------------------------------------------

@dataclass(frozen=True)
class TorusDiagram:
    col_order: object
    row_order: object
    kinds: object
    containment: object = None
    col_params: object = None
    row_params: object = None


@dataclass(frozen=True)
class StaircasePath:
    points: object


# -- prescribe -------------------------------------------------------------------

@dataclass(frozen=True)
class AdjacencyBox:
    entry_id: object
    exit_id: object
    base_constraint: object
    descends: object
    col_lo: object
    col_hi: object
    row_lo: object
    row_hi: object
    grid_cols: object
    grid_rows: object
    unit: object


@dataclass(frozen=True)
class TraceLevel:
    depth: object
    rule: object
    index: object
    pair: object = None
    base_constraint: object = None
    cells: object = None
    wrap: object = None
    descends: object = None
    category: object = None
    candidate: object = None
    child_index: object = None


@dataclass(frozen=True)
class PrescriptionTrace:
    levels: object
    below: object
    path: object
    index: object


# -- packing ---------------------------------------------------------------------

@dataclass(frozen=True)
class TopoRectangle:
    curve: object
    corners: object


@dataclass(frozen=True)
class PackingSpec:
    rect: object
    pieces: object


@dataclass(frozen=True)
class ContactGraph:
    piece_count: object
    edges: object
    triangles: object


@dataclass(frozen=True)
class OverlayReport:
    entries: object


@dataclass(frozen=True)
class TheoremCertificate:
    rect_index: object
    piece_indices: object
    interstice_indices: object
    interstice_triples: object
    cutting_index: object
    degenerate: object = False


# The analysis records were `typing.NamedTuple`s, which compare, hash and
# repr by their field tuple as these do; `_Analysis` lost `node_by_objects`,
# a dict that its one reader now builds from `nodes`.

@dataclass(frozen=True)
class _Node:
    nid: object
    point: object
    objects: object


@dataclass(frozen=True)
class _Arc:
    aid: object
    host: object
    tail: object
    head: object
    polyline: object


@dataclass(frozen=True)
class _Face:
    fid: object
    cycle: object
    node_ids: object
    polygon: object
    kind: object
    objects: object


@dataclass(frozen=True)
class _Analysis:
    nodes: object
    arcs: object
    faces: object
    interstices: object
    graph: object


TWINS = {cls.__name__: cls for cls in (
    RatPoint, Segment, SegmentMeeting, PLLoop,
    PolyJordanCurve, Crossing, CrossingSet, ArrangementFace,
    PLCorrespondence, GluedMap,
    TorusDiagram, StaircasePath,
    AdjacencyBox, TraceLevel, PrescriptionTrace,
    TopoRectangle, PackingSpec, ContactGraph, OverlayReport,
    TheoremCertificate, _Node, _Arc, _Face, _Analysis)}
