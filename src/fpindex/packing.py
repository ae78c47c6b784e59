"""Packings of a marked rectangle by tangent Jordan domains.

A packing is a frame (a simple closed polygon with four marked corner
vertices) holding finitely many interiorwise disjoint polygonal Jordan
domains.  Pieces touch each other at single mutual vertices, touch each frame
side at most once and never at a marked corner, and every complementary face
of the arrangement must be a topological triangle.  Exactly two boundaries
meet at each contact point, so the contact structure alone fixes the
counterclockwise order of the arcs there, and the faces are traced on that
rotation with no angular geometry.  The contact graph is read off the checked
faces, and they make it a triangulation of a square.

Two packings with the same contact structure whose frames overlay in the
interleaved position cannot be matched piece by piece without a cut.  The
index of a boundary map assembled over the whole frame telescopes into piece
terms plus interstice terms, the interstice maps can always be prescribed
with non-negative index, and the interleaved frames force a total of -1, so
some piece pair carries a negative index and therefore cuts.
`assemble_theorem_certificate` builds one such map family and checks the
telescoping identity exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    BadInterstice,
    CornerContact,
    DegenerateLoop,
    HasFixedPoint,
    HypothesesNotMet,
    InputRejection,
    InvariantFailure,
    NotOrientationPreserving,
    NotTransverse,
    NotTransverseOverlay,
    OrderViolation,
    PieceOutsideRect,
    PiecesOverlap,
    TheoremViolationSuspected,
)
from .exact_geom import (
    MeetKind,
    PointLocation,
    RatPoint,
    _set,
    in_box_int,
    point_in_polygon,
    trusted,
    value_type,
)
from .jordan import (
    PolyJordanCurve,
    _arcs_of,
    check_transverse,
    crossing_pattern_cuts,
    segment_contacts,
    trace_faces,
)
from .plmap import PLCorrespondence, _carry, fixed_point_index

SIDES = ("a", "b", "c", "d")


def _label_key(label) -> tuple[int, object]:
    return (0, label) if isinstance(label, str) else (1, label)


# -- domain types ---------------------------------------------------------------


@value_type
class TopoRectangle:
    """Frame curve with four marked corner vertices in counterclockwise order.

    Side k runs from corner k to corner k+1; sides are named a, b, c, d.
    """

    __slots__ = _fields = ("curve", "corners")

    def __init__(self, curve: PolyJordanCurve,
                 corners: tuple[int, int, int, int]) -> None:
        n = len(curve)
        if len(corners) != 4 or len(set(corners)) != 4:
            raise InputRejection("exactly four distinct corner indices required")
        if any(not isinstance(c, int) or not 0 <= c < n for c in corners):
            raise InputRejection("corner index out of range")
        wraps = sum(1 for k in range(4) if corners[(k + 1) % 4] <= corners[k])
        if wraps != 1:
            raise InputRejection("corner indices must be listed in cyclic order")
        _set(self, "curve", curve)
        _set(self, "corners", corners)

    @property
    def corner_points(self) -> tuple[RatPoint, ...]:
        return tuple(self.curve.vertices[c] for c in self.corners)

    @property
    def corner_params(self) -> tuple[Fraction, ...]:
        n = len(self.curve)
        return tuple(Fraction(c, n) for c in self.corners)

    def side_of_vertex(self, index: int) -> int:
        """Side whose half-open vertex range [corner k, corner k+1) holds the
        given frame vertex index."""
        n = len(self.curve)
        for k in range(4):
            span = (self.corners[(k + 1) % 4] - self.corners[k]) % n
            if (index - self.corners[k]) % n < span:
                return k
        raise InvariantFailure("frame vertex escaped every side range")


@value_type
class PackingSpec:
    """A frame and the pieces packed inside it."""

    _fields = ("rect", "pieces")

    @cached_property
    def analysis(self) -> "_Analysis":
        """The checked contact arrangement (_analyze), built once per spec;
        a packing that breaks a rule raises on every access."""
        return _analyze(self)


@value_type
class ContactGraph:
    """Tangency structure: frame sides a-d plus one vertex per piece, with
    the edges and triangles that _analyze reads off the checked faces."""

    __slots__ = _fields = ("piece_count", "edges", "triangles")


@value_type
class OverlayReport:
    """Per-pair transverse crossing counts for two overlaid packings. The
    cut tests read each label pair's `CrossingSet` from `crossing_sets`,
    which is not a field: equality, hash and repr read `entries` alone."""

    __slots__ = ("entries", "crossing_sets")
    _fields = ("entries",)

    # written out: it also sets crossing_sets, a slot that is not a field
    def __init__(self, entries: tuple[tuple[str, str, int], ...],
                 crossing_sets: dict | None = None) -> None:
        _set(self, "entries", entries)
        _set(self, "crossing_sets", crossing_sets)

    @property
    def total_crossings(self) -> int:
        return sum(count for _, _, count in self.entries)


@value_type
class TheoremCertificate:
    """Verified index bookkeeping for a matched pair of packings.

    The identity rect_index == sum(piece_indices) + sum(interstice_indices)
    is asserted exactly during assembly, every interstice index is
    non-negative by construction, and a negative piece index certifies the
    cutting pair.
    """

    __slots__ = _fields = ("rect_index", "piece_indices", "interstice_indices",
                           "interstice_triples", "cutting_index", "degenerate")
    _defaults = {"degenerate": False}

    @property
    def piece_sum(self) -> int:
        return sum(self.piece_indices)

    @property
    def interstice_sum(self) -> int:
        return sum(self.interstice_indices)


# -- contact extraction ---------------------------------------------------------


def _pair_meeting(first: PolyJordanCurve, second: PolyJordanCurve,
                  ) -> tuple[bool, set[RatPoint], bool]:
    """How two boundaries meet: whether they cross properly, their isolated
    touch points, and whether they share a positive-length stretch."""
    rows1, rows2, hits = segment_contacts(first.loop, second.loop)
    v1, v2 = first.vertices, second.vertices
    crossed = overlap = False
    touches: set[RatPoint] = set()
    for i, j, kind, d1, d2, d3, d4 in hits:
        if kind is MeetKind.PROPER:
            crossed = True
            continue
        i1, j1 = (i + 1) % len(v1), (j + 1) % len(v2)
        a, b, c, d = rows1[i], rows1[i1], rows2[j], rows2[j1]
        # an endpoint lies on the other segment when it is collinear with
        # it (a zero cross product from meet_int) and inside its box
        shared = {vertex for dk, end, seg, vertex in (
            (d1, a, (c, d), v1[i]), (d2, b, (c, d), v1[i1]),
            (d3, c, (a, b), v2[j]), (d4, d, (a, b), v2[j1]))
            if dk == 0 and in_box_int(*seg, end)}
        if len(shared) > 1:
            overlap = True  # two shared points on one segment pair
        else:
            touches.update(shared)
    return crossed, touches, overlap


def _scan_contacts(spec: PackingSpec) -> tuple[dict, dict, list]:
    """All tangency points with the labels meeting there, after checking the
    packing contact rules pair by pair, and the frame's and each piece's
    vertex index by point."""
    rect = spec.rect
    rect_vertex, *piece_vertex = [{p: t for t, p in enumerate(c.vertices)}
                                  for c in (rect.curve, *spec.pieces)]
    corner_points = set(rect.corner_points)

    by_point: dict[RatPoint, set] = {}
    used_sides: set[tuple[int, int]] = set()
    for i, piece in enumerate(spec.pieces):
        crossed, touches, overlap = _pair_meeting(rect.curve, piece)
        if crossed:
            raise PieceOutsideRect(f"piece {i} crosses the frame boundary")
        if overlap:
            raise PieceOutsideRect(f"piece {i} runs along the frame boundary")
        for p in touches:
            if p not in rect_vertex or p not in piece_vertex[i]:
                raise PieceOutsideRect(
                    f"piece {i} touches the frame off a mutual vertex")
            if p in corner_points:
                raise CornerContact(
                    f"piece {i} touches the frame at a marked corner")
            side = rect.side_of_vertex(rect_vertex[p])
            if (i, side) in used_sides:
                raise PieceOutsideRect(
                    f"piece {i} touches side {SIDES[side]} more than once")
            used_sides.add((i, side))
            by_point.setdefault(p, set()).update({i, SIDES[side]})

    for i in range(len(spec.pieces)):
        for j in range(i + 1, len(spec.pieces)):
            crossed, touches, overlap = _pair_meeting(
                spec.pieces[i], spec.pieces[j])
            if crossed or overlap:
                raise PiecesOverlap(f"pieces {i} and {j} have boundaries that "
                                    "cross or run together")
            if len(touches) > 1:
                raise PiecesOverlap(
                    f"pieces {i} and {j} meet at more than one point")
            for p in touches:
                if p not in piece_vertex[i] or p not in piece_vertex[j]:
                    raise PiecesOverlap(
                        f"pieces {i} and {j} touch off a mutual vertex")
                by_point.setdefault(p, set()).update({i, j})

    # boundary relations being settled, containment reduces to point tests
    for i, piece in enumerate(spec.pieces):
        if any(point_in_polygon(rect.curve.loop, v) is PointLocation.OUTSIDE
               for v in piece.vertices):
            raise PieceOutsideRect(f"piece {i} leaves the frame")
    # at most one vertex of a piece lies on another piece's boundary, and
    # the rest lie on one side of it, so the first two vertices decide
    for i, piece in enumerate(spec.pieces):
        for j, other in enumerate(spec.pieces):
            if i != j and any(point_in_polygon(other.loop, v)
                              is PointLocation.INSIDE
                              for v in piece.vertices[:2]):
                raise PiecesOverlap(f"piece {i} reaches inside piece {j}")
    return by_point, rect_vertex, piece_vertex


# -- arrangement of the packed boundaries ----------------------------------------


@value_type
class _Node:
    """A contact point or a marked frame corner."""

    __slots__ = _fields = ("nid", "point", "objects")


@value_type
class _Arc:
    """A boundary run between two nodes; its host is a piece index, or a
    side name for frame arcs."""

    __slots__ = _fields = ("aid", "host", "tail", "head", "polyline")


@value_type
class _Face:
    """A face of the arrangement: its cycle of (arc id, traversed forward)
    steps, kind "interior", "outer" or "interstice", and an interstice's
    objects."""

    __slots__ = _fields = ("fid", "cycle", "node_ids", "polygon", "kind",
                           "objects")


def _split_curve(curve: PolyJordanCurve, stops: list[tuple[int, int]],
                 ) -> list[tuple[int, int, tuple[RatPoint, ...]]]:
    """(tail node, head node, polyline) runs of a curve split at the given
    (vertex index, node id) stops, in positive cyclic order."""
    n, points = len(curve), curve.vertices
    stops = sorted(stops)
    lines = _arcs_of(curve, [(Fraction(i, n), points[i]) for i, _ in stops])
    return [(tail, head, line) for (_, tail), (_, head), line
            in zip(stops, stops[1:] + stops[:1], lines)]


@value_type
class _Analysis:
    """The checked arrangement of a packing, as `_analyze` builds it."""

    __slots__ = _fields = ("nodes", "arcs", "faces", "interstices", "graph")


def _analyze(spec: PackingSpec) -> _Analysis:
    """The checked arrangement of a packing's boundaries.

    The nodes are the contact points and the frame's marked corners, and the
    arcs are the boundary runs between them. A third boundary at a contact
    point would leave some contact edge in a single interstice, so it is
    rejected at once. Each positively oriented boundary keeps its interior
    in the counterclockwise sector from its outgoing to its back half-edge,
    and the pieces' sectors are disjoint and inside the frame's, so the
    rotation at a node is (a out, a back, b out, b back) for pieces a and b,
    (frame out, piece out, piece back, frame back) for the frame and a
    piece, and (frame out, frame back) at a corner. The faces are traced on
    that rotation (trace_faces) and sorted into piece interiors, interstices
    and the outer face.

    The contact graph's edges are the nodes' object sets (a corner's is its two
    sides) and its triangles the interstices' object triples; it triangulates
    the square. With C contact nodes and k pieces there are A = 2C + 4 arcs.
    Euler's count with one outer face and k interiors leaves T = C + 1 - k
    interstices, and the 2A half-edges are 3T in the triangular interstices
    plus one cycle per boundary, A in all, so 3T = A. With V = k + 4 and
    E = C + 4 distinct edges, these are V - E + T + 1 = 2 and 3T = 2E - 4.
    Each corner of an interstice is a node whose two objects host the arcs
    meeting there, so every side of a triangle is an edge.
    """
    contacts, rect_vertex, piece_vertex = _scan_contacts(spec)
    rect = spec.rect

    for i in range(len(spec.pieces)):
        if not any(i in objs for objs in contacts.values()):
            raise BadInterstice(f"piece {i} touches nothing")
    for objs in contacts.values():
        if len(objs) > 2:
            raise BadInterstice(
                f"{len(objs)} boundaries meet at one contact point, want two")

    node_specs = [(p, frozenset(objs)) for p, objs in contacts.items()]
    for k in range(4):
        node_specs.append((rect.corner_points[k],
                           frozenset({SIDES[k - 1], SIDES[k]})))
    node_specs.sort(key=lambda s: (s[0].x, s[0].y))
    nodes = tuple(_Node(nid, p, objs)
                  for nid, (p, objs) in enumerate(node_specs))
    if len({nd.objects for nd in nodes}) != len(nodes):
        raise InvariantFailure("two contact points share an object set")

    arcs: list[_Arc] = []
    rect_stops = [(rect_vertex[nd.point], nd.nid) for nd in nodes
                  if any(isinstance(o, str) for o in nd.objects)]
    for tail, head, pts in _split_curve(rect.curve, rect_stops):
        side = rect.side_of_vertex(rect_vertex[pts[0]])
        arcs.append(_Arc(len(arcs), SIDES[side], tail, head, pts))
    for i, piece in enumerate(spec.pieces):
        stops = [(piece_vertex[i][nd.point], nd.nid) for nd in nodes
                 if i in nd.objects]
        for tail, head, pts in _split_curve(piece, stops):
            arcs.append(_Arc(len(arcs), i, tail, head, pts))

    faces: list[_Face] = []
    interstices: list[int] = []
    piece_face: dict[int, int] = {}
    out_half, back_half = {}, {}  # by (node, piece index or "frame")
    for arc in arcs:
        owner = "frame" if isinstance(arc.host, str) else arc.host
        out_half[arc.tail, owner] = 2 * arc.aid
        back_half[arc.head, owner] = 2 * arc.aid + 1
    outgoing: list[list[int]] = []
    for nd in nodes:
        pieces = [o for o in nd.objects if isinstance(o, int)]
        rotation = [h for i in pieces
                    for h in (out_half[nd.nid, i], back_half[nd.nid, i])]
        if len(pieces) < 2:  # a frame node
            rotation = [out_half[nd.nid, "frame"], *rotation,
                        back_half[nd.nid, "frame"]]
        outgoing.append(rotation)

    for cycle, polygon, area in trace_faces(
            [arc.polyline for arc in arcs], outgoing):
        if area == 0:
            raise InvariantFailure("flat arrangement face")
        fid = len(faces)
        hosts = {arcs[aid].host for aid, _ in cycle}
        if area < 0:
            kind, objects = "outer", None
        elif (all(forward for _, forward in cycle) and len(hosts) == 1
              and isinstance(next(iter(hosts)), int)):
            kind, objects = "interior", None
            piece_face[next(iter(hosts))] = fid
        else:
            kind, objects = "interstice", frozenset(hosts)
            interstices.append(fid)
        node_ids = tuple([arcs[aid].tail if forward else arcs[aid].head
                          for aid, forward in cycle])
        faces.append(_Face(fid, cycle, node_ids, polygon, kind, objects))

    if (sum(face.kind == "outer" for face in faces) != 1
            or len(nodes) - len(arcs) + len(faces) != 2):
        raise BadInterstice("tangency structure is disconnected or has holes")
    for i in range(len(spec.pieces)):
        if i not in piece_face:
            raise InvariantFailure(f"piece {i} lost its interior face")
    for fid in interstices:
        face = faces[fid]
        if len(face.node_ids) != 3 or len(set(face.node_ids)) != 3:
            raise BadInterstice(
                f"complementary face with {len(face.node_ids)} corners, "
                "want a triangle")
        if len(face.objects) != 3:
            raise InvariantFailure("interstice repeats a boundary object")
        for aid, forward in face.cycle:
            if isinstance(arcs[aid].host, int) and forward:
                raise InvariantFailure("interstice walk entered a piece")
            if isinstance(arcs[aid].host, str) and not forward:
                raise InvariantFailure("interstice walk left the frame")

    triangles = frozenset([faces[fid].objects for fid in interstices])
    if len(triangles) != len(interstices):
        raise InvariantFailure("two complementary faces share a side triple")
    return _Analysis(nodes=nodes, arcs=tuple(arcs), faces=tuple(faces),
                     interstices=tuple(interstices),
                     graph=ContactGraph(len(spec.pieces),
                                        frozenset(nd.objects for nd in nodes),
                                        triangles))


def validate_packing(spec: PackingSpec) -> tuple[PackingSpec, ContactGraph]:
    """Check every packing rule and return the input with its contact graph."""
    return spec, spec.analysis.graph


# -- overlays of two packings ----------------------------------------------------


def _curve_table(spec: PackingSpec) -> tuple[tuple[str, PolyJordanCurve], ...]:
    return (("rect", spec.rect.curve),
            *((f"piece{i}", piece) for i, piece in enumerate(spec.pieces)))


def check_overlay_transverse(first: PackingSpec, second: PackingSpec,
                             ) -> OverlayReport:
    """Require every boundary of one packing to meet every boundary of the
    other transversally. Nothing else can coincide: each contact point and
    marked corner of a valid packing is a vertex of its boundaries, so one
    on a boundary of the other packing is a contact check_transverse
    rejects, and a crossing point on a third boundary would be one."""
    # a packing that breaks a rule is reported before any overlay fault
    validate_packing(first)
    validate_packing(second)
    table_b = _curve_table(second)
    entries = []
    pair_crossings = {}
    for label_a, curve_a in _curve_table(first):
        for label_b, curve_b in table_b:
            try:
                crossings = check_transverse(curve_a, curve_b)
            except NotTransverse as exc:
                raise NotTransverseOverlay(
                    f"{label_a} against {label_b}: {exc}") from exc
            entries.append((label_a, label_b, len(crossings)))
            pair_crossings[label_a, label_b] = crossings
    return OverlayReport(tuple(entries), pair_crossings)


def isomorphic_contact(first: ContactGraph, second: ContactGraph,
                       correspondence: Sequence[int]) -> bool:
    """Do the graphs match vertex for vertex under the piece correspondence,
    with the frame sides held fixed?"""
    n = first.piece_count
    if sorted(correspondence) != list(range(n)):
        raise InputRejection("correspondence must be a bijection on pieces")
    if second.piece_count != n:
        return False
    return all(frozenset([_relabel(g, correspondence) for g in mine]) == theirs
               for mine, theirs in ((first.edges, second.edges),
                                    (first.triangles, second.triangles)))


def _relabel(group: frozenset, correspondence: Sequence[int]) -> frozenset:
    """A set of contact objects with each piece index sent to its mate."""
    return frozenset(correspondence[lab] if isinstance(lab, int) else lab
                     for lab in group)


# -- theorem kernel ---------------------------------------------------------------


def _frame_corner_index(first: PackingSpec, second: PackingSpec) -> int:
    """Index of the straight four-breakpoint map taking marked corners of one
    frame to the marked corners of the other."""
    pairs = sorted(zip(first.rect.corner_params, second.rect.corner_params))
    try:
        corner_map = PLCorrespondence(tuple(pairs))
        return fixed_point_index(first.rect.curve, second.rect.curve,
                                 corner_map)
    except (NotOrientationPreserving, HasFixedPoint, DegenerateLoop) as exc:
        raise HypothesesNotMet(f"frame corner map rejected: {exc}") from exc


def _checked_analyses(first: PackingSpec, second: PackingSpec,
                      correspondence: Sequence[int],
                      ) -> tuple[_Analysis, _Analysis, OverlayReport]:
    try:
        overlay = check_overlay_transverse(first, second)
    except InputRejection as exc:
        raise HypothesesNotMet(f"{type(exc).__name__}: {exc}") from exc
    return (*_matched_analyses(first, second, correspondence), overlay)


def _matched_analyses(first: PackingSpec, second: PackingSpec,
                      correspondence: Sequence[int],
                      ) -> tuple[_Analysis, _Analysis]:
    """Both analyses, once the contact structures match under the
    correspondence and the frames interleave; the caller checks the
    overlay first."""
    first_a, second_a = first.analysis, second.analysis
    if not isomorphic_contact(first_a.graph, second_a.graph, correspondence):
        raise HypothesesNotMet(
            "contact structures do not match under the correspondence")
    frame_index = _frame_corner_index(first, second)
    if frame_index != -1:
        raise HypothesesNotMet(
            f"frames are not interleaved: corner map index {frame_index}")
    return first_a, second_a


def find_cutting_pair(first: PackingSpec, second: PackingSpec,
                      correspondence: Sequence[int]) -> int:
    """Index i of a pair (piece i, matched piece) that cut each other.

    Hypotheses are enforced first: both packings valid, the overlay
    transverse, contact structures matching, frames interleaved.
    """
    return _first_cutting_pair(
        correspondence, _checked_analyses(first, second, correspondence)[2])


def _first_cutting_pair(correspondence: Sequence[int],
                        overlay: OverlayReport) -> int:
    for i, j in enumerate(correspondence):
        if crossing_pattern_cuts(overlay.crossing_sets[f"piece{i}",
                                                       f"piece{j}"]):
            return i
    raise TheoremViolationSuspected(
        "hypotheses hold yet no corresponding pair cuts")


def assemble_theorem_certificate(first: PackingSpec, second: PackingSpec,
                                 correspondence: Sequence[int],
                                 ) -> TheoremCertificate:
    """Build a compatible family of boundary maps and check the bookkeeping.

    One map per interstice pair is prescribed through its three corners; the
    piece and frame maps are restrictions of those, carried onto each
    boundary from the interstices bordering it by plmap._carry (the helper
    glue uses), so the identity frame index == piece indices + interstice
    indices holds exactly and is asserted.  With no pieces at all there is
    nothing to assemble and the certificate reports the bare frame
    corner-map index as a diagnostic.
    """
    if not first.pieces and not second.pieces:
        return TheoremCertificate(
            rect_index=_frame_corner_index(first, second),
            piece_indices=(), interstice_indices=(), interstice_triples=(),
            cutting_index=None, degenerate=True)
    return _certificate(first, second, correspondence,
                        *_checked_analyses(first, second, correspondence))


def _vertex_param(curve: PolyJordanCurve, p: RatPoint) -> Fraction:
    return Fraction(curve.vertices.index(p), len(curve))


def _certificate(first: PackingSpec, second: PackingSpec,
                 correspondence: Sequence[int], first_a: _Analysis,
                 second_a: _Analysis, overlay: OverlayReport,
                 ) -> TheoremCertificate:
    """assemble_theorem_certificate on packings whose hypotheses hold."""
    # loaded here, so that reading or drawing a packing does not load them
    from .prescribe import prescribe
    from .torus import build_diagram, realize_path

    mate_face = {f.objects: f for f in second_a.faces if f.kind == "interstice"}
    mate_point = {nd.objects: nd.point for nd in second_a.nodes}
    # (face objects, (source, target, map)) per interstice, for _carry
    inter_maps: list[tuple[frozenset, tuple]] = []
    inter_indices: list[int] = []
    triples: list[tuple] = []
    for fid in first_a.interstices:
        face = first_a.faces[fid]
        mate = mate_face[_relabel(face.objects, correspondence)]
        # three arcs of distinct boundaries meeting only at three distinct
        # nodes, with positive area: a simple, counterclockwise curve
        source = trusted(PolyJordanCurve, loop=face.polygon)
        target = trusted(PolyJordanCurve, loop=mate.polygon)
        corner_pairs = [(_vertex_param(source, node.point), _vertex_param(
            target, mate_point[_relabel(node.objects, correspondence)]))
            for node in (first_a.nodes[nid] for nid in face.node_ids)]
        try:
            crossings = check_transverse(source, target)
        except NotTransverse as exc:
            raise InvariantFailure(
                "interstice boundaries failed transversality after the "
                f"overlay checks: {exc}") from exc
        try:
            diagram = build_diagram(source, target, crossings, corner_pairs)
        except OrderViolation as exc:
            raise HypothesesNotMet(
                f"corner correspondence reverses orientation: {exc}") from exc
        path, trace = prescribe(diagram)
        phi = realize_path(diagram, path)
        eta = fixed_point_index(source, target, phi)
        if eta != trace.index:
            raise InvariantFailure("prescribed and realized indices disagree")
        if eta < 0:
            raise InvariantFailure("prescription returned a negative index")
        inter_maps.append((face.objects, (source, target, phi)))
        inter_indices.append(eta)
        triples.append(tuple(sorted(face.objects, key=_label_key)))

    def carried_index(host: PolyJordanCurve, mate: PolyJordanCurve,
                      labels: set) -> int:
        # only the interstices bordering the host meet it, each in one arc
        return fixed_point_index(host, mate, _carry(
            host, mate, [m for objects, m in inter_maps if objects & labels],
            InvariantFailure))

    piece_indices = [carried_index(piece, second.pieces[correspondence[i]],
                                   {i})
                     for i, piece in enumerate(first.pieces)]
    rect_index = carried_index(first.rect.curve, second.rect.curve,
                               set(SIDES))

    if rect_index != sum(piece_indices) + sum(inter_indices):
        raise InvariantFailure("index additivity failed on the assembled maps")
    cutting = next((i for i, eta in enumerate(piece_indices) if eta < 0), None)
    if cutting is None:
        raise TheoremViolationSuspected(
            f"no piece map carries a negative index (frame {rect_index})")
    if not crossing_pattern_cuts(overlay.crossing_sets[
            f"piece{cutting}", f"piece{correspondence[cutting]}"]):
        raise InvariantFailure("negative-index pair fails the cut test")
    return TheoremCertificate(
        rect_index=rect_index,
        piece_indices=tuple(piece_indices),
        interstice_indices=tuple(inter_indices),
        interstice_triples=tuple(triples),
        cutting_index=cutting)


def certify_incompatibility(first: PackingSpec, second: PackingSpec,
                            correspondence: Sequence[int],
                            ) -> tuple[OverlayReport, int, TheoremCertificate]:
    """The overlay report, find_cutting_pair and assemble_theorem_certificate,
    with the overlay checked once.

    An overlay fault is raised as check_overlay_transverse raises it; every
    later error comes as and when find_cutting_pair would raise it.
    """
    overlay = check_overlay_transverse(first, second)
    analyses = _matched_analyses(first, second, correspondence)
    cutting = _first_cutting_pair(correspondence, overlay)
    return overlay, cutting, _certificate(first, second, correspondence,
                                          *analyses, overlay)


def translate_packing(spec: PackingSpec, shift: RatPoint) -> PackingSpec:
    """The same packing moved rigidly by a vector. A translate of a simple,
    counterclockwise curve is one too, so the moved curves are not checked
    again."""
    def moved(curve: PolyJordanCurve) -> PolyJordanCurve:
        return trusted(PolyJordanCurve, loop=curve.loop.translated(shift))

    return PackingSpec(
        rect=TopoRectangle(moved(spec.rect.curve), spec.rect.corners),
        pieces=tuple([moved(piece) for piece in spec.pieces]))
