"""Polygonal Jordan curves, transverse crossings, and their arrangement.

A curve pair (first, second) is *transverse* when the boundaries meet only at
proper interior crossings of segments. Crossings carry a kind:

* kind P: the first boundary crosses into the second region there (which is
  the same event as the second boundary crossing out of the first region);
* kind Ptilde: the first boundary crosses out (the second crosses in).

Kinds alternate along both boundaries. Parameters normalize each curve to
[0, 1) with vertex i of an n-gon at parameter i/n; _arcs_of, the package's
one curve splitter, cuts a curve into polylines of points at such
parameters. One integer pass (_crossing_pass) reads both crossing orders,
the kinds and every check without a `Fraction`; check_transverse adds the
parameters.

The arrangement of a transverse pair with 2M >= 2 crossings has the crossings
as vertices, the 4M boundary arcs as edges, and 2M + 2 faces. A pair *cuts*
when either difference region splits into more than one face. The crossing
orders and kinds fix every face and its labels (_pattern_faces), which the
cut test counts; build_arrangement adds each face's polygon for rendering.
Every face is traced by one left-face walk over a rotation system
(_face_cycles), read from the kinds here and from the contact structure in
the packing module (trace_faces). No tracer sorts half-edges by angle.

Segment pairs are found by one box sweep (_box_pairs) over the loops' edge
keys (PLLoop.edge_keys), along y when the boxes are thinner against their
extent that way; the crossing scan splits it by curve, so it tests only
pairs across the two curves. meet_int decides each pair on the loops' own
rows (PLLoop.rows), and nothing is rescaled.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    AlternationViolation,
    InputRejection,
    InvariantFailure,
    NotPositivelyOriented,
    NotSimple,
    NotTransverse,
    OrderViolation,
)
from .exact_geom import (
    MeetKind,
    PLLoop,
    PointLocation,
    RatPoint,
    Row,
    _set,
    between,
    in_box_int,
    meet_int,
    point_in_polygon,
    row,
    signed_area,
    trusted,
    turn_int,
    value_type,
)


def _box_pairs(boxes: Sequence[tuple[int, int, int, int]],
               split: int | None = None) -> Iterator[tuple[int, int]]:
    """Every pair (a, b), a < b, of boxes whose closed extents meet, in no
    set order; with a split, only those with a < split <= b, found with one
    active list per side. One sweep by low edge, as in Shamos and Hoey,
    "Geometric intersection problems", FOCS 1976, with plain lists for their
    tree; a box is active until its high edge is strictly behind the sweep
    line, so boxes sharing one coordinate still pair. A list is pruned of
    the boxes that left, which the pair test skips, once it holds over twice
    (plus 4) what it kept at the last pruning: no rebuild per step, even on
    a single curve, whose sweep drops a box at nearly every step. The sweep
    runs along x unless sum(y-widths) * x-extent < sum(x-widths) * y-extent."""
    if boxes:
        lo_x, hi_x, lo_y, hi_y = zip(*boxes)
        if ((sum(hi_y) - sum(lo_y)) * (max(hi_x) - min(lo_x))
                < (sum(hi_x) - sum(lo_x)) * (max(hi_y) - min(lo_y))):
            boxes = list(zip(lo_y, hi_y, lo_x, hi_x))
    # per side: [entries (hi, lo_across, hi_across, box), count kept]
    active = ([[], 0],) * 2 if split is None else ([[], 0], [[], 0])
    for b in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        lo, hi, lo_across, hi_across = boxes[b]
        side = split is not None and b >= split
        other = active[not side]
        if len(other[0]) > 2 * other[1] + 4:
            other[0] = [e for e in other[0] if e[0] >= lo]
            other[1] = len(other[0])
        for hi_a, lo_a, across_a, a in other[0]:
            if lo <= hi_a and lo_a <= hi_across and lo_across <= across_a:
                yield (a, b) if a < b else (b, a)
        active[side][0].append((hi, lo_across, hi_across, b))


def _check_simple(loop: PLLoop) -> None:
    """NotSimple naming the first offending segment pair in (i, j) order."""
    rows = loop.rows
    n = len(rows)
    bad: list[tuple[int, int]] = []
    for i, j in _box_pairs(list(zip(*loop.edge_keys))):
        if j - i in (1, n - 1):
            # Segments k and k + 1 share vertex k + 1, so the sweep pairs
            # them; any doubling back puts a far endpoint on the other one.
            k = i if j == i + 1 else j
            a, b, c = rows[k], rows[(k + 1) % n], rows[(k + 2) % n]
            if turn_int(a, b, c) == 0 and (in_box_int(b, c, a)
                                           or in_box_int(a, b, c)):
                bad.append((i, j))
        elif meet_int(rows[i], rows[(i + 1) % n], rows[j],
                      rows[(j + 1) % n])[0] is not MeetKind.EMPTY:
            bad.append((i, j))
    if bad:
        i, j = min(bad)
        if j - i in (1, n - 1):
            raise NotSimple("consecutive segments overlap")
        raise NotSimple(f"segments {i} and {j} intersect")


@value_type
class PolyJordanCurve:
    """A simple, positively oriented closed polygonal curve.

    The constructor (and `validate_curve`) checks both. The orientation is
    read at the lowest, then leftmost, vertex: once the loop is simple, that
    vertex is convex and its neighbours are not collinear with it, so the
    turn there has the sign of the signed area.
    """

    __slots__ = _fields = ("loop",)

    def __init__(self, loop: PLLoop) -> None:
        _check_simple(loop)
        rows = loop.rows
        k = 0
        for i, (x, y, w) in enumerate(rows):  # lowest, then leftmost
            xk, yk, wk = rows[k]
            if y * wk < yk * w or (y * wk == yk * w and x * wk < xk * w):
                k = i
        if turn_int(rows[k - 1], rows[k], rows[(k + 1) % len(rows)]) < 0:
            raise NotPositivelyOriented("loop has non-positive signed area")
        _set(self, "loop", loop)

    @property
    def vertices(self) -> tuple[RatPoint, ...]:
        return self.loop.vertices

    def __len__(self) -> int:
        return len(self.loop)

    def locate_param(self, p: RatPoint) -> Fraction | None:
        """Normalized parameter of a boundary point, or None if off-curve."""
        return self.locate_row(row(p))

    def locate_row(self, q: Row) -> Fraction | None:
        """locate_param of the point with row q = (X, Y, W), W > 0 but not
        necessarily least. An edge is tested exactly only when its keys
        (PLLoop.edge_keys) hold floor(2^64 X / W) and floor(2^64 Y / W),
        and only the edge found costs a `Fraction`."""
        rows = self.loop.rows
        lo_x, hi_x, lo_y, hi_y = self.loop.edge_keys
        px, py, pw = q
        kx, ky = (px << 64) // pw, (py << 64) // pw
        n = len(rows)
        for i in range(n):
            if not (lo_x[i] <= kx <= hi_x[i] and lo_y[i] <= ky <= hi_y[i]):
                continue
            a, b = (xa, ya, wa), (xb, yb, wb) = rows[i], rows[(i + 1) % n]
            if turn_int(a, b, q) or not in_box_int(a, b, q):
                continue
            # q = a + (num / step)(b - a), read on x unless the edge is
            # vertical, over the weights W_a W_b W
            num, step = (((px * wa - xa * pw) * wb, (xb * wa - xa * wb) * pw)
                         if xa * wb != xb * wa else
                         ((py * wa - ya * pw) * wb, (yb * wa - ya * wb) * pw))
            if num == step:
                continue  # belongs to the next segment's start
            return Fraction(i * step + num, n * step)
        return None

    def contains(self, p: RatPoint) -> PointLocation:
        return point_in_polygon(self.loop, p)


def validate_curve(vertices: Sequence[RatPoint] | PLLoop) -> PolyJordanCurve:
    """Checked constructor: simple and positively oriented. A clockwise loop
    is rejected, never reversed."""
    loop = vertices if isinstance(vertices, PLLoop) else PLLoop(tuple(vertices))
    return PolyJordanCurve(loop)


class CrossKind(Enum):
    P = "P"           # first curve enters the second region
    PTILDE = "Pt"     # first curve exits the second region


@value_type
class Crossing:
    """One transverse boundary crossing.

    `index` is the position in the first curve's cyclic parameter order and
    serves as the crossing's stable id everywhere downstream.
    """

    __slots__ = ("index", "_point", "param_k", "param_kt", "kind", "_at")
    _fields = ("index", "point", "param_k", "param_kt", "kind")

    # written out: `point` lives in the _point slot behind its property
    def __init__(self, index: int, point: RatPoint, param_k: Fraction,
                 param_kt: Fraction, kind: CrossKind) -> None:
        _set(self, "index", index)
        _set(self, "_point", point)
        _set(self, "param_k", param_k)
        _set(self, "param_kt", param_kt)
        _set(self, "kind", kind)

    @property
    def point(self) -> RatPoint:
        """Built when first read from check_transverse's _at = (a, b, u, w):
        the point u / w of the way along from row a to row b."""
        if self._point is None:
            x, y, w = between(*self._at)
            _set(self, "_point", RatPoint(Fraction(x, w), Fraction(y, w)))
        return self._point


@value_type
class CrossingSet:
    """All crossings of a transverse pair, sorted by first-curve parameter.

    The constructor checks the order, the even count and the alternation of
    kinds along both curves, then that the ids are distinct and that the
    parameters on each curve are distinct and lie in [0, 1), all of which
    `check_transverse`'s integer pass has established. `torus.build_diagram`
    relies on them to build its diagram without checking it again. It keeps
    the second-curve order for `by_param_kt`; equality reads `crossings`.
    """

    __slots__ = ("crossings", "_by_kt")
    _fields = ("crossings",)

    def __init__(self, crossings: tuple[Crossing, ...]) -> None:
        params = [c.param_k for c in crossings]
        if params != sorted(params):
            raise InvariantFailure("crossings not sorted by first-curve parameter")
        order = _exact_order([(0, c.param_kt.numerator, c.param_kt.denominator)
                              for c in crossings])
        _check_kinds([c.kind for c in crossings], order)
        by_kt = tuple([crossings[h] for h in order])
        if len({c.index for c in crossings}) != len(params):
            raise InputRejection("duplicate tokens")
        params_kt = [c.param_kt for c in by_kt]
        for ps in (params, params_kt):
            if ps and not 0 <= ps[0] <= ps[-1] < 1:
                raise InputRejection("crossing parameters must lie in [0, 1)")
            # lowest terms: a set of pairs finds a repeat without hashing
            if len({(p.numerator, p.denominator) for p in ps}) != len(ps):
                raise OrderViolation("true parameters out of cyclic order")
        _set(self, "crossings", crossings)
        _set(self, "_by_kt", by_kt)

    def __len__(self) -> int:
        return len(self.crossings)

    def __iter__(self) -> Iterator[Crossing]:
        return iter(self.crossings)

    def by_param_kt(self) -> tuple[Crossing, ...]:
        return self._by_kt


def segment_contacts(first: PLLoop, second: PLLoop,
                     ) -> tuple[tuple[Row, ...], tuple[Row, ...], list[tuple]]:
    """Every contact between a segment of one loop and one of the other.

    Returns (R1, R2, hits): the loops' own rows (PLLoop.rows), and
    (i, j, *meet_int(a, b, c, d)) for each segment ab = R1[i] R1[i + 1] of
    the first loop that meets a segment cd = R2[j] R2[j + 1] of the second,
    in (i, j) order. Only segment pairs whose key boxes meet are tested
    (_box_pairs on the loops' edge_keys, split by loop).
    """
    rows1, rows2 = first.rows, second.rows
    n1, n2 = len(rows1), len(rows2)
    hits = []
    for i, j in _box_pairs([*zip(*first.edge_keys), *zip(*second.edge_keys)],
                           split=n1):
        j -= n1
        meet = meet_int(rows1[i], rows1[(i + 1) % n1],
                        rows2[j], rows2[(j + 1) % n2])
        if meet[0] is not MeetKind.EMPTY:
            hits.append((i, j, *meet))
    hits.sort(key=lambda hit: (hit[0], hit[1]))
    return rows1, rows2, hits


def _check_kinds(kinds: Sequence, by_kt: Sequence[int]) -> None:
    """AlternationViolation on an odd count, or unless the kinds alternate
    along their own order and along the positions listed in by_kt."""
    if len(kinds) % 2 != 0:
        raise AlternationViolation("odd crossing count")
    for order in (list(range(len(kinds))), by_kt):
        if any(kinds[a] == kinds[b] for a, b in zip(order, order[1:] + order[:1])):
            raise AlternationViolation("crossing kinds fail to alternate")


def _exact_order(values: list[tuple[int, int, int]]) -> list[int]:
    """Positions of the values (s, u, w), read as s + u / w with w > 0, in
    increasing order: by (s, floor(2^64 u / w)), or if two of those tie, by
    (s, u / w) exactly."""
    keys = [(s, (u << 64) // w) for s, u, w in values]
    if len(set(keys)) < len(keys):
        keys = [(s, Fraction(u, w)) for s, u, w in values]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _crossing_pass(first: PLLoop, second: PLLoop):
    """(R1, R2, found, by_kt, kinds) of a loop pair, from integers alone.

    found holds the crossings in first-curve order as (i, j, u, v, w, is_p):
    u / w along segment i, v / w along segment j, kind P if is_p; by_kt
    lists positions in found in second-curve order. NotTransverse on the
    first degenerate contact, then CrossingSet's checks. No parameter
    repeats: two crossings at one point need a degenerate contact.
    """
    rows1, rows2, hits = segment_contacts(first, second)
    n1, n2 = len(rows1), len(rows2)
    found = []
    for i, j, kind, d1, d2, d3, d4 in hits:
        if kind is MeetKind.DEGENERATE:
            raise NotTransverse(
                f"non-crossing contact between segment {i} and segment {j}")
        # The crossing lies at d1 W_b / (d1 W_b - d2 W_a) along s = ab and
        # d3 W_d / (d3 W_d - d4 W_c) along t = cd; both denominators are
        # turn = d3 W_d - d4 W_c = d2 W_a - d1 W_b up to sign, and the kind
        # is P when turn > 0.
        u, v = d1 * rows1[(i + 1) % n1][2], d3 * rows2[(j + 1) % n2][2]
        turn = v - d4 * rows2[j][2]
        found.append((i, j, -u, v, turn, True) if turn > 0 else
                     (i, j, u, -v, -turn, False))
    found = [found[h] for h in _exact_order([(i, u, w) for i, _, u, _, w, _ in found])]
    by_kt = _exact_order([(j, v, w) for _, j, _, v, w, _ in found])
    kinds = [is_p for *_, is_p in found]
    _check_kinds(kinds, by_kt)
    return rows1, rows2, found, by_kt, kinds


def check_transverse(first: PolyJordanCurve, second: PolyJordanCurve) -> CrossingSet:
    """Crossing set of a transverse pair; NotTransverse on any bad contact.
    Each crossing of the integer pass costs two `Fraction`s, its parameters;
    its point is built when read."""
    rows1, rows2, found, by_kt, kinds = _crossing_pass(first.loop, second.loop)
    n1, n2 = len(rows1), len(rows2)
    crossings = []
    for k, (i, j, u, v, w, is_p) in enumerate(found):
        c = Crossing(k, None, Fraction(i * w + u, w * n1),
                     Fraction(j * w + v, w * n2),
                     CrossKind.P if is_p else CrossKind.PTILDE)
        _set(c, "_at", (rows1[i], rows1[(i + 1) % n1], u, w))
        crossings.append(c)
    return trusted(CrossingSet, crossings=tuple(crossings),
                   _by_kt=tuple([crossings[k] for k in by_kt]))


# -- arrangement -------------------------------------------------------------

@value_type
class ArrangementFace:
    """One face of the overlay, labeled by region membership. Each boundary
    entry is (curve, start, end, forward)."""

    __slots__ = _fields = ("id", "boundary", "in_K", "in_Kt", "polygon")
    _defaults = {"polygon": None}


def _arcs_of(curve: PolyJordanCurve,
             stops: Sequence[tuple[Fraction, RatPoint]],
             ) -> list[tuple[RatPoint, ...]]:
    """Polyline of the curve's arc from each (parameter, point) stop to the
    next, the stops sorted by parameter; a single stop gives the whole loop.
    Vertex i of n sits at parameter i/n, so the vertices inside the arc from
    p to q are those with n p < i < n q, taken cyclically."""
    vertices, n = curve.vertices, len(curve)
    arcs = []
    for (p_from, a), (p_to, b) in zip(stops, stops[1:] + stops[:1]):
        lo = p_from.numerator * n // p_from.denominator + 1
        hi = -(-p_to.numerator * n // p_to.denominator)
        if p_to <= p_from:
            hi += n
        arcs.append((a, *[vertices[i % n] for i in range(lo, hi)], b))
    return arcs


def _face_cycles(outgoing: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Left-face cycles of a plane graph given by its rotation system.

    Each list in outgoing holds the half-edges leaving one node in
    counterclockwise order; half-edge h is the twin of h ^ 1, which leaves
    h's head. After a half-edge comes the clockwise successor of its twin,
    as in the doubly connected edge list of Muller and Preparata, TCS 1978.
    Yields each cycle in the order of its first half-edge.
    """
    after = [0] * sum(map(len, outgoing))
    for outs in outgoing:
        for pos, h in enumerate(outs):
            after[h ^ 1] = outs[pos - 1]
    seen = [False] * len(after)
    for h in range(len(after)):
        cycle = []
        while not seen[h]:
            seen[h] = True
            cycle.append(h)
            h = after[h]
        if cycle:
            yield cycle


def trace_faces(lines: Sequence[tuple[RatPoint, ...]],
                outgoing: Sequence[Sequence[int]],
                ) -> Iterator[tuple[tuple[tuple[int, bool], ...], PLLoop,
                                    Fraction]]:
    """Faces of a plane arrangement of directed arcs, given as polylines.

    Each arc gives two half-edges, 2k along arc k and 2k + 1 against it, and
    each list in outgoing holds the half-edges leaving one node in
    counterclockwise order; the caller knows that rotation from its own
    structure. Each face is traced on the left (_face_cycles) and yielded,
    in the order of its first half-edge, as (arc index, forward) steps with
    its boundary polygon and signed area.
    """
    for cycle in _face_cycles(outgoing):
        polygon = _join_polylines([
            lines[h >> 1][::-1] if h & 1 else lines[h >> 1] for h in cycle])
        yield (tuple([(h >> 1, not h & 1) for h in cycle]), polygon,
               signed_area(polygon))


def _join_polylines(lines: Sequence[Sequence[RatPoint]]) -> PLLoop:
    """The closed loop through polylines laid end to end, each ending where
    the next one starts; its rows are computed when first read. Consecutive
    vertices differ, as along each polyline. A refined curve keeps its own
    n >= 3 vertices, and a face with fewer has zero area, which is rejected."""
    return trusted(PLLoop, vertices=tuple([p for a in lines for p in a[:-1]]))


def _pattern_faces(by_kt: Sequence[int], kinds: Sequence[bool],
                   ) -> list[tuple[list[int], bool, bool]]:
    """Faces of the overlay, read from the crossing orders and kinds alone.

    Crossing k is k-th in first-curve order, by_kt lists the crossings in
    second-curve order, and kinds[k] is True at kind P. Arc k runs along the
    first curve from crossing k to k + 1, arc n + a along the second from
    by_kt[a] to by_kt[a + 1]. A kind fixes the counterclockwise order of the
    half-edges leaving its crossing: (first out, second back, first back,
    second out) at P, where the first curve enters the second region, and
    (first out, second out, first back, second back) at Ptilde. Each region
    lies left of its boundary, so a face is in K (Kt) when a forward first
    (second) curve half-edge bounds it. Returns (cycle, in_K, in_Kt) per face.
    """
    n = len(kinds)
    outgoing: list[list[int]] = [[]] * n
    for a, k in enumerate(by_kt):
        first_out, first_back = 2 * k, 2 * ((k - 1) % n) + 1
        second_out, second_back = 2 * (n + a), 2 * (n + (a - 1) % n) + 1
        outgoing[k] = ([first_out, second_back, first_back, second_out]
                       if kinds[k] else
                       [first_out, second_out, first_back, second_back])
    faces = []
    for cycle in _face_cycles(outgoing):
        # the rotation alternates the curves: of the first two half-edges,
        # the lower is on the first curve
        faces.append((cycle, *[not h & 1 for h in sorted(cycle[:2])]))
    if len(faces) != n + 2:
        raise InvariantFailure(
            f"Euler check failed: {len(faces)} faces for {n} crossings")
    return faces


def crossing_faces(crossings: CrossingSet,
                   ) -> list[tuple[tuple[tuple[str, int, int, bool], ...],
                                   bool, bool]]:
    """(boundary, in_K, in_Kt) per face of the overlay (_pattern_faces),
    each boundary a cycle of (curve, start, end, forward) arc steps."""
    n = len(crossings)
    if n == 0:
        raise InvariantFailure("faces undefined without crossings")
    by_kt = [c.index for c in crossings.by_param_kt()]
    arcs = [("first", k, (k + 1) % n) for k in range(n)] + \
        [("second", by_kt[a], by_kt[(a + 1) % n]) for a in range(n)]
    return [(tuple([(*arcs[h >> 1], not h & 1) for h in cycle]), in_K, in_Kt)
            for cycle, in_K, in_Kt in _pattern_faces(
                by_kt, [c.kind is CrossKind.P for c in crossings])]


def build_arrangement(first: PolyJordanCurve, second: PolyJordanCurve,
                      crossings: CrossingSet) -> list[ArrangementFace]:
    """Faces of the overlay of a transverse pair, exactly labeled.

    Each face's boundary and labels are those of crossing_faces, and its
    polygon walks the arc polylines that boundary names, each forward or
    reversed.
    """
    if len(crossings) == 0:
        return _trivial_arrangement(first, second)
    lines = {}
    for tag, curve, order, attr in (
            ("first", first, crossings.crossings, "param_k"),
            ("second", second, crossings.by_param_kt(), "param_kt")):
        stops = [(getattr(c, attr), c.point) for c in order]
        for c, line in zip(order, _arcs_of(curve, stops)):
            lines[tag, c.index] = line
    faces: list[ArrangementFace] = []
    unbounded = 0
    for boundary, in_K, in_Kt in crossing_faces(crossings):
        polygon = _join_polylines([
            lines[curve, start] if forward else lines[curve, start][::-1]
            for curve, start, _, forward in boundary])
        area = signed_area(polygon)
        if area == 0:
            raise InvariantFailure("degenerate arrangement face")
        unbounded += area < 0
        faces.append(ArrangementFace(len(faces), boundary, in_K, in_Kt, polygon))
    if unbounded != 1:
        raise InvariantFailure("expected exactly one unbounded face")
    return faces


class Containment(Enum):
    """Mutual position of a crossing-free pair."""

    DISJOINT = "disjoint"
    FIRST_INSIDE_SECOND = "first_inside_second"
    SECOND_INSIDE_FIRST = "second_inside_first"


def _containment(first: PolyJordanCurve,
                 second: PolyJordanCurve) -> Containment:
    """How a transverse pair without crossings lies. Each curve lies on one
    side of the other, so one vertex of each decides."""
    if second.contains(first.vertices[0]) is PointLocation.INSIDE:
        return Containment.FIRST_INSIDE_SECOND
    if first.contains(second.vertices[0]) is PointLocation.INSIDE:
        return Containment.SECOND_INSIDE_FIRST
    return Containment.DISJOINT


def _trivial_arrangement(first: PolyJordanCurve,
                         second: PolyJordanCurve) -> list[ArrangementFace]:
    """Faces for a crossing-free pair: nested or disjoint."""
    full1 = (("first", -1, -1, True),)
    full2 = (("second", -1, -1, True),)
    containment = _containment(first, second)
    if containment is Containment.FIRST_INSIDE_SECOND:
        faces = [ArrangementFace(0, full1, True, True, first.loop),
                 ArrangementFace(1, full1 + full2, False, True)]
    elif containment is Containment.SECOND_INSIDE_FIRST:
        faces = [ArrangementFace(0, full2, True, True, second.loop),
                 ArrangementFace(1, full1 + full2, True, False)]
    else:  # disjoint
        faces = [ArrangementFace(0, full1, True, False, first.loop),
                 ArrangementFace(1, full2, False, True, second.loop)]
    return faces + [ArrangementFace(2, full1 + full2, False, False)]


def _cuts(faces: Sequence[tuple[object, bool, bool]]) -> bool:
    """More than one face is (in K, out Kt), or more than one (in Kt, out K)."""
    only = [0, 0]
    for _, in_K, in_Kt in faces:
        if in_K != in_Kt:
            only[in_Kt] += 1
    return max(only) > 1


def crossing_pattern_cuts(crossings: CrossingSet) -> bool:
    """True when the faces of the crossing pattern split either difference
    region. A pattern without crossings never cuts."""
    return len(crossings) > 0 and _cuts(crossing_faces(crossings))


def cuts_each_other(first: PolyJordanCurve, second: PolyJordanCurve) -> bool:
    """True when either closed difference region is disconnected.

    Components of first-minus-second are exactly the (in, out) faces of the
    arrangement, and symmetrically, so the test counts the face labels of
    the integer pass's orders and kinds. It checks as check_transverse does
    and builds no `Fraction`, `Crossing` or `CrossingSet`.
    """
    _, _, _, by_kt, kinds = _crossing_pass(first.loop, second.loop)
    return len(kinds) > 0 and _cuts(_pattern_faces(by_kt, kinds))


def canonical_noncut_pair(m: int) -> tuple[PolyJordanCurve, PolyJordanCurve]:
    """The reference non-cutting transverse pair with 2m crossings.

    First curve: an 8 x 6m rectangle. Second curve: a slab to its left whose
    right wall carries m half-octagon bumps poking through the rectangle's
    left side, two crossings per bump. Both difference regions stay connected.

    Both are simple and counterclockwise by construction, and are built
    trusted from integers over 1 and 5, seeding the rows PLLoop.rows gives:
    the only seeded loops, as every noncut_ladder op reads these rows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    sx, sy = [-50, -5], [-10, -10]  # the slab, over 5
    for c in range(15, 30 * m, 30):  # bump centre 6i - 3
        sx += [-5, 2, 5, 2, -5]
        sy += [c - 10, c - 7, c, c + 7, c + 10]
    curves = []
    for den, xs, ys in ((1, (0, 8, 8, 0), (0, 0, 6 * m, 6 * m)),
                        (5, (*sx, -5, -50), (*sy, 30 * m + 10, 30 * m + 10))):
        rows = tuple([(x // den, y // den, 1) if x % den == 0 == y % den
                      else (x, y, den) for x, y in zip(xs, ys)])
        loop = trusted(PLLoop, rows=rows, vertices=tuple([
            RatPoint(Fraction(x, w), Fraction(y, w)) for x, y, w in rows]))
        curves.append(trusted(PolyJordanCurve, loop=loop))
    return curves[0], curves[1]
