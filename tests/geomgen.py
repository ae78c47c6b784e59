"""Shared seeded generators for geometry tests, and the reference helpers
that only tests and scripts use.

Everything here produces exact rational data from a `random.Random` instance,
so any failure reproduces from the seed alone.
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import accumulate
from math import lcm
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from fpindex.errors import (
    ConstraintOnCurve,
    HasFixedPoint,
    InputRejection,
    InvariantFailure,
    NotOrientationPreserving,
    NotPositivelyOriented,
    NotSimple,
    NotTransverse,
)
from fpindex.exact_geom import (
    PLLoop,
    PointLocation,
    RatPoint,
    MeetKind,
    Segment,
    between,
    origin_winding,
    point_in_polygon,
    pt,
    trusted,
)
from fpindex.jordan import (
    Containment,
    CrossKind,
    Crossing,
    CrossingSet,
    PolyJordanCurve,
    check_transverse,
    trace_faces,
    validate_curve,
)
from fpindex.plmap import (
    PLCorrespondence,
    fixed_point_index,
    random_correspondence,
)
from fpindex.prescribe import (
    ABOVE,
    BELOW,
    AdjacencyBox,
    _adjacent_pairs,
    _build_box,
    _events,
    _staircase,
    _walk,
)
from fpindex.torus import (
    Ranks,
    StaircasePath,
    TokenId,
    TorusDiagram,
    _read_path,
    build_diagram,
)


# -- reference geometry -------------------------------------------------------
#
# Rational ray and angle geometry that the package no longer needs: the
# package reads every rotation from its combinatorial structure, and the
# tests compare that reading with these angular constructions.


def point_at(curve: PolyJordanCurve, param: Fraction) -> RatPoint:
    """Point of a curve at a normalized parameter (vertex i of an n-gon at
    i/n); the package carries points as rows and never needs it."""
    rows = curve.loop.rows
    n = len(rows)
    i, r = divmod((param % 1) * n, 1)
    x, y, w = between(rows[i], rows[(i + 1) % n], r.numerator, r.denominator)
    return RatPoint(Fraction(x, w), Fraction(y, w))


def _cross(u: RatPoint, v: RatPoint) -> Fraction:
    return u.x * v.y - u.y * v.x


def cmp_directions_ccw(u: RatPoint, v: RatPoint) -> int:
    """Compare two nonzero direction vectors by counterclockwise angle.

    Angles start at the positive x-axis. Returns -1/0/+1. Vectors that are
    positive multiples of each other compare equal.
    """
    if u == RatPoint(0, 0) or v == RatPoint(0, 0):
        raise ValueError("zero direction")

    def half(d: RatPoint) -> int:
        # 0 for angles in [0, pi), 1 for [pi, 2*pi).
        return 0 if d.y > 0 or (d.y == 0 and d.x > 0) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = _cross(u, v)
    return (c < 0) - (c > 0)


def ray_first_hit(origin: RatPoint, direction: RatPoint,
                  segments: Iterable[Segment]) -> Fraction | None:
    """Smallest t > 0 with origin + t*direction on one of the segments."""
    if direction == RatPoint(0, 0):
        raise ValueError("zero ray direction")
    best: Fraction | None = None
    for seg in segments:
        e = seg.b - seg.a
        denom = _cross(direction, e)
        w = seg.a - origin
        if denom != 0:
            t = _cross(w, e) / denom
            u = _cross(w, direction) / denom
            if t > 0 and 0 <= u <= 1 and (best is None or t < best):
                best = t
        elif _cross(direction, w) == 0:
            # collinear: the nearer endpoint ahead is the first hit
            d2 = direction.dot(direction)
            for endpoint in (seg.a, seg.b):
                t = direction.dot(endpoint - origin) / d2
                if t > 0 and (best is None or t < best):
                    best = t
    return best


def interior_point(loop: PLLoop) -> RatPoint:
    """An exact interior point of a positively oriented simple loop.

    Shoots along the inward normal from the midpoint of the first edge and
    returns the point halfway to the first boundary the ray meets: the open
    stretch before that hit crosses no edge, so it lies inside the loop.
    """
    a, b = next(loop.edges())
    m = a + (b - a).scale(Fraction(1, 2))
    d = b - a
    normal = RatPoint(-d.y, d.x)
    t = ray_first_hit(m, normal, loop.segments()[1:])
    if t is None:
        raise InvariantFailure("inward ray escaped a closed loop")
    return m + normal.scale(t / 2)


def _ray_refinement(polyline, d: RatPoint) -> Fraction:
    """Angular tie-break for arcs leaving a node along the same ray: positive
    for a left bend, negative for a right bend, larger magnitude the earlier
    the bend comes."""
    base = polyline[0]
    for k in range(len(polyline) - 1):
        step = polyline[k + 1] - polyline[k]
        turn = _cross(d, step)
        if turn != 0:
            along = (polyline[k] - base).dot(d)
            if along <= 0:
                raise InvariantFailure("arc bends before leaving its node")
            return Fraction(1 if turn > 0 else -1) / along
        if step.dot(d) <= 0:
            raise InvariantFailure("arc doubles back through a contact point")
    return Fraction(0)


def _half_cmp(line1, line2) -> int:
    """Counterclockwise order of two polylines leaving the same node."""
    d = line1[1] - line1[0]
    order = cmp_directions_ccw(d, line2[1] - line2[0])
    if order != 0:
        return order
    k1 = _ray_refinement(line1, d)
    k2 = _ray_refinement(line2, d)
    if k1 == k2:
        raise InvariantFailure("indistinguishable arcs at a contact point")
    return -1 if k1 < k2 else 1


def angular_trace_faces(arcs):
    """trace_faces with each node's rotation found by sorting the half-edges
    leaving it by angle: half-edge 2k runs along arc (tail, head, polyline)
    k and 2k + 1 against it."""
    lines, tails = [], []
    for tail, head, polyline in arcs:
        lines += [polyline, polyline[::-1]]
        tails += [tail, head]
    outgoing: dict[int, list[int]] = {}
    for h, tail in enumerate(tails):
        outgoing.setdefault(tail, []).append(h)
    order = cmp_to_key(lambda g, h: _half_cmp(lines[g], lines[h]))
    for outs in outgoing.values():
        outs.sort(key=order)
    return trace_faces(lines[::2], outgoing.values())


def reversed_loop(loop: PLLoop) -> PLLoop:
    """The loop traversed the other way round."""
    return PLLoop(tuple(reversed(loop.vertices)))


def membership_matches_geometry(diagram: TorusDiagram,
                                first: PolyJordanCurve,
                                second: PolyJordanCurve) -> bool:
    """Whether the diagram's combinatorial memberships at constraint 1 agree
    with exact point-in-polygon queries on the curves it was built from."""
    in_second, in_first = diagram._ranks.membership(1)
    u = point_at(first, diagram.col_params[0])
    v = point_at(second, diagram.row_params[0])
    return ((point_in_polygon(second.loop, u)
             is PointLocation.INSIDE) == in_second
            and (point_in_polygon(first.loop, v)
                 is PointLocation.INSIDE) == in_first)


def winding_of_cycle(points: Sequence[RatPoint], p: RatPoint) -> int:
    """Winding number of a cyclic point sequence around p.

    Tolerates consecutive duplicate points (zero-length steps count for
    nothing). Raises PointOnLoop when p lies on the traced path.
    """
    _, xs, ys = integer_coords([q - p for q in points])
    return origin_winding(list(zip(xs, ys)))


class SquareTooLarge(InputRejection):
    """No square around the mark avoids all other marks at this size."""


def local_winding(diagram: TorusDiagram, first: PolyJordanCurve,
                  second: PolyJordanCurve, crossing: Crossing,
                  eps: Fraction | None = None) -> int:
    """Winding of the displacement image of a small parameter square around
    a crossing of first and second, on the diagram built from them: +1 at
    entering crossings, -1 at exiting ones."""
    def bound(value: Fraction, others: list[Fraction], n: int) -> Fraction:
        gaps = [(o - value) % 1 for o in others if o != value]
        gaps += [(value - o) % 1 for o in others if o != value]
        seg = Fraction(1, n)
        in_seg = min((value % seg), seg - (value % seg)) or seg
        return min(gaps + [in_seg])

    s, t = crossing.param_k, crossing.param_kt
    s_max = bound(s, list(diagram.col_params), len(first))
    t_max = bound(t, list(diagram.row_params), len(second))
    if eps is None:
        eps = min(s_max, t_max) / 2
    elif eps >= min(s_max, t_max):
        raise SquareTooLarge("square would cross another token or a vertex")
    corners = [(s - eps, t - eps), (s + eps, t - eps),
               (s + eps, t + eps), (s - eps, t + eps)]
    cycle = [point_at(second, tc) - point_at(first, sc) for sc, tc in corners]
    return winding_of_cycle(cycle, RatPoint(Fraction(0), Fraction(0)))


def abstract_diagram(col_order: Sequence[TokenId], row_order: Sequence[TokenId],
                     kinds: dict[int, CrossKind],
                     containment: Containment | None = None) -> TorusDiagram:
    """Purely combinatorial diagram, for synthesis and enumeration."""
    return TorusDiagram(col_order=tuple(col_order), row_order=tuple(row_order),
                        kinds=tuple(sorted(kinds.items())),
                        containment=containment)


def constraint_point(diagram: TorusDiagram, i: int) -> tuple[Fraction, Fraction]:
    """Constraint i's lattice point in the cut unit square."""
    col, row = diagram._ranks.constraints[i - 1]
    return Fraction(col, diagram.size), Fraction(row, diagram.size)


class Mark(NamedTuple):
    """A crossing at token ranks (col, row) of a size-n diagram, which sits
    at (x, y) = (col / n, row / n) in the cut unit square."""

    crossing_id: int
    kind: CrossKind
    col: int
    row: int
    x: Fraction
    y: Fraction


def marks(diagram: TorusDiagram) -> list[Mark]:
    """The diagram's marks in column order, read off its ranks."""
    ranks, kind, n = diagram._ranks, dict(diagram.kinds), diagram.size
    return [Mark(k, kind[k], col, row, Fraction(col, n), Fraction(row, n))
            for col, row, k in zip(ranks.cols, ranks.rows, ranks.ids)]


def without_marks(diagram: TorusDiagram, ids: Iterable[int]) -> TorusDiagram:
    """The diagram without the given marks, every other token keeping its
    cyclic position, built by the checked constructor: the reference for
    the child levels the solver derives (`prescribe._child`).

    The child is purely combinatorial: token orders, kinds and a
    containment tag, with no true parameters. Dropping the last marks
    freezes the current membership answer into that tag: removing a doubly
    adjacent pair never sweeps across a constraint point, so its membership
    is unchanged.
    """
    gone = set(ids)
    cols = tuple([t for t in diagram.col_order
                  if t[0] != "m" or t[1] not in gone])
    rows = tuple([t for t in diagram.row_order
                  if t[0] != "m" or t[1] not in gone])
    kinds = tuple([(k, v) for k, v in diagram.kinds if k not in gone])
    containment = diagram.containment
    if not any(t[0] == "m" for t in cols) and containment is None:
        in_second, in_first = diagram._ranks.membership(1)
        if in_second and in_first:
            raise InvariantFailure("contradictory memberships at deletion")
        containment = (Containment.FIRST_INSIDE_SECOND if in_second
                       else Containment.SECOND_INSIDE_FIRST if in_first
                       else Containment.DISJOINT)
    return TorusDiagram(col_order=cols, row_order=rows, kinds=kinds,
                        containment=containment)


def straight_path(diagram: TorusDiagram) -> StaircasePath:
    """The polyline through the three constraint lattice points."""
    x2, y2 = constraint_point(diagram, 2)
    x3, y3 = constraint_point(diagram, 3)
    # the diagram's constraints rise in both orders: 0 < rank 2 < rank 3 < n
    return StaircasePath(((Fraction(0), Fraction(0)), (x2, y2), (x3, y3),
                          (Fraction(1), Fraction(1))))


def cyclic_offsets(params: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Each token's parameter offset from the first token, closed by 1."""
    base = params[0]
    return tuple([(p - base) % 1 for p in params] + [Fraction(1)])


def position_of_param(params: tuple[Fraction, ...] | None,
                      value: Fraction) -> Fraction:
    """Position in [0, 1) of a curve parameter on a diagram axis: from
    token k's parameter to token k + 1's it runs linearly from k/n to
    (k + 1)/n, found by a bisection of the offsets from the first token. An
    axis without true parameters places the value at itself mod 1."""
    value = value % 1
    if params is None:
        return value
    offsets = cyclic_offsets(params)
    size = len(params)
    off = (value - params[0]) % 1
    k = bisect.bisect_right(offsets, off) - 1
    if not 0 <= k < size:
        raise InvariantFailure("parameter fell outside the token cover")
    frac = (off - offsets[k]) / (offsets[k + 1] - offsets[k])
    return (k + frac) / size


@dataclass(frozen=True)
class AffineMap:
    """Exact affine plane map x' = a x + b y + e, y' = c x + d y + f."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction = Fraction(0)
    f: Fraction = Fraction(0)

    def determinant(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def apply(self, p: RatPoint) -> RatPoint:
        return RatPoint(self.a * p.x + self.b * p.y + self.e,
                        self.c * p.x + self.d * p.y + self.f)


def transform_pair(source: PolyJordanCurve, target: PolyJordanCurve,
                   phi: PLCorrespondence, mapping: AffineMap,
                   ) -> tuple[PolyJordanCurve, PolyJordanCurve, PLCorrespondence]:
    """Transport a correspondence along an orientation-preserving affine map.

    Parameters are per-edge fractions, which affine maps preserve, so the same
    breakpoint table works for the transformed curves. A map with positive
    determinant keeps a curve simple and counterclockwise, so the images are
    not checked again.
    """
    if mapping.determinant() <= 0:
        raise NotOrientationPreserving("affine map must have positive determinant")

    def image(curve: PolyJordanCurve) -> PolyJordanCurve:
        return trusted(PolyJordanCurve, loop=PLLoop(tuple(
            [mapping.apply(p) for p in curve.vertices])))

    return image(source), image(target), phi


# -- loop-wide integer reference --------------------------------------------
#
# The package reads every point as its own homogeneous row (exact_geom.row).
# These kernels are the form it replaced: all points scaled to integers over
# one shared denominator, the lcm of every coordinate denominator. The tests
# hold the row kernels to them.


def integer_coords(points: Sequence[RatPoint],
                   ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(D, X, Y) with point k equal to (X[k] / D, Y[k] / D).

    D > 0 is the lcm of every coordinate denominator, so predicates on the
    integer numerators agree with predicates on the points.
    """
    den = lcm(*[q.denominator for p in points for q in (p.x, p.y)])
    return (den,
            tuple([p.x.numerator * (den // p.x.denominator) for p in points]),
            tuple([p.y.numerator * (den // p.y.denominator) for p in points]))


def ref_cross(a, b, c) -> int:
    """Twice the signed area of the integer triangle a, b, c."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ref_in_box(a, b, p) -> bool:
    """The integer point p lies in the closed bounding box of a and b."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def ref_meet(a, b, c, d):
    """(kind, d1, d2, d3, d4) of the integer segments ab and cd, a PROPER
    crossing at d1 / (d1 - d2) along ab and d3 / (d3 - d4) along cd."""
    d1, d2 = ref_cross(c, d, a), ref_cross(c, d, b)
    d3, d4 = ref_cross(a, b, c), ref_cross(a, b, d)
    if ((d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0)
            or (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0)):
        return MeetKind.EMPTY, d1, d2, d3, d4
    if d1 and d2 and d3 and d4:
        return MeetKind.PROPER, d1, d2, d3, d4
    if ((d1 == 0 and ref_in_box(c, d, a)) or (d2 == 0 and ref_in_box(c, d, b))
            or (d3 == 0 and ref_in_box(a, b, c))
            or (d4 == 0 and ref_in_box(a, b, d))):
        return MeetKind.DEGENERATE, d1, d2, d3, d4
    return MeetKind.EMPTY, d1, d2, d3, d4


def ref_locate_param(vertices: Sequence[RatPoint], p: RatPoint):
    """PolyJordanCurve.locate_param on the loop-wide integers of the
    vertices and p: the normalized parameter of p, or None off the loop."""
    _, xs, ys = integer_coords([*vertices, p])
    pts = list(zip(xs, ys))
    q = pts.pop()
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if ref_cross(a, b, q) or not ref_in_box(a, b, q):
            continue
        k = 0 if a[0] != b[0] else 1
        if q[k] == b[k]:
            continue  # belongs to the next segment's start
        return Fraction(i * (b[k] - a[k]) + q[k] - a[k], n * (b[k] - a[k]))
    return None


# -- threaded paths -----------------------------------------------------------


def delta_split(diagram: TorusDiagram, path: StaircasePath,
                ) -> tuple[set[int], set[int]]:
    """Mark ids strictly below and strictly above the path, by the package's
    reading (`torus._read_path`)."""
    points = [(x.numerator, x.denominator, y.numerator, y.denominator)
              for x, y in path.points]
    return _read_path(diagram._ranks, points, False)[:2]


def walk_below(diagram: TorusDiagram, below_ids):
    """The package's integer walk of a below-set on the whole diagram:
    (scale, vertices, index), or None when the set is not realizable."""
    level = diagram._ranks
    scale, events = _events(level)
    walk = _walk(level, scale, events, below_ids)
    return None if walk is None else (scale, *walk)


def find_doubly_adjacent(diagram: TorusDiagram) -> list[AdjacencyBox]:
    """Every doubly adjacent pair's box, in column order, each built as the
    solver builds it when it reaches the pair (`prescribe._build_box`)."""
    level = diagram._ranks
    return [_build_box(level, *pair) for pair in _adjacent_pairs(level)]


def anchored_events(level: Ranks, extra) -> tuple[int, list]:
    """`prescribe._events` with extra anchors at the given token-rank
    points, which lie off the token grid: the scale also takes the lcm of
    their denominators and one halving per anchor, so every midpoint the
    walk takes stays an integer."""
    scale, events = _events(level)
    factor = lcm(*[v.denominator for p in extra for v in p]) << len(extra)
    scale *= factor
    events = [(x * factor, y * factor, cid) for x, y, cid in events]
    events += [(x.numerator * (scale // x.denominator),
                y.numerator * (scale // y.denominator), None) for x, y in extra]
    events.sort(key=lambda e: e[0])
    return scale, events


def anchor_points(diagram: TorusDiagram,
                  extra_pairs) -> list[tuple[Fraction, Fraction]]:
    """Extra prescribed pairs (source, target parameters) in token-rank
    units, placed by `position_of_param`; each must lie off the token grid
    and off the others' columns and rows."""
    n = diagram.size
    points = [(position_of_param(diagram.col_params, s) * n,
               position_of_param(diagram.row_params, t) * n)
              for s, t in extra_pairs]
    if any(x.denominator == 1 or y.denominator == 1 for x, y in points):
        raise ConstraintOnCurve("extra prescribed pair collides with a token")
    if len({x for x, _ in points}) < len(points) or \
            len({y for _, y in points}) < len(points):
        raise ConstraintOnCurve("extra prescribed pairs collide with each other")
    return points


class TooLarge(InputRejection):
    """The diagram has more than 12 crossings, too many below-sets for
    `oracle_with_anchors` to walk."""


def oracle_with_anchors(diagram: TorusDiagram,
                        extra_pairs=()) -> frozenset[int]:
    """Every index a faithful mark-avoiding staircase path through the
    three constraints and the extra anchors achieves, by running the
    package's walk on every below-set. With no extra pair this is the mask
    enumeration the package once ran, and the tests' reference for
    `oracle_enumerate` and `oracle_dynamic_program`. The anchors shrink the
    feasible set without changing any value, which turns the three-point
    problem into a diagnostic four-or-more-point one."""
    level = diagram._ranks
    ids = level.ids
    if len(ids) > 12:
        raise TooLarge(f"{len(ids)} crossings exceed the enumeration bound of 12")
    scale, events = anchored_events(level, anchor_points(diagram, extra_pairs))
    achievable = set()
    for mask in range(1 << len(ids)):
        below = frozenset(cid for i, cid in enumerate(ids) if mask >> i & 1)
        walk = _walk(level, scale, events, below)
        if walk is not None:
            achievable.add(walk[1])
    return frozenset(achievable)


def oracle_dynamic_program(diagram: TorusDiagram) -> frozenset[int]:
    """Every index achievable by a faithful mark-avoiding staircase path,
    by the bitset dynamic program `oracle_enumerate` used before its greedy:
    the tests' reference for the greedy past the masks' reach.

    A dynamic program over the events in column order: constraints 2 and 3
    (the anchors) and the marks. A path passes each event at a threshold t
    that never falls; with row r at 2r + 1, a mark lies below when
    2r + 1 < t, and an anchor on the path at t = 2r + 1. Bit k of
    `reach[t]` says that some path at threshold t has k - #marks as its sum
    of c over the marks below, c = -1 for P and +1 for its partner. A
    prefix OR lets the threshold rise; a mark shifts the states above it by
    its c and closes its own; an anchor keeps only its own. The path starts
    through constraint 1, at t = 1. The index is the below-form's base plus
    the sum. O(events * size) integer operations.
    """
    level = diagram._ranks
    ids, p_ids = level.ids, level.p_ids
    base = level.read(frozenset(), frozenset(ids), 1)
    reach = [0] * (2 * level.size + 1)
    reach[1] = 1 << len(ids)
    for _, row, cid in oracle_events(level):
        reach = list(accumulate(reach, or_))
        t = 2 * row + 1
        if cid is None:
            reach = [0] * t + [reach[t]] + [0] * (len(reach) - t - 1)
        else:
            reach[t] = 0
            reach[t + 1:] = ([v >> 1 for v in reach[t + 1:]] if cid in p_ids
                             else [v << 1 for v in reach[t + 1:]])
    sums = reduce(or_, reach)
    return frozenset(base + k - len(ids)
                     for k in range(sums.bit_length()) if sums >> k & 1)


def oracle_events(level: Ranks) -> list:
    """The events `oracle_enumerate` passes: the anchors and the marks as
    (col, row, id) on token ranks, in column order, an anchor's id None."""
    return sorted([(c, r, None) for c, r in level.constraints[1:]]
                  + list(zip(level.cols, level.rows, level.ids)))


def oracle_witnesses(diagram: TorusDiagram) -> tuple[frozenset, frozenset]:
    """Below-sets whose walks read the least and the greatest index of
    `oracle_enumerate`'s interval.

    `prescribe._least`'s greedy runs again with a log of its operations on
    the drops. Then the events are undone backwards from a threshold over
    everything: at each event the path takes the last drop at or below the
    threshold it takes at the next event, or the start when there is none,
    and a mark lies below when that threshold exceeds its t.
    """
    level = diagram._ranks
    events = oracle_events(level)
    found = []
    for sign in (1, -1):
        start, drops, log = 1, [], []
        for _, row, cid in events:
            t = 2 * row + 1
            c = -sign if cid in level.p_ids else sign
            if cid is None:
                log.append(("clear", start, drops))
                start, drops = t, []
            elif t < start:
                log.append(None)
            elif c < 0:
                bisect.insort(drops, t + 1)
                log.append(("add", t + 1))
            elif (k := bisect.bisect(drops, t)) < len(drops):
                log.append(("cancel", drops.pop(k)))
            else:
                log.append(None)
        below, height = set(), math.inf
        for (_, row, cid), op in zip(reversed(events), reversed(log)):
            k = bisect.bisect(drops, height)
            height = drops[k - 1] if k else start
            if cid is not None and height > 2 * row + 1:
                below.add(cid)
            if op is None:
                continue
            if op[0] == "clear":
                _, start, drops = op
            elif op[0] == "add":
                drops.remove(op[1])
            else:
                bisect.insort(drops, op[1])
        found.append(frozenset(below))
    return tuple(found)


def thread_path(diagram: TorusDiagram, below_ids) -> StaircasePath:
    """Monotone faithful path with exactly the given marks below it, from
    the package's integer walk."""
    walk = walk_below(diagram, below_ids)
    if walk is None:
        raise InvariantFailure("bipartition is not realizable")
    return _staircase(diagram, *walk[:2])


def reference_thread_path(diagram, below_ids, extra=()):
    """The threading on `Fraction`s: a midpoint level per mark, every path
    point divided by n."""
    n = diagram.size
    anchors = [*diagram._ranks.constraints[1:], *extra]
    events = sorted([(x, y, "anchor") for x, y in anchors] +
                    [(m.col, m.row, BELOW if m.crossing_id in below_ids
                      else ABOVE) for m in marks(diagram)])
    ceiling = [n] * (len(events) + 1)
    for i in range(len(events) - 1, -1, -1):
        _, y, tag = events[i]
        ceiling[i] = ceiling[i + 1] if tag == BELOW else min(ceiling[i + 1], y)
    points = [(Fraction(0), Fraction(0))]
    level = floor = 0
    for i, (x, y, tag) in enumerate(events):
        if tag == "anchor":
            if level >= y:
                raise InvariantFailure("bipartition is not realizable")
            points.append((Fraction(x, n), Fraction(y, n)))
            level = floor = y
            continue
        if tag == BELOW:
            floor = max(floor, y)
        lo = max(level, floor)
        hi = ceiling[i]
        if lo >= hi:
            raise InvariantFailure("bipartition is not realizable")
        level = Fraction(lo + hi, 2)
        points.append((Fraction(x, n), level / n))
    points.append((Fraction(1), Fraction(1)))
    return StaircasePath(tuple(points))


# -- generators ---------------------------------------------------------------


def rational_direction(t: Fraction) -> RatPoint:
    """Unit-circle point via the tangent half-angle parametrization.

    As t runs over the rationals the angle runs monotonically over
    (-pi, pi), so sorted t values give counterclockwise-sorted directions.
    """
    den = 1 + t * t
    return RatPoint((1 - t * t) / den, 2 * t / den)


def unit_directions(n: int = 64) -> tuple[RatPoint, ...]:
    """Rational points on the unit circle at near-regular angles,
    counterclockwise, with denominators near 10^12."""
    out = []
    for k in range(n):
        u = Fraction(2 * k + 1, 2 * n)
        t = Fraction(math.tan(math.pi * (float(u) - 0.5))).limit_denominator(10**6)
        out.append(rational_direction(t))
    return tuple(out)


_DIRS = unit_directions()


def circle_polygon(cx: Fraction, cy: Fraction, r: Fraction,
                   dirs: tuple[RatPoint, ...] = _DIRS) -> PolyJordanCurve:
    """Polygon inscribed in the circle of radius r about (cx, cy), with a
    vertex in each of the directions dirs: a regular 64-gon by default."""
    return PolyJordanCurve(PLLoop(tuple(
        RatPoint(cx + r * d.x, cy + r * d.y) for d in dirs)))


def _quarters(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randrange(4 * lo, 4 * hi + 1), 4)


def circle_pools(rng: random.Random, per_class: int,
                 dirs: tuple[RatPoint, ...] = _DIRS):
    """Verified circle pairs in four mutual positions: "disjoint",
    "nested", "two_cross" and "general" map to lists of per_class pairs.
    Each circle is a circle_polygon on dirs, 64-gons by default.

    Polygon circles inscribed in round circles stay within a relative sag of
    1 - cos(pi/n) for n near-regular directions, so for n >= 16 quarter-unit
    margins on the radii and separations keep each class's defining property
    exact; the crossing classes are verified outright.
    """
    F = Fraction
    disjoint, nested, two_cross, general = [], [], [], []
    while len(disjoint) < per_class:
        r1, r2 = _quarters(rng, 1, 3), _quarters(rng, 1, 3)
        d = r1 + r2 + _quarters(rng, 1, 3)
        disjoint.append((circle_polygon(F(0), F(0), r1, dirs),
                         circle_polygon(d, F(0), r2, dirs)))
    while len(nested) < per_class:
        r_in = _quarters(rng, 1, 2)
        r_out = r_in + _quarters(rng, 1, 3)
        cx = F(rng.randrange(-1, 2), 4)
        cy = F(rng.randrange(-1, 2), 4)
        inner = circle_polygon(cx, cy, r_in, dirs)
        outer = circle_polygon(F(0), F(0), r_out, dirs)
        nested.append((inner, outer) if rng.randrange(2) else (outer, inner))
    while len(two_cross) < per_class:
        r1, r2 = _quarters(rng, 2, 4), _quarters(rng, 2, 4)
        lo, hi = abs(r1 - r2) + 1, r1 + r2 - 1
        d = lo + F(rng.randrange(int(4 * (hi - lo)) + 1), 4)
        pair = (circle_polygon(F(0), F(0), r1, dirs),
                circle_polygon(d, F(0), r2, dirs))
        if len(check_transverse(*pair)) == 2:
            two_cross.append(pair)
    while len(general) < per_class:
        pair = (circle_polygon(F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3)),
                               _quarters(rng, 1, 4), dirs),
                circle_polygon(F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3)),
                               _quarters(rng, 1, 4), dirs))
        try:
            if len(check_transverse(*pair)) >= 2:
                general.append(pair)
        except NotTransverse:
            continue
    return {"disjoint": disjoint, "nested": nested,
            "two_cross": two_cross, "general": general}


def random_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A random multiple of 1/64 in [lo, hi]."""
    return Fraction(rng.randrange(int(lo * 64), int(hi * 64) + 1), 64)


def star_polygon(rng: random.Random, n: int, center: RatPoint,
                 rmin: Fraction, rmax: Fraction) -> PLLoop:
    """A simple, positively oriented star-shaped polygon around `center`.

    One vertex per angular sector (stratified), so every angular gap stays
    below pi; that makes the radial polygon simple and keeps the center
    strictly inside regardless of the radii.
    """
    us = [(i + Fraction(rng.randrange(5, 96), 100)) / n for i in range(n)]
    ts = [Fraction(math.tan(math.pi * (float(u) - 0.5))).limit_denominator(10**6)
          for u in us]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    vertices = []
    for t in ts:
        r = random_fraction(rng, rmin, rmax)
        d = rational_direction(t)
        vertices.append(center + d.scale(r))
    return PLLoop(tuple(vertices))


def square_curve(x0, y0, x1, y1) -> PolyJordanCurve:
    return validate_curve([pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)])


def grid_curve(rng: random.Random) -> PolyJordanCurve:
    """A rectangle or a simple polygon with vertices on the 5 x 5 grid.

    Half the draws are axis-parallel rectangles, which often share edges
    with each other; the rest join 3 to 6 distinct grid points in
    counterclockwise order around their centroid, redrawn until simple.
    """
    while True:
        if rng.randrange(2):
            x0, x1 = sorted(rng.sample(range(5), 2))
            y0, y1 = sorted(rng.sample(range(5), 2))
            return square_curve(x0, y0, x1, y1)
        cells = rng.sample(range(25), rng.randrange(3, 7))
        points = [pt(c % 5, c // 5) for c in cells]
        center = RatPoint(sum(p.x for p in points) / len(points),
                          sum(p.y for p in points) / len(points))
        if center in points:
            continue
        points.sort(key=cmp_to_key(
            lambda p, q: cmp_directions_ccw(p - center, q - center)))
        try:
            return validate_curve(points)
        except (NotSimple, NotPositivelyOriented):
            continue


def random_map_over(rng: random.Random, breakpoints: int,
                    denominator: int) -> PLCorrespondence:
    """`random_correspondence`'s draw over any denominator, each Fraction
    drawn straight into its set: at 1024 the same map and the same draws
    as the package's. Smaller denominators land bends on vertices."""
    def draw() -> list[Fraction]:
        vals: set[Fraction] = set()
        while len(vals) < breakpoints:
            vals.add(Fraction(rng.randrange(denominator), denominator))
        return sorted(vals)
    s_vals, t_vals = draw(), draw()
    shift = rng.randrange(breakpoints)
    return PLCorrespondence(tuple(zip(s_vals, t_vals[shift:] + t_vals[:shift])))


def identity_params(n: int) -> PLCorrespondence:
    """The correspondence sending vertex i of an n-gon to vertex i."""
    return PLCorrespondence(tuple((Fraction(i, n), Fraction(i, n))
                                  for i in range(n)))


def indexable_map(rng: random.Random, first: PolyJordanCurve,
                  second: PolyJordanCurve, breakpoints: range = range(3, 10),
                  ) -> tuple[PLCorrespondence, int]:
    """(phi, its index from first to second): `random_correspondence` maps,
    each with a breakpoint count drawn from the range, redrawn until one
    has no boundary fixed point."""
    while True:
        phi = random_correspondence(rng, rng.randrange(breakpoints.start,
                                                       breakpoints.stop))
        try:
            return phi, fixed_point_index(first, second, phi)
        except HasFixedPoint:
            continue


def square_map_with_detours(rng: random.Random,
                            skip_edge: int) -> PLCorrespondence:
    """Identity on the corners, random extra bends off the shared edge.

    Breakpoints stay inside their own edge band, so every corner still maps
    to the matching corner and the skipped edge maps affinely onto its image.
    """
    pairs = [(Fraction(k, 4), Fraction(k, 4)) for k in range(4)]
    for edge in range(4):
        if edge == skip_edge:
            continue
        k = rng.randrange(0, 3)
        if not k:
            continue
        ss = sorted(rng.sample(range(1, 16), k))
        ts = sorted(rng.sample(range(1, 16), k))
        base = Fraction(edge, 4)
        pairs.extend((base + Fraction(s, 64), base + Fraction(t, 64))
                     for s, t in zip(ss, ts))
    return PLCorrespondence(tuple(sorted(pairs)))


def glued_square_fixture(rng: random.Random):
    """Two source squares sharing the edge x=m, two targets sharing x=M.

    Both pieces send the shared source edge onto the shared target edge by
    the same y-affine map, so the pair always glues. Returns
    (source_a, target_a, phi_a, source_b, target_b, phi_b).
    """
    y0 = Fraction(rng.randrange(-3, 1))
    y1 = y0 + rng.randrange(2, 6)
    x0 = Fraction(rng.randrange(-3, 1))
    xm = x0 + rng.randrange(1, 4)
    x1 = xm + rng.randrange(1, 4)
    ty0 = Fraction(rng.randrange(-6, 3))
    ty1 = ty0 + rng.randrange(2, 10)
    tx0 = Fraction(rng.randrange(-6, 3))
    txm = tx0 + rng.randrange(1, 7)
    tx1 = txm + rng.randrange(1, 7)
    return (square_curve(x0, y0, xm, y1), square_curve(tx0, ty0, txm, ty1),
            square_map_with_detours(rng, skip_edge=1),
            square_curve(xm, y0, x1, y1), square_curve(txm, ty0, tx1, ty1),
            square_map_with_detours(rng, skip_edge=3))


def lens_fixture():
    """Overlapping squares, two crossings, identity-parameter map, index 0:
    (first, second, crossings, diagram)."""
    first = square_curve(0, 0, 4, 4)
    second = square_curve(2, 1, 6, 3)
    crossings = check_transverse(first, second)
    constraints = [(Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(1, 4)),
                   (Fraction(3, 4), Fraction(3, 4))]
    diagram = build_diagram(first, second, crossings, constraints)
    return first, second, crossings, diagram


def random_transverse_pair(
        rng: random.Random, min_crossings: int = 2,
        max_crossings: int | None = None, sides: range = range(6, 13),
        spread: int = 3,
) -> tuple[PolyJordanCurve, PolyJordanCurve, CrossingSet]:
    """Rejection-sample a transverse pair of star polygons with crossings,
    each with a number of sides in `sides`, the second centred at an
    integer offset of at most `spread` on each axis.

    Tangent or overlapping draws are discarded, not nudged, so the returned
    pair is exactly transverse. Concentric pairs of 10- to 16-gons
    (`sides=range(10, 17), spread=0`) have 10 to 12 crossings about one
    draw in four.
    """
    def offset() -> Fraction:
        return Fraction(rng.randrange(-spread, spread + 1))

    while True:
        a = star_polygon(rng, rng.randrange(sides.start, sides.stop),
                         pt(0, 0), 2, 5)
        off = pt(offset(), offset())
        b = star_polygon(rng, rng.randrange(sides.start, sides.stop), off, 2, 5)
        try:
            first = validate_curve(a)
            second = validate_curve(b)
            crossings = check_transverse(first, second)
        except NotTransverse:
            continue
        if len(crossings) < min_crossings:
            continue
        if max_crossings is not None and len(crossings) > max_crossings:
            continue
        return first, second, crossings


def synthesize_constraints(crossings, phi, rng: random.Random):
    """Three distinct source parameters off the crossing grid, paired
    through phi."""
    banned_s = {c.param_k for c in crossings}
    banned_t = {c.param_kt for c in crossings}
    pairs = {}
    while len(pairs) < 3:
        s = Fraction(rng.randrange(997), 997)
        t = phi.evaluate(s)
        if s in banned_s or t in banned_t or s in pairs:
            continue
        pairs[s] = t
    return sorted(pairs.items())


def random_monotone_path(rng: random.Random, count: int,
                         den: int) -> StaircasePath:
    """Monotone path from (0, 0) to (1, 1) through `count` random interior
    vertices on the 1/den grid."""
    xs = sorted(rng.sample(range(1, den), count))
    ys = sorted(rng.sample(range(1, den), count))
    return StaircasePath(((Fraction(0), Fraction(0)),
                          *[(Fraction(x, den), Fraction(y, den))
                            for x, y in zip(xs, ys)],
                          (Fraction(1), Fraction(1))))


def path_through_constraints(rng: random.Random, diagram,
                             den: int) -> StaircasePath:
    """Random monotone path over 1/den steps through constraints 2 and 3."""
    corners = [(Fraction(0), Fraction(0)), constraint_point(diagram, 2),
               constraint_point(diagram, 3), (Fraction(1), Fraction(1))]
    points = [corners[0]]
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        lo_x, hi_x = int(x0 * den) + 1, int(x1 * den)
        lo_y, hi_y = int(y0 * den) + 1, int(y1 * den)
        count = rng.randrange(min(hi_x - lo_x, hi_y - lo_y, 4) + 1)
        xs = sorted(rng.sample(range(lo_x, hi_x), count))
        ys = sorted(rng.sample(range(lo_y, hi_y), count))
        points += [(Fraction(x, den), Fraction(y, den))
                   for x, y in zip(xs, ys)]
        points.append((x1, y1))
    return StaircasePath(tuple(points))


def turning_winding_oracle(points: list[RatPoint], p: RatPoint) -> int:
    """Independent winding oracle: accumulate exact-ish turning angles.

    Uses floats, which is fine for an oracle: the total is an integer
    multiple of 2*pi and the accumulated error stays far below pi.
    """
    total = 0.0
    n = len(points)
    prev = None
    for i in range(n + 1):
        q = points[i % n]
        ang = math.atan2(float(q.y - p.y), float(q.x - p.x))
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2 * math.pi
            while d < -math.pi:
                d += 2 * math.pi
            total += d
        prev = ang
    return round(total / (2 * math.pi))


def parity_ray_oracle(loop: PLLoop, p: RatPoint) -> bool:
    """Independent even-odd inclusion oracle (classic crossing parity)."""
    inside = False
    verts = loop.vertices
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (b.x - a.x) * (p.y - a.y) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside
