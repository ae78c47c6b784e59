"""Exact rational plane geometry.

Every coordinate is a `fractions.Fraction` and every predicate is decided
exactly; nothing in here touches floats, rounds, or perturbs. Degenerate
configurations are reported, never repaired.

Predicates run on integers, with one point form: the homogeneous row
(X, Y, W) of `row`, W > 0 the lcm of the point's own two denominators, which
a loop caches per vertex (`PLLoop.rows`) with one edge table built from them
(`PLLoop.edge_keys`). The kernels `turn_int`, `in_box_int`, `meet_int`,
`edge_crossing` and `origin_winding` decide predicates on rows alone.

Sign conventions, used consistently by the whole package:

* orient2d(a, b, c) is +1 when the triangle a, b, c winds counterclockwise,
  so "c is to the left of the directed line a->b" is orient2d(a, b, c) > 0.
* Positive (counterclockwise) loops have positive signed area and keep their
  interior on the left of each directed edge.
* winding_number counts signed crossings of a rightward horizontal ray, with
  half-open vertex handling so that vertices on the ray are never counted
  twice: an edge contributes +1 when it crosses the ray upward strictly left
  of the query point, -1 when it crosses downward.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Iterator, Sequence, Union

from .errors import PointOnLoop

RatLike = Union[int, str, Fraction]


_new = object.__new__
_set = object.__setattr__  # writes a field past the raising __setattr__
_MISSING = object()


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value_type(cls):
    """Class decorator that makes `cls` an immutable value type.

    `cls._fields` names the fields in order. Two instances are equal when
    they are of the same class and their field tuples are equal; an
    instance hashes as its field tuple and reprs as `Name(field=value, ...)`.
    Setting or deleting any attribute raises AttributeError, so `__init__`
    and `trusted` write fields with `_set`. A class with a
    `cached_property` keeps its `__dict__`; the others use `__slots__`.

    A class that defines no `__init__` gets a shared one. It binds the
    positional arguments, then the keyword arguments, to `_fields` in order,
    fills a field left out from `cls._defaults` (a dict declared next to
    `_fields`), and raises TypeError wherever a frozen dataclass would: a
    missing field, an unknown keyword, too many positionals, or a field
    given twice. Validating classes write their own `__init__`, and so do
    four that only set fields: `RatPoint`, built per vertex, where the
    shared binding costs about twice a hand-written one; `Crossing`, which
    keeps its `point` field in a slot behind a property; `SegmentMeeting`,
    which the benchmark times per call; and `OverlayReport`, which also sets
    a slot that is not a field.
    """
    names = cls._fields
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda obj: (get(obj),)
    defaults = cls.__dict__.get("_defaults", {})
    where = cls.__qualname__ + "()"

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{where} missing argument {name!r}")
            _set(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            problem = ("got multiple values for argument" if name in names
                       else "got an unexpected keyword argument")
            raise TypeError(f"{where} {problem} {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join([f"{name}={value!r}"
                          for name, value in zip(names, values(self))])
        return f"{self.__class__.__qualname__}({body})"

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _no_setattr, _no_delattr
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    return cls


def trusted(cls, **fields):
    """An instance of the value type `cls` with the given fields set and
    its `__init__`, written out or shared, skipped. A field left out reads
    the class attribute of that name (`TorusDiagram` declares some), never
    `_defaults`, so a slotted class must be given every field; a cached
    value (a loop's rows) may be seeded too.

    This is the one trusted constructor behind the package's validated
    types. Call it only where the checks would pass by construction: on an
    object derived from one that has passed them, by an operation that
    keeps them (an inverse, a rotation, a translate, a child diagram).
    """
    obj = _new(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj


def rat(value: RatLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


@value_type
class RatPoint:
    """A point (or vector; the algebra is the same) with rational coordinates."""

    __slots__ = _fields = ("x", "y")

    # written out: built per vertex, where the shared binding costs ~2x
    def __init__(self, x: Fraction, y: Fraction) -> None:
        _set(self, "x", x)
        _set(self, "y", y)

    def __add__(self, other: "RatPoint") -> "RatPoint":
        return RatPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RatPoint") -> "RatPoint":
        return RatPoint(self.x - other.x, self.y - other.y)

    def scale(self, factor: RatLike) -> "RatPoint":
        f = rat(factor)
        return RatPoint(self.x * f, self.y * f)

    # kept for the benchmark's per-call timings until it times the row kernels
    def dot(self, other: "RatPoint") -> Fraction:
        return self.x * other.x + self.y * other.y


def pt(x: RatLike, y: RatLike) -> RatPoint:
    return RatPoint(rat(x), rat(y))


ORIGIN = pt(0, 0)


Row = tuple[int, int, int]


def row(p: RatPoint) -> Row:
    """p as the integer row (X, Y, W) with p = (X / W, Y / W), where W > 0
    is the lcm of p's two denominators."""
    (nx, qx), (ny, qy) = p.x.as_integer_ratio(), p.y.as_integer_ratio()
    w = lcm(qx, qy)
    return nx * (w // qx), ny * (w // qy), w


def turn_int(a: Row, b: Row, c: Row) -> int:
    """(a x b) . c, the determinant of the rows: positive when a, b, c turn
    counterclockwise and 0 when they are collinear. a x b is the line
    through a and b, and the dot product puts c on its side."""
    (xa, ya, wa), (xb, yb, wb) = a, b
    return ((ya * wb - wa * yb) * c[0] + (wa * xb - xa * wb) * c[1]
            + (xa * yb - ya * xb) * c[2])


def in_box_int(a: Row, b: Row, p: Row) -> bool:
    """p lies in the closed bounding box of a and b, cross-multiplied."""
    (xa, ya, wa), (xb, yb, wb), (xp, yp, wp) = a, b, p
    return ((xa * wp - xp * wa) * (xb * wp - xp * wb) <= 0
            and (ya * wp - yp * wa) * (yb * wp - yp * wb) <= 0)


# kept for the benchmark's per-call timings until it times the row kernels
def orient2d(a: RatPoint, b: RatPoint, c: RatPoint) -> int:
    """+1 if a,b,c counterclockwise, -1 if clockwise, 0 if collinear."""
    v = turn_int(row(a), row(b), row(c))
    return (v > 0) - (v < 0)


# kept for the benchmark's per-call timings until it times the row kernels
@value_type
class Segment:
    """A closed straight segment with distinct endpoints."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: RatPoint, b: RatPoint) -> None:
        if a == b:
            raise ValueError("degenerate segment: endpoints coincide")
        _set(self, "a", a)
        _set(self, "b", b)

    def point_at(self, t: RatLike) -> RatPoint:
        return self.a + (self.b - self.a).scale(t)


class MeetKind(Enum):
    EMPTY = "empty"
    PROPER = "proper"
    DEGENERATE = "degenerate"


# kept for the benchmark's per-call timings until it times the row kernels
@value_type
class SegmentMeeting:
    """Outcome of intersecting two segments.

    PROPER means the open segments cross at a single point interior to both;
    DEGENERATE covers every other kind of contact (endpoint touching, a vertex
    lying on the other segment, collinear overlap).
    """

    __slots__ = _fields = ("kind", "point")

    # written out: the benchmark times segment_intersection per call
    def __init__(self, kind: MeetKind, point: RatPoint | None = None) -> None:
        _set(self, "kind", kind)
        _set(self, "point", point)

    @staticmethod
    def empty() -> "SegmentMeeting":
        return SegmentMeeting(MeetKind.EMPTY)

    @staticmethod
    def proper(point: RatPoint) -> "SegmentMeeting":
        return SegmentMeeting(MeetKind.PROPER, point)

    @staticmethod
    def degenerate() -> "SegmentMeeting":
        return SegmentMeeting(MeetKind.DEGENERATE)


def meet_int(a: Row, b: Row, c: Row, d: Row,
             ) -> tuple[MeetKind, int, int, int, int]:
    """Contact of the segments s = ab and t = cd, given as rows.

    Returns the kind with d1, d2 = turn_int(c, d, a), turn_int(c, d, b) and
    d3, d4 = turn_int(a, b, c), turn_int(a, b, d): four dot products on the
    two line vectors c x d and a x b. Each d carries the W of its three
    rows, so a PROPER crossing lies at parameter d1 W_b / (d1 W_b - d2 W_a)
    along s and d3 W_d / (d3 W_d - d4 W_c) along t.
    """
    (xa, ya, wa), (xb, yb, wb), (xc, yc, wc), (xd, yd, wd) = a, b, c, d
    lx, ly, lw = yc * wd - wc * yd, wc * xd - xc * wd, xc * yd - yc * xd
    d1 = lx * xa + ly * ya + lw * wa
    d2 = lx * xb + ly * yb + lw * wb
    lx, ly, lw = ya * wb - wa * yb, wa * xb - xa * wb, xa * yb - ya * xb
    d3 = lx * xc + ly * yc + lw * wc
    d4 = lx * xd + ly * yd + lw * wd
    if ((d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0)
            or (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0)):
        return MeetKind.EMPTY, d1, d2, d3, d4
    if d1 and d2 and d3 and d4:
        return MeetKind.PROPER, d1, d2, d3, d4
    if ((d1 == 0 and in_box_int(c, d, a)) or (d2 == 0 and in_box_int(c, d, b))
            or (d3 == 0 and in_box_int(a, b, c))
            or (d4 == 0 and in_box_int(a, b, d))):
        return MeetKind.DEGENERATE, d1, d2, d3, d4
    return MeetKind.EMPTY, d1, d2, d3, d4


# kept for the benchmark's per-call timings until it times the row kernels
def segment_intersection(s: Segment, t: Segment) -> SegmentMeeting:
    """Exact segment intersection, symmetric in its arguments."""
    a, b = row(s.a), row(s.b)
    kind, d1, d2, _, _ = meet_int(a, b, row(t.a), row(t.b))
    if kind is MeetKind.PROPER:
        u = d1 * b[2]
        return SegmentMeeting.proper(s.point_at(Fraction(u, u - d2 * a[2])))
    if kind is MeetKind.DEGENERATE:
        return SegmentMeeting.degenerate()
    return SegmentMeeting.empty()


@value_type
class PLLoop:
    """A closed polygonal loop: >= 3 vertices, cyclically consecutive distinct.

    Loops are not required to be simple; self-intersecting difference loops
    are the main customers of winding_number.
    """

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[RatPoint, ...]) -> None:
        n = len(vertices)
        if n < 3:
            raise ValueError("a loop needs at least 3 vertices")
        for i in range(n):
            if vertices[i] == vertices[(i + 1) % n]:
                raise ValueError("consecutive loop vertices must be distinct")
        _set(self, "vertices", vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """The vertices as rows (`row`), computed once per loop."""
        return tuple([row(p) for p in self.vertices])

    @cached_property
    def edge_keys(self) -> tuple[tuple[int, ...], ...]:
        """(lo_x, hi_x, lo_y, hi_y): floor(2^64 low) and ceil(2^64 high) of
        each edge's x- and y-range, from one divmod per row coordinate.
        Keys apart imply ranges apart."""
        rows = self.rows
        keys = []
        for k in (0, 1):
            qr = [divmod(r[k] << 64, r[2]) for r in rows]
            lo = [q for q, _ in qr]
            hi = [q + 1 if r else q for q, r in qr]
            keys += (
                tuple([a if a < b else b for a, b in zip(lo, lo[1:] + lo[:1])]),
                tuple([a if a > b else b for a, b in zip(hi, hi[1:] + hi[:1])]))
        return tuple(keys)

    def edges(self) -> Iterator[tuple[RatPoint, RatPoint]]:
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    # kept for the benchmark's per-call timings until it times the row kernels
    def segments(self) -> list[Segment]:
        return [Segment(a, b) for a, b in self.edges()]

    def translated(self, v: RatPoint) -> "PLLoop":
        return PLLoop(tuple(p + v for p in self.vertices))


def signed_area(loop: PLLoop) -> Fraction:
    """Shoelace area: positive for counterclockwise loops. Each edge adds
    its rows' cross term over the product of their weights; the terms are
    summed on integers per product, and one `Fraction` per product."""
    rows = loop.rows
    sums: dict[int, int] = {}
    for (xa, ya, wa), (xb, yb, wb) in zip(rows, rows[1:] + rows[:1]):
        sums[wa * wb] = sums.get(wa * wb, 0) + xa * yb - ya * xb
    return sum([Fraction(t, 2 * w) for w, t in sums.items()], Fraction(0))


def edge_crossing(xa: int, ya: int, xb: int, yb: int) -> int:
    """What the step from (xa, ya) to (xb, yb) adds to the winding number
    around the origin: +1 when it crosses the rightward ray from the origin
    upward, -1 downward, else 0. Any positive multiple of either point gives
    the same answer. Raises PointOnLoop when the step meets the origin.

    This is the crossing rule of Hormann and Agathos ("The point in polygon
    problem for arbitrary polygons", CGTA 2001) on integers: a step whose
    ends lie strictly on one side of the x-axis is skipped, and otherwise
    only the signs of Y and of X_a * Y_b - Y_a * X_b are read.
    """
    if (ya > 0 and yb > 0) or (ya < 0 and yb < 0):
        return 0  # the step neither meets nor crosses the x-axis
    c = xa * yb - ya * xb
    if c == 0 and xa * xb + ya * yb <= 0:
        raise PointOnLoop("query point lies on the cycle")
    if ya <= 0 < yb and c > 0:
        return 1
    if yb <= 0 < ya and c < 0:
        return -1
    return 0


def origin_winding(cycle: Sequence[Sequence[int]]) -> int:
    """Winding number around the origin of a cyclic sequence of points.

    Each entry starts with integers (X, Y) standing for some positive
    multiple of the true point; a homogeneous triple (X, Y, W) with W > 0
    qualifies as it is. Each step is read by edge_crossing, so W is never
    needed and no gcd is taken. Consecutive repeats are harmless. Raises
    PointOnLoop when the origin lies on the traced path.
    """
    if not cycle:
        raise ValueError("empty cycle")
    w = 0
    try:
        for i in range(len(cycle)):
            w += edge_crossing(cycle[i - 1][0], cycle[i - 1][1],
                               cycle[i][0], cycle[i][1])
    except PointOnLoop:
        if not any(q[0] or q[1] for q in cycle):
            raise PointOnLoop("query point equals the constant cycle") from None
        raise
    return w


def winding_number(loop: PLLoop, p: RatPoint) -> int:
    """Winding number of the loop around p; PointOnLoop if p is on the loop.
    Each vertex minus p is read up to the positive weight W W_p."""
    px, py, pw = row(p)
    return origin_winding([(x * pw - px * w, y * pw - py * w)
                           for x, y, w in loop.rows])


class PointLocation(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    ON_BOUNDARY = "on_boundary"


def point_in_polygon(loop: PLLoop, p: RatPoint) -> PointLocation:
    """Location of p relative to a simple loop (inside iff winding is +-1)."""
    try:
        inside = winding_number(loop, p) != 0
    except PointOnLoop:
        return PointLocation.ON_BOUNDARY
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE
