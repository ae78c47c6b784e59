"""Piecewise-linear circle correspondences and their fixed-point index.

A correspondence is an orientation-preserving degree-one circle map between
the normalized parameter spaces of two curves, stored as finitely many
breakpoint pairs and interpolated affinely between them. Geometry enters only
through the curves' parametrizations, so evaluation, inversion, and the
difference loop are all exact.

The index of a correspondence phi between boundaries is the winding number of
the loop s -> target(phi(s)) - source(s) around the origin. A zero of that
loop is a boundary fixed point and leaves the index undefined; callers get
HasFixedPoint instead of a number.

The loop can bend only where phi bends or either curve has a vertex, so one
lazy merge walk (_bend_steps) yields its steps on integers: between two
consecutive bends the loop stays in one cell, a source edge against a target
edge. The index filters first and decides exactly after (Yap, "Towards exact
geometric computation", CGTA 1997): a step counts, or meets the origin, only
if it meets the closed positive x half-axis. It cannot when the target
edge's y-range lies strictly above or below the source edge's (the loop's y
keeps one sign across the cell), nor when the target edge's x-range lies
strictly left of the source edge's (its x stays negative). The walk skips
such a step itself, on three comparisons of the curves' cached keys
(PLLoop.edge_keys: edge ranges widened out to multiples of 2^-64, so keys
apart imply ranges apart; no per-pair rescale). Only kept steps get exact
ends, read off the rows of the cell's four end vertices (_difference_at).
Walked without keys, its step starts are the bends (_bend_walk), which
_carried reads as rows and locates on other curves: glue and the packing
certificate carry maps that way, with no `Fraction` point per bend.

A correspondence is checked once, where it enters; maps derived from a
checked one, such as its inverse, skip the check (`PLCorrespondence`).
"""
from __future__ import annotations

import bisect
from fractions import Fraction
from itertools import starmap
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import (
    ArcsDisagree,
    BadGluingGeometry,
    HasFixedPoint,
    DegenerateLoop,
    InputRejection,
    NotOrientationPreserving,
    NotSimple,
    PointOnLoop,
)
from .exact_geom import (
    PLLoop,
    RatPoint,
    _new,
    _set,
    between,
    edge_crossing,
    value_type,
)
from .jordan import PolyJordanCurve, validate_curve


@value_type
class PLCorrespondence:
    """Orientation-preserving piecewise-affine degree-one circle map.

    Breakpoints are (s, t) pairs with all s in [0, 1) strictly increasing and
    the t sequence strictly increasing cyclically with exactly one wrap, which
    is what degree one plus injectivity means for a monotone map. `wrap` is
    the position of the least t, the breakpoint after that one descent.

    The constructor checks all of this. `_trusted` checks nothing: it is for
    maps made from a valid one (`invert`) or by construction
    (`random_correspondence`, `torus.realize_path`), which know the wrap.
    `s_vals` (the source parameters) and `wrap` are derived from the
    breakpoints, so equality, hash and repr read the breakpoints alone.
    """

    __slots__ = ("breakpoints", "s_vals", "wrap")
    _fields = ("breakpoints",)

    def __init__(self, breakpoints: tuple[tuple[Fraction, Fraction], ...],
                 ) -> None:
        bps = breakpoints
        if len(bps) < 2:
            raise InputRejection("need at least two breakpoints")
        s_vals = tuple([s for s, _ in bps])
        t_vals = [t for _, t in bps]
        if any(not (0 <= s < 1) for s in s_vals):
            raise InputRejection("source parameters must lie in [0, 1)")
        if any(not (0 <= t < 1) for t in t_vals):
            raise InputRejection("target parameters must lie in [0, 1)")
        if any(a >= b for a, b in zip(s_vals, s_vals[1:])):
            raise NotOrientationPreserving("source parameters not increasing")
        n = len(t_vals)
        descents = [i for i in range(n) if t_vals[(i + 1) % n] <= t_vals[i]]
        if len(descents) != 1:
            raise NotOrientationPreserving(
                "target parameters must increase cyclically with one wrap")
        _set(self, "breakpoints", bps)
        _set(self, "s_vals", s_vals)
        _set(self, "wrap", (descents[0] + 1) % n)

    @classmethod
    def _trusted(cls, breakpoints: tuple[tuple[Fraction, Fraction], ...],
                 wrap: int) -> "PLCorrespondence":
        """Unchecked constructor for breakpoints known to be valid, with
        the least target parameter at position `wrap`. It is
        `exact_geom.trusted` written out for the three slots: maps are
        made often, and the generic loop over keyword fields costs about a
        third more per call."""
        obj = _new(cls)
        _set(obj, "breakpoints", breakpoints)
        _set(obj, "s_vals", tuple([s for s, _ in breakpoints]))
        _set(obj, "wrap", wrap)
        return obj

    def evaluate(self, s: Fraction) -> Fraction:
        """phi(s), s taken mod 1: interpolated on integers, one `Fraction`
        at the end."""
        s = s if 0 <= s.numerator < s.denominator else s % 1
        p, q = s.numerator, s.denominator
        bps = self.breakpoints
        n = len(bps)
        i = bisect.bisect_right(self.s_vals, s) - 1
        if i < 0:  # on the last piece, past s = 1
            i, p = n - 1, p + q
        (s0, t0), (s1, t1) = bps[i], bps[(i + 1) % n]
        a, b, c, d = s0.numerator, s0.denominator, t0.numerator, t0.denominator
        e, f, g, h = s1.numerator, s1.denominator, t1.numerator, t1.denominator
        # t0 + ((t1 - t0) % 1) * (s - s0) / (s1 - s0), the last piece
        # ending at s1 + 1
        ds = e * b - a * f + (b * f if i == n - 1 else 0)
        den = d * h * q * ds
        return Fraction((c * h * q * ds + (g * d - c * h) % (d * h)
                         * (p * b - a * q) * f) % den, den)

    def invert(self) -> "PLCorrespondence":
        """The inverse map: the flipped pairs, rotated to start at the least
        target parameter, so they need no sort and no check. The least
        source parameter, first here, lands at position n - wrap."""
        bps, w = self.breakpoints, self.wrap
        n = len(bps)
        return PLCorrespondence._trusted(
            tuple([(t, s) for s, t in bps[w:] + bps[:w]]), (n - w) % n)


def random_correspondence(rng, breakpoints: int) -> PLCorrespondence:
    """Random correspondence with the given number of breakpoints, each
    parameter k/1024."""
    denominator = 1024
    if breakpoints < 2:
        raise InputRejection("need at least two breakpoints")
    if breakpoints > denominator:
        raise InputRejection("more breakpoints than parameters k/1024")

    def draw() -> list[Fraction]:
        # Distinct numerators over one denominator are distinct fractions in
        # the same order, so each Fraction is made once, after sorting.
        nums: set[int] = set()
        while len(nums) < breakpoints:
            nums.add(rng.randrange(denominator))
        return [Fraction(k, denominator) for k in sorted(nums)]

    s_vals = draw()
    t_vals = draw()
    shift = rng.randrange(breakpoints)
    t_cyc = t_vals[shift:] + t_vals[:shift]
    # Built from a list, the tuple is allocated at its final size; built
    # straight from an iterator it grows by reallocation, which made the
    # resident size creep up over thousands of calls. Hot paths here build
    # tuples and argument lists from lists for the same reason.
    # Both draws are sorted and distinct, so the pairs are valid by
    # construction, and the least target sits where the rotation put t_vals[0].
    return PLCorrespondence._trusted(tuple(list(zip(s_vals, t_cyc))),
                                     (breakpoints - shift) % breakpoints)


def _bend_steps(n_source: int, n_target: int, phi: PLCorrespondence,
                keys: tuple | None = None) -> Iterator[tuple]:
    """The difference loop's steps, once around from s = 0, or with keys
    (the source's and then the target's edge_keys) those in cells whose y
    keys meet and whose target hi_x key is not below the source lo_x key.

    Between two parameters where phi bends or either curve has a vertex,
    the loop runs straight in one cell, source edge i against target edge
    j. Each step is ((G, S, T, ds, dt), u, v, i, j, follows): from local u
    to local v in cell (i, j), local u being the source parameter (S + u ds)/G
    with image (T + u dt)/G; follows says the step before was yielded too.

    A piece of phi, from (s_k, t_k) to (s_k+1, t_k+1), has its own
    denominator D, the lcm of its breakpoints' denominators, integer widths
    ds and dt over D, and a local integer u in [0, U), G = D * U. One gcd
    gives a = n_target dt / gcd(n_source ds, n_target dt) and b likewise,
    and U = n_source ds a: each curve's vertices in the piece are then an
    arithmetic progression in u of stride D a or D b, which the walk
    merges: i steps up at a source vertex and j at a target-vertex
    preimage, each wrapping to 0 (S or T down by G) at its curve's vertex
    count. A run from a breakpoint takes its first cell from that
    breakpoint's own fractions, with no division by G. The piece holding
    s = 1 is walked from there to its end first, and up to there last.
    """
    (lx_s, _, lo_s, hi_s), (_, hx_t, lo_t, hi_t) = keys or (((),) * 4,) * 2
    follows = False
    ints = [(s.numerator, s.denominator, t.numerator, t.denominator)
            for s, t in phi.breakpoints]
    pieces = []
    for (sa, qa, ta, wa), (sb, qb, tb, wb) in zip(ints, ints[1:] + ints[:1]):
        den = lcm(qa, wa, qb, wb)
        s0, t0 = sa * (den // qa), ta * (den // wa)
        ds = (sb * (den // qb) - s0) % den
        dt = (tb * (den // wb) - t0) % den
        gamma = gcd(n_source * ds, n_target * dt)
        a, b = n_target * dt // gamma, n_source * ds // gamma
        pieces.append((den, s0, t0, ds, dt, a, b, n_source * ds * a,
                       n_source * sa // qa, n_target * ta // wa))
    last = pieces.pop()
    one = (last[0] - last[1]) * n_source * last[5]  # the local u of s = 1
    runs = [(last, one, last[7]), *[(p, 0, p[7]) for p in pieces],
            (last, 0, one)]
    for (den, s0, t0, ds, dt, a, b, span, i, j), u, end in runs:
        g = den * span
        if u:  # the first run starts at s = 1, on source edge 0
            wrap_t, j = divmod((t0 * span + u * dt) * n_target // g, n_target)
            i, s0, t0 = 0, s0 - den, t0 - wrap_t * den
        s, t = s0 * span, t0 * span
        stride_s, stride_t = den * a, den * b
        next_s = (i + 1) * stride_s - n_source * a * s0
        next_t = (j + 1) * stride_t - n_target * b * t0
        piece = (g, s, t, ds, dt)
        while u < end:
            v = next_s if next_s < next_t else next_t
            if v > end:
                v = end
            kept = keys is None or (lo_t[j] <= hi_s[i] and hi_t[j] >= lo_s[i]
                                    and hx_t[j] >= lx_s[i])
            if kept:
                yield piece, u, v, i, j, follows
            follows = kept
            u = v
            if next_s == u:
                next_s, i = next_s + stride_s, i + 1
                if i == n_source:
                    i, s = 0, s - g
                    piece = (g, s, t, ds, dt)
            if next_t == u:
                next_t, j = next_t + stride_t, j + 1
                if j == n_target:
                    j, t = 0, t - g
                    piece = (g, s, t, ds, dt)


def _bend_walk(n_source: int, n_target: int, phi: PLCorrespondence,
               ) -> list[tuple[int, int, int, int, int]]:
    """The start (S, T, G, i, j) of each step of _bend_steps: a source
    parameter S/G in [0, 1) where the difference loop can bend, its image
    T/G in [0, 1), and the source edge i and target edge j holding them."""
    return [(s + u * ds, t + u * dt, g, i, j)
            for (g, s, t, ds, dt), u, _, i, j, _
            in _bend_steps(n_source, n_target, phi)]


def _difference_at(source: PolyJordanCurve, target: PolyJordanCurve):
    """at(S, T, G, i, j): target(T/G) - source(S/G), with S/G on source
    edge i and T/G on target edge j, as a homogeneous triple (X, Y, W) read
    off the four end rows of the two edges (PLLoop.rows)."""
    src, tgt = source.loop.rows, target.loop.rows
    n, m = len(src), len(tgt)

    def at(s: int, t: int, g: int, i: int, j: int) -> tuple[int, int, int]:
        # Point at parameter S/G: vertex i plus r/G of the way to vertex i + 1.
        r, q = s * n - i * g, t * m - j * g
        (xa, ya, wa), (xb, yb, wb) = src[i], src[(i + 1) % n]
        (xc, yc, wc), (xd, yd, wd) = tgt[j], tgt[(j + 1) % m]
        ws, wt = wa * wb, wc * wd
        fa, fb = wb * (g - r) * wt, wa * r * wt
        fc, fd = wd * (g - q) * ws, wc * q * ws
        return (xc * fc + xd * fd - xa * fa - xb * fb,
                yc * fc + yd * fd - ya * fa - yb * fb, ws * wt * g)

    return at


def difference_loop(source: PolyJordanCurve, target: PolyJordanCurve,
                    phi: PLCorrespondence) -> PLLoop:
    """The loop of displacement vectors target(phi(s)) - source(s). It is
    the index's definition, which the tests hold fixed_point_index to."""
    at = _difference_at(source, target)
    points: list[RatPoint] = []
    for entry in _bend_walk(len(source), len(target), phi):
        x, y, w = at(*entry)
        q = RatPoint(Fraction(x, w), Fraction(y, w))
        if not points or points[-1] != q:
            points.append(q)
    if len(points) >= 2 and points[0] == points[-1]:
        points.pop()
    if len(points) < 3:
        raise DegenerateLoop("difference collapses to fewer than three points")
    return PLLoop(tuple(points))


def fixed_point_index(source: PolyJordanCurve, target: PolyJordanCurve,
                      phi: PLCorrespondence) -> int:
    """Winding number of the difference loop around the origin.

    The loop is read step by step off _bend_steps. In cell (i, j) a step's
    Y lies between (low of target edge j) - (high of source edge i) and
    (high of target edge j) - (low of source edge i), and its X alike. When
    the curves' keys (PLLoop.edge_keys) put the Y interval strictly on one
    side of 0 or the X interval below 0, edge_crossing would return 0 for
    the step without raising, and the walk skips it. A kept step gets exact
    ends from its cell's vertices, or its start from the kept step before.

    Raises HasFixedPoint when some boundary point maps to itself, where no
    index is defined.
    """
    n, m = len(source), len(target)
    at = _difference_at(source, target)
    keys = (source.loop.edge_keys, target.loop.edge_keys)
    w = 0
    end = None
    try:
        for (g, s, t, ds, dt), u, v, i, j, follows in _bend_steps(
                n, m, phi, keys):
            xa, ya, _ = end if follows else at(s + u * ds, t + u * dt, g, i, j)
            end = at(s + v * ds, t + v * dt, g, i, j)
            w += edge_crossing(xa, ya, end[0], end[1])
    except PointOnLoop as exc:
        if not any(x or y for x, y, _ in starmap(at, _bend_walk(n, m, phi))):
            raise HasFixedPoint(
                "correspondence is the identity on the boundary") from exc
        raise HasFixedPoint("difference loop passes through the origin") from exc
    return w


# -- gluing ------------------------------------------------------------------

@value_type
class GluedMap:
    """Result of joining two correspondences along a shared boundary arc."""

    __slots__ = _fields = ("source", "target", "phi")


def _insert_on_edges(curve: PolyJordanCurve,
                     extra: Iterable[RatPoint]) -> PLLoop:
    """Subdivide the curve's edges at any of the given points lying on it."""
    n = len(curve)
    at = {Fraction(i, n): p for i, p in enumerate(curve.vertices)}
    for p in extra:
        s = curve.locate_param(p)
        if s is not None:
            at.setdefault(s, p)
    return PLLoop(tuple([at[s] for s in sorted(at)]))


def _split_pair(first: PolyJordanCurve, second: PolyJordanCurve,
                ) -> list[list[RatPoint]]:
    """Refine both curves against each other once; for each curve return
    its outer path, from the end of the shared arc round to its start. The
    shared arc is the single cyclic run of edges the other loop reverses.

    The shared edges of the two refined loops are the same edges reversed,
    so one curve's shared run is the other's reversed, with no comparison.
    Neither run covers its whole loop: the other curve would then be that
    loop reversed, which is clockwise."""
    loops = (_insert_on_edges(first, second.vertices),
             _insert_on_edges(second, first.vertices))
    paths = []
    for loop, other in (loops, loops[::-1]):
        other_edges, flags = set(other.edges()), []
        for a, b in loop.edges():
            flags.append((b, a) in other_edges)
            if not flags[-1] and (a, b) in other_edges:
                raise BadGluingGeometry(
                    "shared edge traversed in the same direction")
        if not any(flags):
            raise BadGluingGeometry("no shared boundary arc")
        starts = [i for i, f in enumerate(flags) if f and not flags[i - 1]]
        if len(starts) != 1:
            raise BadGluingGeometry("shared set is not a single arc")
        verts, length = loop.vertices, sum(flags)
        n = len(verts)
        paths.append([verts[(starts[0] + length + k) % n]
                      for k in range(n - length + 1)])
    return paths


def _union(outer_a: list[RatPoint], outer_b: list[RatPoint],
           ) -> PolyJordanCurve:
    """The glued curve: outer path of one piece, then of the other.

    The shared arc is traversed oppositely by the two pieces (_split_pair),
    so the union is simple exactly when the outer paths meet only at the
    junctions, and then the interiors are disjoint. Its shoelace sum is the
    sum of the pieces' (the shared arc's terms cancel), hence positive.
    """
    try:
        return validate_curve(outer_a[:-1] + outer_b[:-1])
    except NotSimple as exc:
        raise BadGluingGeometry(
            "outer boundaries touch away from the junctions") from exc


def _carried(host: PolyJordanCurve, host_target: PolyJordanCurve,
             source: PolyJordanCurve, target: PolyJordanCurve,
             phi: PLCorrespondence) -> Iterator[tuple]:
    """(s, t, p) for each bend of phi (_bend_walk) whose point, the row p
    read off its edge's end rows, lies on host: s its parameter there, and
    t its image's on host_target, or None when the image misses it."""
    src, tgt = source.loop.rows, target.loop.rows
    n, m = len(src), len(tgt)
    for s, t, g, i, j in _bend_walk(n, m, phi):
        p = between(src[i], src[(i + 1) % n], s * n - i * g, g)
        s_new = host.locate_row(p)
        if s_new is not None:
            yield s_new, host_target.locate_row(
                between(tgt[j], tgt[(j + 1) % m], t * m - j * g, g)), p


def _carry(source: PolyJordanCurve, target: PolyJordanCurve,
           pieces: Iterable[tuple[PolyJordanCurve, PolyJordanCurve,
                                  PLCorrespondence]],
           error: type[Exception]) -> PLCorrespondence:
    """The map from source to target that piece maps give at their bends.

    Each piece is (its source, its target, its map). A bend whose point lies
    on source is carried there, with its image located on target; the
    others are skipped (_carried). A map bends only at its pieces' bends,
    so these pairs are the whole map. Raises `error` when an image misses
    target or two pieces send one point to two images.
    """
    pairs: dict[Fraction, Fraction] = {}
    for piece in pieces:
        for s, t, _ in _carried(source, target, *piece):
            if t is None:
                raise error("image point missing from the glued target")
            if pairs.setdefault(s, t) != t:
                raise error("maps differ at a junction")
    return PLCorrespondence(tuple(sorted(pairs.items())))


def glue(source_a: PolyJordanCurve, target_a: PolyJordanCurve,
         phi_a: PLCorrespondence,
         source_b: PolyJordanCurve, target_b: PolyJordanCurve,
         phi_b: PLCorrespondence) -> GluedMap:
    """Join two correspondences that agree along one shared boundary arc.

    The two source curves must meet in exactly one arc with disjoint
    interiors, and likewise the targets; both correspondences must send the
    shared source arc onto the shared target arc identically. The result maps
    the union boundary by whichever original map covers each side: _carry
    moves both maps' bends onto the union, as it moves interstice maps onto
    piece and frame boundaries in packing.assemble_theorem_certificate.
    """
    outer_src_a, outer_src_b = _split_pair(source_a, source_b)
    outer_tgt_a, outer_tgt_b = _split_pair(target_a, target_b)
    glued_source = _union(outer_src_a, outer_src_b)
    glued_target = _union(outer_tgt_a, outer_tgt_b)

    # The maps must agree on the shared arc, where each pair of curves meets
    # (both unions are valid). Each of its vertices is a bend of one map,
    # and between two bends on it both maps are affine, so it is enough
    # that each map's bends on the other source go where the other map
    # sends them.
    piece_a, piece_b = (source_a, target_a, phi_a), (source_b, target_b, phi_b)
    for (host, host_target, other), piece in ((piece_b, piece_a),
                                              (piece_a, piece_b)):
        for s, t, (x, y, w) in _carried(host, host_target, *piece):
            if t is None or t != other.evaluate(s):
                raise ArcsDisagree("maps differ at shared point "
                                   f"{RatPoint(Fraction(x, w), Fraction(y, w))}")

    return GluedMap(source=glued_source, target=glued_target,
                    phi=_carry(glued_source, glued_target, (piece_a, piece_b),
                               ArcsDisagree))
