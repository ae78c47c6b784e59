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
geometric computation", CGTA 1997): when the target edge's y-range lies
strictly above or strictly below the source edge's, the loop's y keeps one
strict sign across the cell, so that step neither meets nor crosses the
x-axis and adds nothing to the winding number. The walk skips such a step
itself, on two comparisons of the curves' cached keys (PLLoop.edge_y_keys:
edge y-ranges widened out to multiples of 2^-64, so keys apart imply ranges
apart; no per-pair rescale). Only kept steps get exact ends. Walked without
keys, its step starts are the bends of _refined_params and difference_loop.

A correspondence is checked once, where it enters; maps derived from a
checked one, such as its inverse, skip the check (`PLCorrespondence`).
"""
from __future__ import annotations

import bisect
from fractions import Fraction
from itertools import starmap
from math import lcm
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
        s = s % 1
        bps = self.breakpoints
        n = len(bps)
        i = bisect.bisect_right(self.s_vals, s) - 1
        if i < 0:
            i = n - 1
            s = s + 1
        s_i, t_i = bps[i]
        s_next = bps[(i + 1) % n][0] + (1 if i == n - 1 else 0)
        t_step = (bps[(i + 1) % n][1] - t_i) % 1
        return (t_i + t_step * (s - s_i) / (s_next - s_i)) % 1

    def invert(self) -> "PLCorrespondence":
        """The inverse map: the flipped pairs, rotated to start at the least
        target parameter, so they need no sort and no check. The least
        source parameter, first here, lands at position n - wrap."""
        bps, w = self.breakpoints, self.wrap
        n = len(bps)
        return PLCorrespondence._trusted(
            tuple([(t, s) for s, t in bps[w:] + bps[:w]]), (n - w) % n)


def random_correspondence(rng, breakpoints: int,
                          denominator: int = 1024) -> PLCorrespondence:
    """Random correspondence with the given number of breakpoints."""
    if breakpoints < 2:
        raise InputRejection("need at least two breakpoints")
    if breakpoints > denominator:
        raise InputRejection("more breakpoints than parameters k/denominator")

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
    (the source's and then the target's edge_y_keys) those in kept cells.

    Between two parameters where phi bends or either curve has a vertex,
    the loop runs straight in one cell, source edge i against target edge
    j. Each step is ((G, S, T, ds, dt), u, v, i, j, follows): from local u
    to local v in cell (i, j), local u being the source parameter (S + u ds)/G
    with image (T + u dt)/G; follows says the step before was yielded too.

    A piece of phi, from (s_k, t_k) to (s_k+1, t_k+1), has its own
    denominator D, the lcm of its breakpoints' denominators, integer widths
    ds and dt over D, and a local integer u in [0, U), U = lcm(n_source *
    ds, n_target * dt), G = D * U. Each curve's vertices in the piece are
    an arithmetic progression in u, and the walk merges the two: i steps
    up at a source vertex and j at a target-vertex preimage, each wrapping
    to 0 (S or T down by G) at its curve's vertex count. The piece holding
    s = 1 is walked from there to its end first, and up to there last.
    """
    lo_s, hi_s, lo_t, hi_t = keys or ((),) * 4
    follows = False
    ints = [(s.numerator, s.denominator, t.numerator, t.denominator)
            for s, t in phi.breakpoints]
    pieces = []
    for (sa, qa, ta, wa), (sb, qb, tb, wb) in zip(ints, ints[1:] + ints[:1]):
        den = lcm(qa, wa, qb, wb)
        s0, t0 = sa * (den // qa), ta * (den // wa)
        ds = (sb * (den // qb) - s0) % den
        dt = (tb * (den // wb) - t0) % den
        span = lcm(n_source * ds, n_target * dt)
        pieces.append((den * span, s0 * span, t0 * span, ds, dt, span))
    last = pieces.pop()
    one = (last[0] - last[1]) // last[3]  # the local u of s = 1
    runs = [(last, one, last[5]), *[(p, 0, p[5]) for p in pieces],
            (last, 0, one)]
    for (g, s, t, ds, dt, _), u, end in runs:
        wrap_s, i = divmod((s + u * ds) * n_source // g, n_source)
        wrap_t, j = divmod((t + u * dt) * n_target // g, n_target)
        s, t = s - wrap_s * g, t - wrap_t * g  # the first run starts at s = 1
        stride_s, stride_t = g // (n_source * ds), g // (n_target * dt)
        next_s = (i + 1) * stride_s - s // ds
        next_t = (j + 1) * stride_t - t // dt
        piece = (g, s, t, ds, dt)
        while u < end:
            v = next_s if next_s < next_t else next_t
            if v > end:
                v = end
            kept = keys is None or (lo_t[j] <= hi_s[i] and hi_t[j] >= lo_s[i])
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


def _refined_params(source: PolyJordanCurve, target: PolyJordanCurve,
                    phi: PLCorrespondence) -> list[Fraction]:
    """Parameters where the difference loop can bend: breakpoints, source
    vertices, and preimages of target vertices, sorted."""
    return [Fraction(s, g) for s, _, g, _, _ in
            _bend_walk(len(source), len(target), phi)]


def _difference_at(source: PolyJordanCurve, target: PolyJordanCurve):
    """at(S, T, G, i, j): target(T/G) - source(S/G), with S/G on source
    edge i and T/G on target edge j, as the homogeneous triple (X, Y, D * G)
    over the curves' int_coords taken to their common denominator D."""
    den_s, xs, ys = source.loop.int_coords
    den_t, xt, yt = target.loop.int_coords
    den = lcm(den_s, den_t)
    fs, ft = den // den_s, den // den_t
    n, m = len(xs), len(xt)

    def at(s: int, t: int, g: int, i: int, j: int) -> tuple[int, int, int]:
        # Point at parameter S/G: vertex i plus r/G of the way to vertex i + 1.
        r, q = s * n - i * g, t * m - j * g
        i1, j1 = (i + 1) % n, (j + 1) % m
        return ((xt[j] * (g - q) + xt[j1] * q) * ft
                - (xs[i] * (g - r) + xs[i1] * r) * fs,
                (yt[j] * (g - q) + yt[j1] * q) * ft
                - (ys[i] * (g - r) + ys[i1] * r) * fs,
                den * g)

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

    The loop is read step by step off _bend_steps. A step in cell (i, j)
    keeps its Y between (low of target edge j) - (high of source edge i)
    and (high of target edge j) - (low of source edge i). When the curves'
    keys (PLLoop.edge_y_keys) put that interval strictly on one side of 0,
    both ends of the step lie there too, edge_crossing would return 0 for
    it without raising, and the walk skips it. A kept step gets exact ends
    from its own cell's vertices, or its start from the kept step before.

    Raises HasFixedPoint when some boundary point maps to itself, where no
    index is defined.
    """
    n, m = len(source), len(target)
    at = _difference_at(source, target)
    keys = (*source.loop.edge_y_keys, *target.loop.edge_y_keys)
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


def _shared_block(loop: PLLoop, other_edges: set[tuple[RatPoint, RatPoint]],
                  ) -> tuple[int, int]:
    """Start index and length of the single cyclic run of shared edges."""
    n = len(loop)
    edges = list(loop.edges())
    shared = set()
    for i, (a, b) in enumerate(edges):
        if (b, a) in other_edges:
            shared.add(i)
        elif (a, b) in other_edges:
            raise BadGluingGeometry("shared edge traversed in the same direction")
    if not shared:
        raise BadGluingGeometry("no shared boundary arc")
    if len(shared) == n:
        raise BadGluingGeometry("curves coincide")
    flags = [i in shared for i in range(n)]
    runs = sum(1 for i in range(n) if flags[i] and not flags[i - 1])
    if runs != 1:
        raise BadGluingGeometry("shared set is not a single arc")
    start = next(i for i in range(n) if flags[i] and not flags[i - 1])
    return start, len(shared)


def _split_pair(first: PolyJordanCurve, second: PolyJordanCurve,
                ) -> list[tuple[list[RatPoint], list[RatPoint]]]:
    """Refine both curves against each other once; for each curve return
    (shared path from junction u to junction v, outer path from v to u)."""
    loops = (_insert_on_edges(first, second.vertices),
             _insert_on_edges(second, first.vertices))
    paths = []
    for loop, other in (loops, loops[::-1]):
        start, length = _shared_block(loop, set(other.edges()))
        verts = loop.vertices
        n = len(verts)
        paths.append(([verts[(start + k) % n] for k in range(length + 1)],
                      [verts[(start + length + k) % n]
                       for k in range(n - length + 1)]))
    return paths


def _union(outer_a: list[RatPoint], outer_b: list[RatPoint],
           ) -> PolyJordanCurve:
    """The glued curve: outer path of one piece, then of the other.

    The shared arc is traversed oppositely by the two pieces (_shared_block),
    so the union is simple exactly when the outer paths meet only at the
    junctions, and then the interiors are disjoint. Its shoelace sum is the
    sum of the pieces' (the shared arc's terms cancel), hence positive.
    """
    try:
        return validate_curve(outer_a[:-1] + outer_b[:-1])
    except NotSimple as exc:
        raise BadGluingGeometry(
            "outer boundaries touch away from the junctions") from exc


def _carry(source: PolyJordanCurve, target: PolyJordanCurve,
           pieces: Iterable[tuple[PolyJordanCurve, PLCorrespondence,
                                  list[tuple[Fraction, RatPoint]]]],
           error: type[Exception]) -> PLCorrespondence:
    """The map from source to target that piece maps give at their bends.

    Each piece is (its target, its map, its bends as (parameter, point)),
    the bends being its _refined_params with the point at each. A bend whose
    point lies on source is carried there, with its image located on target;
    the others are skipped. A map bends only at its pieces' bends, so these
    pairs are the whole map. Raises `error` when an image misses target or
    two pieces send one point to two images.
    """
    pairs: dict[Fraction, Fraction] = {}
    for piece_target, phi, bends in pieces:
        for s, p in bends:
            s_new = source.locate_param(p)
            if s_new is None:
                continue
            t_new = target.locate_param(piece_target.point_at(phi.evaluate(s)))
            if t_new is None:
                raise error("image point missing from the glued target")
            if pairs.setdefault(s_new, t_new) != t_new:
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
    (shared_src, outer_src_a), (shared_src_b, outer_src_b) = _split_pair(
        source_a, source_b)
    (shared_tgt, outer_tgt_a), (shared_tgt_b, outer_tgt_b) = _split_pair(
        target_a, target_b)

    if shared_src_b != list(reversed(shared_src)):
        raise BadGluingGeometry("source arcs disagree between the two curves")
    if shared_tgt_b != list(reversed(shared_tgt)):
        raise BadGluingGeometry("target arcs disagree between the two curves")

    glued_source = _union(outer_src_a, outer_src_b)
    glued_target = _union(outer_tgt_a, outer_tgt_b)

    # Each piece's bends, with the source point at each, serve both passes.
    pieces = []
    for curve, target, phi in ((source_a, target_a, phi_a),
                               (source_b, target_b, phi_b)):
        pieces.append((target, phi, [(s, curve.point_at(s)) for s in
                                     _refined_params(curve, target, phi)]))

    # The maps must agree on the shared arc: compare at every point where
    # either restriction can bend, which pins the whole piecewise map. Both
    # unions are valid, so each pair of curves meets exactly in its shared
    # arc: a point of one curve lies on that arc when the other curve has it.
    probe_points: list[RatPoint] = list(shared_src)
    for (_, _, bends), other in zip(pieces, (source_b, source_a)):
        for _, p in bends:
            if other.locate_param(p) is not None and p not in probe_points:
                probe_points.append(p)

    for p in probe_points:
        s_a = source_a.locate_param(p)
        s_b = source_b.locate_param(p)
        if s_a is None or s_b is None:
            raise BadGluingGeometry("shared arc point missing from a source")
        q_a = target_a.point_at(phi_a.evaluate(s_a))
        q_b = target_b.point_at(phi_b.evaluate(s_b))
        if q_a != q_b:
            raise ArcsDisagree(f"maps differ at shared point {p}")
        if target_b.locate_param(q_a) is None:
            raise ArcsDisagree("shared arc does not map onto the shared target arc")

    return GluedMap(source=glued_source, target=glued_target,
                    phi=_carry(glued_source, glued_target, pieces,
                               ArcsDisagree))
