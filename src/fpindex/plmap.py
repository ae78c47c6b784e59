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
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable

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
    AffineMap,
    PLLoop,
    RatPoint,
    Segment,
    joint_int_coords,
    origin_winding,
    point_on_segment,
)
from .jordan import PolyJordanCurve, validate_curve


@dataclass(frozen=True)
class PLCorrespondence:
    """Orientation-preserving piecewise-affine degree-one circle map.

    Breakpoints are (s, t) pairs with all s in [0, 1) strictly increasing and
    the t sequence strictly increasing cyclically with exactly one wrap, which
    is what degree one plus injectivity means for a monotone map.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    s_vals: tuple[Fraction, ...] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        bps = self.breakpoints
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
        descents = sum(1 for i in range(len(t_vals))
                       if t_vals[(i + 1) % len(t_vals)] <= t_vals[i])
        if descents != 1:
            raise NotOrientationPreserving(
                "target parameters must increase cyclically with one wrap")
        object.__setattr__(self, "s_vals", s_vals)

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
        flipped = sorted((t, s) for s, t in self.breakpoints)
        return PLCorrespondence(tuple(flipped))


def random_correspondence(rng, breakpoints: int,
                          denominator: int = 1024) -> PLCorrespondence:
    """Random correspondence with the given number of breakpoints."""
    if breakpoints < 2:
        raise InputRejection("need at least two breakpoints")

    def draw() -> list[Fraction]:
        vals: set[Fraction] = set()
        while len(vals) < breakpoints:
            vals.add(Fraction(rng.randrange(denominator), denominator))
        return sorted(vals)

    s_vals = draw()
    t_vals = draw()
    shift = rng.randrange(breakpoints)
    t_cyc = t_vals[shift:] + t_vals[:shift]
    # Built from a list, the tuple is allocated at its final size; built
    # straight from an iterator it grows by reallocation, which made the
    # resident size creep up over thousands of calls. Hot paths here build
    # tuples and argument lists from lists for the same reason.
    return PLCorrespondence(tuple(list(zip(s_vals, t_cyc))))


def _inner_vertices(lo: int, width: int, n: int, den: int,
                    step: int) -> list[int]:
    """Local u = (i * den - lo * n) * step of the vertices i/n lying strictly
    between lo/den and (lo + width)/den, ascending."""
    return [(i * den - lo * n) * step
            for i in range(lo * n // den + 1, -(-(lo + width) * n // den))]


def _bend_walk(n_source: int, n_target: int, phi: PLCorrespondence,
               ) -> list[tuple[int, int, int]]:
    """Every parameter where the difference loop can bend, in integers.

    One merge walk over three sorted streams: the breakpoints of phi, the
    source vertices i/n_source, and the preimages of the target vertices
    j/n_target. Each entry (S, T, G) is a source parameter S/G and its image
    T/G, both taken mod 1; entries are sorted by S/G mod 1.

    Each piece of phi, from (s_k, t_k) to (s_k+1, t_k+1), has its own
    denominator D, the lcm of its two breakpoints' denominators, so no
    entry carries the denominators of the other pieces. Over D the piece
    has integer widths ds and dt and is affine in a local integer u in
    [0, U), U = lcm(n_source * ds, n_target * dt): every vertex of either
    curve in the piece falls on an integer u, and the piece's entries share
    the denominator G = D * U.
    """
    bps = phi.breakpoints
    count = len(bps)
    walk: list[tuple[int, int, int]] = []
    for k in range(count):
        (sa, ta), (sb, tb) = bps[k], bps[(k + 1) % count]
        den = lcm(sa.denominator, ta.denominator, sb.denominator, tb.denominator)
        s0 = sa.numerator * (den // sa.denominator)
        t0 = ta.numerator * (den // ta.denominator)
        ds = sb.numerator * (den // sb.denominator) - s0
        if k == count - 1:
            ds += den
        dt = (tb.numerator * (den // tb.denominator) - t0) % den
        span = lcm(n_source * ds, n_target * dt)
        g = den * span
        us = _inner_vertices(s0, ds, n_source, den, span // (n_source * ds))
        ut = _inner_vertices(t0, dt, n_target, den, span // (n_target * dt))
        a = b = u = 0
        while u < span:
            walk.append((s0 * span + u * ds, t0 * span + u * dt, g))
            next_s = us[a] if a < len(us) else span
            next_t = ut[b] if b < len(ut) else span
            u = min(next_s, next_t)
            if next_s == u:
                a += 1
            if next_t == u:
                b += 1
    # Only the last piece passes s = 1; start the cycle there.
    wrap = len(walk)
    while wrap and walk[wrap - 1][0] >= walk[wrap - 1][2]:
        wrap -= 1
    return walk[wrap:] + walk[:wrap]


def _refined_params(source: PolyJordanCurve, target: PolyJordanCurve,
                    phi: PLCorrespondence) -> list[Fraction]:
    """Parameters where the difference loop can bend: breakpoints, source
    vertices, and preimages of target vertices, sorted."""
    return [Fraction(s % g, g)
            for s, _, g in _bend_walk(len(source), len(target), phi)]


def _difference_cycle(source: PolyJordanCurve, target: PolyJordanCurve,
                      phi: PLCorrespondence) -> list[tuple[int, int, int]]:
    """target(phi(s)) - source(s) at every bend, as homogeneous integer
    triples (X, Y, W), W > 0, standing for the point (X / W, Y / W)."""
    den, xs_s, ys_s, xs_t, ys_t = joint_int_coords(source.loop, target.loop)
    n, m = len(xs_s), len(xs_t)
    cycle = []
    for s, t, g in _bend_walk(n, m, phi):
        # Point at parameter s: vertex i plus r/g of the way to vertex i + 1.
        i, r = divmod(s * n, g)
        i, i1 = i % n, (i + 1) % n
        j, q = divmod(t * m, g)
        j, j1 = j % m, (j + 1) % m
        cycle.append((
            xs_t[j] * (g - q) + xs_t[j1] * q - xs_s[i] * (g - r) - xs_s[i1] * r,
            ys_t[j] * (g - q) + ys_t[j1] * q - ys_s[i] * (g - r) - ys_s[i1] * r,
            den * g))
    return cycle


def difference_loop(source: PolyJordanCurve, target: PolyJordanCurve,
                    phi: PLCorrespondence) -> PLLoop:
    """The loop of displacement vectors target(phi(s)) - source(s)."""
    points: list[RatPoint] = []
    for x, y, w in _difference_cycle(source, target, phi):
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

    Raises HasFixedPoint when some boundary point maps to itself, where no
    index is defined.
    """
    cycle = _difference_cycle(source, target, phi)
    if not any(x or y for x, y, _ in cycle):
        raise HasFixedPoint("correspondence is the identity on the boundary")
    try:
        return origin_winding(cycle)
    except PointOnLoop as exc:
        raise HasFixedPoint("difference loop passes through the origin") from exc


def transform_pair(source: PolyJordanCurve, target: PolyJordanCurve,
                   phi: PLCorrespondence, mapping: AffineMap,
                   ) -> tuple[PolyJordanCurve, PolyJordanCurve, PLCorrespondence]:
    """Transport a correspondence along an orientation-preserving affine map.

    Parameters are per-edge fractions, which affine maps preserve, so the same
    breakpoint table works for the transformed curves.
    """
    if mapping.determinant() <= 0:
        raise NotOrientationPreserving("affine map must have positive determinant")
    new_source = validate_curve([mapping.apply(p) for p in source.vertices])
    new_target = validate_curve([mapping.apply(p) for p in target.vertices])
    return new_source, new_target, phi


# -- gluing ------------------------------------------------------------------

@dataclass(frozen=True)
class GluedMap:
    """Result of joining two correspondences along a shared boundary arc."""

    source: PolyJordanCurve
    target: PolyJordanCurve
    phi: PLCorrespondence


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


def glue(source_a: PolyJordanCurve, target_a: PolyJordanCurve,
         phi_a: PLCorrespondence,
         source_b: PolyJordanCurve, target_b: PolyJordanCurve,
         phi_b: PLCorrespondence) -> GluedMap:
    """Join two correspondences that agree along one shared boundary arc.

    The two source curves must meet in exactly one arc with disjoint
    interiors, and likewise the targets; both correspondences must send the
    shared source arc onto the shared target arc identically. The result maps
    the union boundary by whichever original map covers each side.
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

    # The maps must agree on the shared arc: compare at every point where
    # either restriction can bend, which pins the whole piecewise map.
    arc_segs = [Segment(a, b) for a, b in zip(shared_src, shared_src[1:])]
    tgt_arc_segs = [Segment(a, b) for a, b in zip(shared_tgt, shared_tgt[1:])]

    def on_path(p: RatPoint, segs: list[Segment]) -> bool:
        return any(point_on_segment(s, p) for s in segs)

    probe_points: list[RatPoint] = list(shared_src)
    for curve, phi in ((source_a, phi_a), (source_b, phi_b)):
        for s in _refined_params(curve, target_a if phi is phi_a else target_b,
                                 phi):
            p = curve.point_at(s)
            if on_path(p, arc_segs) and p not in probe_points:
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
        if not on_path(q_a, tgt_arc_segs):
            raise ArcsDisagree("shared arc does not map onto the shared target arc")

    pairs: dict[Fraction, Fraction] = {}
    for curve, target, phi in ((source_a, target_a, phi_a),
                               (source_b, target_b, phi_b)):
        for s in _refined_params(curve, target, phi):
            p = curve.point_at(s)
            s_new = glued_source.locate_param(p)
            if s_new is None:
                continue  # interior of the shared arc
            q = target.point_at(phi.evaluate(s))
            t_new = glued_target.locate_param(q)
            if t_new is None:
                raise ArcsDisagree("image point missing from the glued target")
            if s_new in pairs and pairs[s_new] != t_new:
                raise ArcsDisagree("maps differ at a junction")
            pairs[s_new] = t_new
    theta = PLCorrespondence(tuple(sorted(pairs.items())))
    return GluedMap(source=glued_source, target=glued_target, phi=theta)
