"""Seeded input generators for the benchmark, built on fpindex's public API.

Nothing here imports from the repository's tests, so editing a test cannot
change what the benchmark measures. Every generator draws from the
`random.Random` it is given, so a seed fixes the inputs. Calls into fpindex
go through the tracer `tr`, which records a span per call in a traced run
and is a plain call otherwise.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from fpindex.errors import HasFixedPoint, NotTransverse
from fpindex.exact_geom import PLLoop, RatPoint, pt
from fpindex.jordan import PolyJordanCurve, check_transverse, validate_curve
from fpindex.plmap import fixed_point_index, random_correspondence

F = Fraction


def rational_direction(t: Fraction) -> RatPoint:
    """Unit vector from the tangent half-angle parameter t."""
    den = 1 + t * t
    return RatPoint((1 - t * t) / den, 2 * t / den)


def unit_directions(n: int = 64, max_den: int = 10**6) -> tuple[RatPoint, ...]:
    """n rational unit vectors at near-regular angles, counterclockwise.

    The tangent parameters are limited to denominators of at most `max_den`,
    so the coordinates carry denominators of about `max_den`**2.
    """
    out = []
    for k in range(n):
        u = (2 * k + 1) / (2 * n)
        t = F(math.tan(math.pi * (u - 0.5))).limit_denominator(max_den)
        out.append(rational_direction(t))
    return tuple(out)


def circle(tr, dirs, cx: Fraction, cy: Fraction, r: Fraction) -> PolyJordanCurve:
    """Polygon inscribed in the circle of radius r about (cx, cy)."""
    loop = PLLoop(tuple(RatPoint(cx + r * d.x, cy + r * d.y) for d in dirs))
    return tr.call("jordan.PolyJordanCurve", PolyJordanCurve, loop)


def _quarters(rng: random.Random, lo: int, hi: int) -> Fraction:
    return F(rng.randrange(4 * lo, 4 * hi + 1), 4)


def circle_pairs(rng: random.Random, tr, dirs) -> dict[str, tuple]:
    """One circle pair in each of four mutual positions.

    Radii and separations move in quarter units. An inscribed polygon stays
    within a relative sag of 1 - cos(pi/n) of its circle, far below a quarter
    unit, so the disjoint and nested classes hold by construction. The two
    crossing classes draw their centres until the round circles cross with
    that margin, before any polygon is built, so set-up builds eight
    polygons whatever the seed; check_transverse verifies them.
    """
    pairs = {}
    r1, r2 = _quarters(rng, 1, 3), _quarters(rng, 1, 3)
    d = r1 + r2 + _quarters(rng, 1, 3)
    pairs["disjoint"] = (circle(tr, dirs, F(0), F(0), r1),
                         circle(tr, dirs, d, F(0), r2))
    r_in = _quarters(rng, 1, 2)
    r_out = r_in + _quarters(rng, 1, 3)
    inner = circle(tr, dirs, F(rng.randrange(-1, 2), 4),
                   F(rng.randrange(-1, 2), 4), r_in)
    outer = circle(tr, dirs, F(0), F(0), r_out)
    pairs["nested"] = (inner, outer) if rng.randrange(2) else (outer, inner)
    while "two_cross" not in pairs:
        r1, r2 = _quarters(rng, 2, 4), _quarters(rng, 2, 4)
        lo, hi = abs(r1 - r2) + 1, r1 + r2 - 1
        d = lo + F(rng.randrange(int(4 * (hi - lo)) + 1), 4)
        pair = (circle(tr, dirs, F(0), F(0), r1), circle(tr, dirs, d, F(0), r2))
        if len(tr.call("jordan.check_transverse", check_transverse, *pair)) == 2:
            pairs["two_cross"] = pair
    while "general" not in pairs:
        c1, c2 = (pt(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(2))
        r1, r2 = _quarters(rng, 1, 4), _quarters(rng, 1, 4)
        gap = (c1 - c2).dot(c1 - c2)
        if not (abs(r1 - r2) + F(1, 4)) ** 2 < gap < (r1 + r2 - F(1, 4)) ** 2:
            continue
        pair = (circle(tr, dirs, c1.x, c1.y, r1), circle(tr, dirs, c2.x, c2.y, r2))
        try:
            crossings = tr.call("jordan.check_transverse", check_transverse, *pair)
        except NotTransverse:
            continue
        if len(crossings) >= 2:
            pairs["general"] = pair
    return pairs


def star_polygon(rng: random.Random, n: int, center: RatPoint,
                 rmin: int, rmax: int) -> PLLoop:
    """A simple, counterclockwise polygon, star-shaped about `center`.

    One vertex per angular sector keeps every angular gap below pi, so the
    radial polygon is simple whatever the radii.
    """
    vertices = []
    for i in range(n):
        u = (i + rng.randrange(5, 96) / 100) / n
        t = F(math.tan(math.pi * (u - 0.5))).limit_denominator(10**6)
        r = F(rng.randrange(rmin * 64, rmax * 64 + 1), 64)
        vertices.append(center + rational_direction(t).scale(r))
    return PLLoop(tuple(vertices))


def transverse_pair(rng: random.Random, tr, min_crossings: int,
                    max_crossings: int, nmin: int = 6, nmax: int = 12):
    """Rejection-sample a transverse star-polygon pair.

    Tangent or overlapping draws, and draws outside the crossing range, are
    discarded, never nudged. Centres at most one unit apart keep about four
    draws in five, which keeps the time per pair from varying with the
    number of redraws. Counts `jordan.pairs_sampled` per draw.
    """
    while True:
        tr.count("jordan.pairs_sampled")
        a = star_polygon(rng, rng.randrange(nmin, nmax + 1), pt(0, 0), 2, 5)
        off = pt(rng.randrange(-1, 2), rng.randrange(-1, 2))
        b = star_polygon(rng, rng.randrange(nmin, nmax + 1), off, 2, 5)
        first = tr.call("jordan.validate_curve", validate_curve, a)
        second = tr.call("jordan.validate_curve", validate_curve, b)
        try:
            crossings = tr.call("jordan.check_transverse", check_transverse,
                                first, second)
        except NotTransverse:
            continue
        if min_crossings <= len(crossings) <= max_crossings:
            return first, second, crossings


def indexable_map(rng: random.Random, tr, first, second, lo: int, hi: int):
    """A random correspondence with lo..hi-1 breakpoints and its index.

    Draws that have a fixed point carry no index; they are redrawn and
    counted as `plmap.fixed_point_index.rejected`.
    """
    while True:
        phi = tr.call("plmap.random_correspondence", random_correspondence,
                      rng, rng.randrange(lo, hi))
        try:
            return phi, tr.call("plmap.fixed_point_index", fixed_point_index,
                                first, second, phi)
        except HasFixedPoint:
            tr.count("plmap.fixed_point_index.rejected")


def synth_constraints(rng: random.Random, crossings, phi):
    """Three distinct source parameters off the crossing grid, through phi."""
    banned_s = {c.param_k for c in crossings}
    banned_t = {c.param_kt for c in crossings}
    pairs = {}
    while len(pairs) < 3:
        s = F(rng.randrange(997), 997)
        t = phi.evaluate(s)
        if s not in banned_s and t not in banned_t:
            pairs[s] = t
    return sorted(pairs.items())
