"""`fpindex selftest`: seeded checks of the index, prescription and packing
kernels against the laws they must obey.

Only the selftest command imports this module, so no other command
compiles it. The report and the exit codes are those `cli` documents: a
violation raises SelfTestFailure, which carries the full report, and the
command exits with 1.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import (
    AssumptionViolated,
    HasFixedPoint,
    InputRejection,
    InvariantFailure,
    TooLarge,
)
from .exact_geom import RatPoint
from .jordan import (
    PolyJordanCurve,
    canonical_noncut_pair,
    check_transverse,
    validate_curve,
)
from .packing import PackingSpec, TopoRectangle, certify_incompatibility
from .plmap import PLCorrespondence, fixed_point_index, random_correspondence
from .prescribe import oracle_enumerate, prescribe
from .torus import build_diagram, realize_path


def _unit_directions(n: int) -> tuple[RatPoint, ...]:
    """n rational points on the unit circle at near-regular angles."""
    points = []
    for k in range(n):
        u = Fraction(2 * k + 1, 2 * n)
        t = Fraction(math.tan(math.pi * (float(u) - 0.5))).limit_denominator(10**6)
        den = 1 + t * t
        points.append(RatPoint((1 - t * t) / den, 2 * t / den))
    return tuple(points)


def _suite_circle_index(rng: random.Random, trials: int) -> dict:
    directions = _unit_directions(64)

    def circle_gon(center: RatPoint, radius: Fraction) -> PolyJordanCurve:
        # convex rational 64-gon inscribed in the circle, circle-like for
        # index purposes: convex, star-shaped around its center
        return validate_curve([center + d.scale(radius) for d in directions])

    violations = []
    for k in range(trials):
        config = ("disjoint", "nested", "crossing")[k % 3]
        r1 = Fraction(rng.randrange(2, 5))
        r2 = Fraction(rng.randrange(2, 5))
        if config == "disjoint":
            c2 = RatPoint(r1 + r2 + rng.randrange(1, 4), Fraction(0))
            want = {0}
        elif config == "nested":
            r2 = r1 + rng.randrange(2, 5)
            c2 = RatPoint(Fraction(0), Fraction(0))
            want = {1}
        else:
            c2 = RatPoint(max(r1, r2), Fraction(0))
            want = {0, 1, 2}  # crossing circles: nonnegative, at most 2
        first = circle_gon(RatPoint(Fraction(0), Fraction(0)), r1)
        second = circle_gon(c2, r2)
        phi = random_correspondence(rng, rng.randrange(3, 9))
        try:
            eta = fixed_point_index(first, second, phi)
            back = fixed_point_index(second, first, phi.invert())
        except HasFixedPoint:
            continue
        if eta != back:
            violations.append({"trial": k, "why": "inverse index differs",
                               "eta": eta, "back": back})
        if eta not in want and not (config == "crossing" and eta >= 0):
            violations.append({"trial": k, "why": f"{config} index {eta}"})
    return {"name": "circle_index", "trials": trials, "violations": violations}


def _synth_constraints(rng: random.Random, crossings,
                       phi: PLCorrespondence) -> list:
    banned_s = {c.param_k for c in crossings}
    banned_t = {c.param_kt for c in crossings}
    pairs: dict = {}
    while len(pairs) < 3:
        s = Fraction(rng.randrange(997), 997)
        t = phi.evaluate(s)
        if s in banned_s or t in banned_t or s in pairs:
            continue
        pairs[s] = t
    return sorted(pairs.items())


def _suite_prescribe(rng: random.Random, trials: int) -> dict:
    violations = []
    dumps = []
    for k in range(trials):
        m = 1 + k % 2
        first, second = canonical_noncut_pair(m)
        crossings = check_transverse(first, second)
        phi = random_correspondence(rng, rng.randrange(3, 7))
        try:
            eta_pair = fixed_point_index(first, second, phi)
        except HasFixedPoint:
            eta_pair = None
        if eta_pair is not None and not 0 <= eta_pair <= 2:
            violations.append({"trial": k, "why": f"noncut index {eta_pair}"})
        constraints = _synth_constraints(rng, crossings, phi)
        diagram = build_diagram(first, second, crossings, constraints)
        try:
            path, trace = prescribe(diagram)
        except AssumptionViolated as exc:
            dumps.append(str(exc))
            violations.append({"trial": k, "why": "assumption violated"})
            continue
        realized = realize_path(diagram, path)
        eta = fixed_point_index(first, second, realized)
        if trace.index < 0 or eta != trace.index:
            violations.append({"trial": k, "why": "trace/geometry mismatch",
                               "w": trace.index, "eta": eta})
        try:
            achievable = oracle_enumerate(diagram)
        except TooLarge:
            continue
        if trace.index not in achievable or max(achievable) < 0:
            violations.append({"trial": k, "why": "oracle disagrees",
                               "achievable": sorted(achievable)})
    return {"name": "prescribe", "trials": trials,
            "violations": violations, "assumption_dumps": dumps}


def _builtin_packing_pair() -> tuple[PackingSpec, PackingSpec, list[int]]:
    def c(*vs):
        return validate_curve([RatPoint(Fraction(x), Fraction(y))
                               for x, y in vs])

    rect_a = TopoRectangle(
        c((0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)),
        (0, 2, 4, 6))
    first = PackingSpec(rect_a, (c((2, 0), (4, 2), (2, 4), (0, 2)),))
    rect_b = TopoRectangle(
        c((-2, 1), (2, 1), (6, 1), (6, 2), (6, 3), (2, 3), (-2, 3), (-2, 2)),
        (0, 2, 4, 6))
    second = PackingSpec(rect_b, (c((2, 1), (6, 2), (2, 3), (-2, 2)),))
    return first, second, [0]


def _suite_packing(_rng: random.Random, _trials: int) -> dict:
    violations = []
    first, second, correspondence = _builtin_packing_pair()
    _, cutting, cert = certify_incompatibility(first, second, correspondence)
    if cutting != cert.cutting_index:
        violations.append({"why": "cutting indices disagree"})
    if cert.rect_index != cert.piece_sum + cert.interstice_sum:
        violations.append({"why": "additivity identity failed"})
    if any(v < 0 for v in cert.interstice_indices):
        violations.append({"why": "negative interstice index"})
    return {"name": "packing_kernel", "trials": 1, "violations": violations}


def cmd_selftest(seed: int, trials: int | None) -> dict:
    if trials is not None and trials < 1:
        raise InputRejection(f"--trials must be at least 1, got {trials}")
    suites = []
    for suite, default in ((_suite_circle_index, 30), (_suite_prescribe, 10),
                           (_suite_packing, 1)):
        rng = random.Random(seed)
        suites.append(suite(rng, default if trials is None else trials))
    ok = all(not s["violations"] for s in suites)
    report = {"seed": seed, "ok": ok, "suites": suites}
    if not ok:
        raise SelfTestFailure(report)
    return report


class SelfTestFailure(InvariantFailure):
    """Carries the full selftest report for the failure path."""

    def __init__(self, report: dict):
        super().__init__("selftest found violations")
        self.report = report
