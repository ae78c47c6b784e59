"""Constructive three-point prescription on torus diagrams.

Given a diagram with three prescribed pairs, `prescribe` builds a staircase
path through the three constraint lattice points that avoids every crossing
mark and carries a nonnegative index. It works by induction on the crossing
count: pick a crossing pair adjacent along both curves, delete it, solve the
smaller diagram, then thread the path past the reinserted pair without
letting the index drop. `oracle_enumerate` brute-forces every achievable
index value as an independent cross-check.

A staircase path's homotopy class rel marks is determined by which marks lie
below it, so the solver manipulates below-sets and materializes a path only
for verification and output. One integer walk (`_walk`) decides, values and
threads a below-set: it raises the path through the midline of the corridor
each mark leaves open, and fails exactly when a below point sits strictly
up-and-left of an above point, where the two interior constraint lattice
points count on both sides. Each diagram's event list is built once and
shared by every candidate the solver walks on it, and the solver hands the
winning walk up, so no below-set is walked twice.

Every mark and constraint sits at an integer token rank k of n, so the
solver decides positions on those ranks: realizability, cells, frame checks
and each pair's box frame (a cyclic shift of the ranks) compare integers,
and a box's edges, halfway between ranks, are integers in units of 1/(2n).
Threading runs on integers too: a path's vertices are ranks times a scale
that keeps every midpoint an integer, each mark's side is one comparison at
its own column's vertex, and the index is read from those sides. So the
value of a below-set, the oracle's sweep and the reinserted pair's sides
against a child's path (its vertices lifted to parent ranks) build no path
and no `Fraction`. `Fraction`s remain in the returned path, which is the
winning walk scaled once, and in the oracle's extra anchors, which lie off
the token grid and whose denominators join the scale.
"""
from __future__ import annotations

import bisect
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import (
    AssumptionViolated,
    ConstraintOnCurve,
    InputRejection,
    InternalCaseGap,
    InvariantFailure,
    PathHitsMark,
    TooFewCrossings,
    TooLarge,
)
from .exact_geom import _set, trusted, value_type
from .jordan import CrossKind
from .torus import StaircasePath, TorusDiagram, _read_index, index_from_torus

BELOW = "below"
ABOVE = "above"

_FALLBACK_BITS = ((ABOVE, BELOW), (BELOW, ABOVE), (BELOW, BELOW), (ABOVE, ABOVE))


def _cell(value: int, bounds: tuple[int, int]) -> int:
    """0, 1, or 2 depending on which side of the two grid lines value falls."""
    lo, hi = bounds
    if value == lo or value == hi:
        raise InvariantFailure("cell query landed on a grid line")
    return (value > lo) + (value > hi)


@value_type
class AdjacencyBox:
    """Axis-aligned neighborhood of a doubly adjacent crossing pair.

    Coordinates live in the unit square cut at `base_constraint`, chosen as
    the first constraint behind the entry mark so that the box's left edge
    falls in the leftmost column cell. They are integers in units of 1/unit,
    where unit = 2n for a size-n diagram, so the square's side is `unit`.
    The row interval is lifted: `row_hi` greater than `unit` means the box
    wraps through the cut row. `descends` records that the entry mark sits
    above the exit mark, so the pair falls left to right.
    `grid_cols`/`grid_rows` hold the other two constraints' coordinates,
    which split the square into nine cells.
    """

    __slots__ = _fields = ("entry_id", "exit_id", "base_constraint",
                           "descends", "col_lo", "col_hi", "row_lo", "row_hi",
                           "grid_cols", "grid_rows", "unit")

    def __init__(self, entry_id: int, exit_id: int, base_constraint: int,
                 descends: bool, col_lo: int, col_hi: int, row_lo: int,
                 row_hi: int, grid_cols: tuple[int, int],
                 grid_rows: tuple[int, int], unit: int) -> None:
        _set(self, "entry_id", entry_id)
        _set(self, "exit_id", exit_id)
        _set(self, "base_constraint", base_constraint)
        _set(self, "descends", descends)
        _set(self, "col_lo", col_lo)
        _set(self, "col_hi", col_hi)
        _set(self, "row_lo", row_lo)
        _set(self, "row_hi", row_hi)
        _set(self, "grid_cols", grid_cols)
        _set(self, "grid_rows", grid_rows)
        _set(self, "unit", unit)

    @property
    def wrap(self) -> bool:
        return self.row_hi > self.unit

    @property
    def row_top(self) -> int:
        """Top edge folded back into the unit square."""
        return self.row_hi - self.unit if self.wrap else self.row_hi

    @property
    def lower_left_cell(self) -> tuple[int, int]:
        return (_cell(self.col_lo, self.grid_cols),
                _cell(self.row_lo, self.grid_rows))

    @property
    def upper_right_cell(self) -> tuple[int, int]:
        return (_cell(self.col_hi, self.grid_cols),
                _cell(self.row_top, self.grid_rows))


class BoxCategory(Enum):
    """How a pair's box sits relative to the cells a faithful path can use."""

    EMPTY = "empty"            # box misses every diagonal cell
    CORNER = "corner"          # a box corner pokes into a diagonal cell
    LATTICE = "lattice"        # a constraint lattice point lies inside
    SPAN = "span"              # crosses the middle row cell at full width
    WRAP_SPLIT = "wrap-split"  # wraps through the cut row past column one
    FORBIDDEN = "forbidden"    # cannot occur for both qualifying pairs


def find_doubly_adjacent(diagram: TorusDiagram) -> list[AdjacencyBox]:
    """Every doubly adjacent pair's box, in column order. The README names
    it as API; the solver builds each box only when it reaches the pair."""
    return [_build_box(diagram, *pair) for pair in _adjacent_pairs(diagram)]


def _adjacent_pairs(diagram: TorusDiagram) -> list[tuple]:
    """(entry mark, partner mark, descends) for each doubly adjacent pair,
    in column order; no box is built.

    Adjacent means consecutive among the marks, so only constraint tokens
    may separate the two. Along the columns the entry mark (where the first
    curve enters the second region) must come directly before its partner.
    A pair that wraps past the constraint its frame is cut at has no box
    and is skipped.
    """
    marks = diagram.marks  # in column order
    if len(marks) < 4:
        raise TooFewCrossings("pair selection needs at least four crossings")
    row_rank = {tok[1]: i for i, tok in
                enumerate([t for t in diagram.row_order if t[0] == "m"])}
    count = len(marks)
    pairs = []
    for i, entry in enumerate(marks):
        if entry.kind is not CrossKind.P:
            continue
        partner = marks[(i + 1) % count]
        if partner.kind is not CrossKind.PTILDE:
            raise InvariantFailure("mark kinds stopped alternating")
        gap = (row_rank[entry.crossing_id] - row_rank[partner.crossing_id]) % count
        if gap == 1:
            descends = True
        elif gap == count - 1:
            descends = False
        else:
            continue
        # only the pair that wraps through column 0 can pass its frame's cut
        if partner.col < entry.col and partner.col > diagram.constraint_rank(
                _frame_base(diagram, entry))[0]:
            continue
        pairs.append((entry, partner, descends))
    if len(pairs) < 2:
        raise AssumptionViolated(
            f"only {len(pairs)} doubly adjacent pairs found", diagram.dump())
    return pairs


def _frame_base(diagram: TorusDiagram, entry) -> int:
    """The constraint behind the entry mark, where its pair's frame is cut."""
    rank = diagram.constraint_rank
    return (3 if entry.col > rank(3)[0] else 2 if entry.col > rank(2)[0]
            else 1)


def _build_box(diagram, entry, partner, descends: bool) -> AdjacencyBox:
    """The pair's box in the frame cut at the constraint behind the entry.

    The frame is a cyclic shift, so every token's frame rank is its rank
    minus the base constraint's, mod n, and the frame's constraints 2 and 3
    are the base's two successors; the checks run on those ranks.
    """
    n = diagram.size
    rank = diagram.constraint_rank
    base = _frame_base(diagram, entry)
    c0, r0 = rank(base)

    def frame(col: int, row: int) -> tuple[int, int]:
        return (col - c0) % n, (row - r0) % n

    ec, er = frame(entry.col, entry.row)
    xc, xr = frame(partner.col, partner.row)
    if not ec < xc:
        raise InvariantFailure("pair order broke under rebasing")
    bottom, top = (xr, er) if descends else (er, xr)
    lifted = top if top > bottom else top + n
    f2c, f2r = frame(*rank(base % 3 + 1))
    f3c, f3r = frame(*rank((base + 1) % 3 + 1))
    # the box edges sit halfway between token ranks: 2k -+ 1 over 2n
    if not 0 < 2 * ec - 1 < 2 * xc + 1 < 2 * n:
        raise InvariantFailure("box meets the left or right grid line")
    if ec > f2c:
        raise InvariantFailure("box left edge escaped the first column cell")
    for m in diagram.marks:
        if m.crossing_id in (entry.crossing_id, partner.crossing_id):
            continue
        mc, mr = frame(m.col, m.row)
        if ec <= mc <= xc and (bottom <= mr <= lifted or mr <= lifted - n):
            raise InvariantFailure("box swallowed a third crossing mark")
    return AdjacencyBox(entry_id=entry.crossing_id, exit_id=partner.crossing_id,
                        base_constraint=base, descends=descends,
                        col_lo=2 * ec - 1, col_hi=2 * xc + 1,
                        row_lo=2 * bottom - 1, row_hi=2 * lifted + 1,
                        grid_cols=(2 * f2c, 2 * f3c),
                        grid_rows=(2 * f2r, 2 * f3r), unit=2 * n)


def classify_box(box: AdjacencyBox) -> BoxCategory:
    """Dispatch label computed from the box's cell pattern and contents."""
    rho = box.lower_left_cell[1]
    sigma, tau = box.upper_right_cell
    if (rho, sigma, tau) == (2, 0, 1):
        return BoxCategory.FORBIDDEN
    if (rho, sigma, tau) == (1, 1, 0):
        return BoxCategory.WRAP_SPLIT
    if (rho, sigma, tau) == (1, 2, 1) and not box.wrap:
        return BoxCategory.SPAN
    if _holds_lattice_point(box):
        return BoxCategory.LATTICE
    if not _meets_diagonal_cells(box):
        return BoxCategory.EMPTY
    # Boxes whose corner pokes into a diagonal cell, plus the rare wrapped
    # lookalikes that cross a cell side to side; both reroute the same way.
    return BoxCategory.CORNER


def _holds_lattice_point(box: AdjacencyBox) -> bool:
    for x, y in zip(box.grid_cols, box.grid_rows):
        if not box.col_lo < x < box.col_hi:
            continue
        if box.row_lo < y < box.row_hi or \
                box.row_lo < y + box.unit < box.row_hi:
            return True
    return False


def _meets_diagonal_cells(box: AdjacencyBox) -> bool:
    xs = (0, *box.grid_cols, box.unit)
    ys = (0, *box.grid_rows, box.unit)
    if box.wrap:
        parts = ((box.row_lo, box.unit), (0, box.row_top))
    else:
        parts = ((box.row_lo, box.row_hi),)
    for i in range(3):
        if not (box.col_lo < xs[i + 1] and xs[i] < box.col_hi):
            continue
        if any(lo < ys[i + 1] and ys[i] < hi for lo, hi in parts):
            return True
    return False


# -- bipartitions: realizability, threading, value ----------------------------

def _events(diagram: TorusDiagram, extra=()) -> tuple[int, list]:
    """The scale and the anchors and marks in column order, on integers.

    Coordinates are token ranks times scale = 2^(events + 1) times the lcm
    of the extra anchors' denominators, so every midpoint the threading
    takes is again an integer. A mark event carries its id, an anchor None.
    """
    scale = lcm(*[v.denominator for p in extra for v in p]) \
        << (len(diagram.marks) + len(extra) + 3)
    events = [(c * scale, r * scale, None) for c, r in
              (diagram.constraint_rank(2), diagram.constraint_rank(3))]
    events += [(x.numerator * (scale // x.denominator),
                y.numerator * (scale // y.denominator), None) for x, y in extra]
    events += [(m.col * scale, m.row * scale, m.crossing_id)
               for m in diagram.marks]
    events.sort(key=lambda e: e[0])
    return scale, events


def _walk(diagram: TorusDiagram, scale: int, events,
          below_ids) -> tuple[list[tuple[int, int]], int] | None:
    """Thread a below-set: the path's vertices over n * scale, and its index;
    None when the set is not realizable.

    A set is realizable exactly when no below mark or anchor sits strictly
    up and left of an above mark or anchor (the two interior constraint
    points and any extra anchors count on both sides). The backward pass
    that finds each event's ceiling, the lowest anchor or above mark at or
    after it, returns None at the first below mark or anchor over the
    ceiling behind it. Otherwise every mark's corridor, between the highest
    below point so far and its ceiling, is open, and the walk takes its
    midline. Each mark column carries a vertex, so a mark's side is one
    comparison with that vertex's height. The marks land on the requested
    sides by construction; the comparisons recheck that the path misses
    them, and the index is read from those sides with both formulas.
    """
    top = diagram.size * scale
    # ceiling[i]: lowest anchor or above-mark row at or after event i
    ceiling, low = [], top
    for _, y, cid in reversed(events):
        if cid is None or cid in below_ids:
            if y > low:
                return None
        if cid not in below_ids and y < low:
            low = y
        ceiling.append(low)
    ceiling.reverse()
    vertices = [(0, 0)]
    below, above = set(), set()
    x0 = level = floor = 0
    for i, (x, y, cid) in enumerate(events):
        if cid is None:
            new = floor = y
        else:
            if cid in below_ids:
                floor = max(floor, y)
            new = (max(level, floor) + ceiling[i]) >> 1
            if new == y:
                raise PathHitsMark(f"path passes through mark {cid}")
            (below if y < new else above).add(cid)
        if not (x0 < x and level < new):
            raise InputRejection("path must be strictly increasing")
        x0 = x
        level = new
        vertices.append((x, level))
    vertices.append((top, top))
    return vertices, _read_index(diagram, below, above, 1)


def _staircase(diagram: TorusDiagram, scale: int, vertices) -> StaircasePath:
    """The integer walk scaled to `Fraction`s once. `_walk` has checked that
    its vertices rise strictly, so the path is built without a check."""
    d = diagram.size * scale
    return trusted(StaircasePath, points=tuple(
        [(Fraction(x, d), Fraction(y, d)) for x, y in vertices]))


# -- reinsertion ---------------------------------------------------------------

_LATTICE_PLAYBOOK = {
    # (descends, wrap) -> frame-local (entry, exit) requirements; the falling
    # arrangements raise the index by one, the rising ones keep it
    (True, False): ((ABOVE, BELOW),),
    (True, True): ((BELOW, ABOVE),),
    (False, False): ((BELOW, BELOW), (ABOVE, ABOVE)),
    (False, True): ((ABOVE, BELOW),),
}


def _candidate_plans(box: AdjacencyBox, category: BoxCategory, path_bits):
    plans = []
    if category is BoxCategory.LATTICE:
        plans += [("case", True, bits)
                  for bits in _LATTICE_PLAYBOOK[(box.descends, box.wrap)]]
    elif category is BoxCategory.SPAN:
        plans.append(("case", True, (ABOVE, BELOW)))
    elif category is BoxCategory.CORNER:
        plans += [("case", True, (BELOW, BELOW)), ("case", True, (ABOVE, ABOVE))]
    if path_bits is not None:
        # EMPTY and WRAP_SPLIT lead with the child path's own verdict
        plans.append(("path", False, path_bits))
    plans += [("fallback", False, bits) for bits in _FALLBACK_BITS]
    return plans


def _frame_assignment(diagram: TorusDiagram, box: AdjacencyBox, bits):
    """Turn a requirement stated in the box's frame into bits at the main
    cut, or None when the frame geometry makes it unsatisfiable."""
    above, below = diagram._forced_marks[box.base_constraint]
    out = {}
    for cid, bit in zip((box.entry_id, box.exit_id), bits):
        if cid in above:
            # the box frame sees this mark below any faithful path, while
            # the main cut forces it above
            if bit == ABOVE:
                return None
            out[cid] = ABOVE
        elif cid in below:
            if bit == BELOW:
                return None
            out[cid] = BELOW
        else:
            out[cid] = bit
    return out


def _path_induced_bits(parent: TorusDiagram, box: AdjacencyBox,
                       vertices, scale: int):
    """Sides of the reinserted pair against the child's threaded path, or
    None when the path meets one of its marks.

    The child path's vertices (child ranks times scale) lift to parent
    ranks: child rank i becomes the parent rank of the same token, and a
    height between two child ranks keeps its fraction of the way, so every
    lifted coordinate is an integer over scale. A reinserted mark's column
    is no child token, so it lies strictly inside one lifted segment and
    its side is the sign of one cross product.
    """
    marks = {m.crossing_id: m for m in parent.marks}
    pair = (marks[box.entry_id], marks[box.exit_id])
    gone_cols = sorted(m.col for m in pair)
    gone_rows = sorted(m.row for m in pair)

    def lift(v: int, gone: list[int]) -> int:
        i, r = divmod(v, scale)
        lo = _parent_rank(i, gone)
        if r == 0:
            return lo * scale
        return lo * scale + (_parent_rank(i + 1, gone) - lo) * r

    bits = []
    for m in pair:
        # the first vertex right of the mark sits at child rank m.col minus
        # the removed columns before it
        child_col = m.col - sum(1 for g in gone_cols if g < m.col)
        k = bisect.bisect_left(vertices, child_col * scale, key=lambda v: v[0])
        (x0, y0), (x1, y1) = vertices[k - 1], vertices[k]
        x0, x1 = lift(x0, gone_cols), lift(x1, gone_cols)
        y0, y1 = lift(y0, gone_rows), lift(y1, gone_rows)
        side = (m.row * scale - y0) * (x1 - x0) - (y1 - y0) * (m.col * scale - x0)
        if side == 0:
            return None
        bits.append(BELOW if side < 0 else ABOVE)
    return tuple(bits)


def _parent_rank(rank: int, gone: list[int]) -> int:
    """Parent rank of a child token, given the parent ranks removed, sorted."""
    for g in gone:
        if rank >= g:
            rank += 1
    return rank


# -- the solver ----------------------------------------------------------------

@value_type
class TraceLevel:
    """One solver step; pair fields stay None for the direct rules."""

    __slots__ = _fields = ("depth", "rule", "index", "pair", "base_constraint",
                           "cells", "wrap", "descends", "category",
                           "candidate", "child_index")

    def __init__(self, depth: int, rule: str, index: int,
                 pair: tuple[int, int] | None = None,
                 base_constraint: int | None = None,
                 cells: tuple[tuple[int, int], tuple[int, int]] | None = None,
                 wrap: bool | None = None, descends: bool | None = None,
                 category: str | None = None,
                 candidate: tuple[str, tuple[tuple[int, str], ...]] | None = None,
                 child_index: int | None = None) -> None:
        _set(self, "depth", depth)
        _set(self, "rule", rule)
        _set(self, "index", index)
        _set(self, "pair", pair)
        _set(self, "base_constraint", base_constraint)
        _set(self, "cells", cells)
        _set(self, "wrap", wrap)
        _set(self, "descends", descends)
        _set(self, "category", category)
        _set(self, "candidate", candidate)
        _set(self, "child_index", child_index)


@value_type
class PrescriptionTrace:
    """Audit trail of the induction, deepest level first."""

    __slots__ = _fields = ("levels", "below", "path", "index")

    def __init__(self, levels: tuple[TraceLevel, ...], below: frozenset[int],
                 path: StaircasePath, index: int) -> None:
        _set(self, "levels", levels)
        _set(self, "below", below)
        _set(self, "path", path)
        _set(self, "index", index)


def prescribe(diagram: TorusDiagram) -> tuple[StaircasePath, PrescriptionTrace]:
    """Faithful mark-avoiding staircase path with nonnegative index."""
    levels: list[TraceLevel] = []
    below, scale, vertices, _ = _solve(diagram, 0, levels)
    path = _staircase(diagram, scale, vertices)
    index = index_from_torus(diagram, path, check_all_bases=True)
    if index < 0:
        raise InternalCaseGap("solver returned a negative index:\n"
                              + diagram.dump(path))
    trace = PrescriptionTrace(levels=tuple(levels), below=below,
                              path=path, index=index)
    return path, trace


def _solve(diagram: TorusDiagram, depth: int, levels: list[TraceLevel]):
    """(below-set, scale, walk vertices, index) of a nonnegative path.

    The diagram's event list is built once and shared by every candidate.
    The direct rules keep the best nonnegative candidate, the first on a
    tie: no crossings, then a single crossing pair (every below-set), then
    the single-cell rule (marks sharing a column or row cell, each bit
    forced by the constraint points or else uniform). Anything else, or a
    single cell with no nonnegative choice, goes to the pair rule.
    """
    scale, events = _events(diagram)
    marks = diagram.marks
    ids = [m.crossing_id for m in marks]
    if not marks:
        rule, candidates = "no-crossings", [()]
    elif len(marks) == 2:
        rule, candidates = "two-crossings", [(), ids[:1], ids[1:], ids]
    else:
        rule, candidates = "single-cell", []
        c2 = diagram.constraint_rank(2)
        c3 = diagram.constraint_rank(3)
        grid_cols = (c2[0], c3[0])
        grid_rows = (c2[1], c3[1])
        if len({_cell(m.col, grid_cols) for m in marks}) == 1 or \
                len({_cell(m.row, grid_rows) for m in marks}) == 1:
            # no mark is up-left of one constraint and down-right of the other
            forced = diagram._forced_marks
            forced_above = forced[2][0] | forced[3][0]
            forced_below = forced[2][1] | forced[3][1]
            candidates = [[cid for cid in ids if cid not in forced_above],
                          [cid for cid in ids if cid in forced_below]]
    best = None
    for picks in candidates:
        below = frozenset(picks)
        walk = _walk(diagram, scale, events, below)
        if walk is not None and walk[1] >= 0 and \
                (best is None or walk[1] > best[3]):
            best = (below, scale, *walk)
    if best is not None:
        levels.append(TraceLevel(depth=depth, rule=rule, index=best[3]))
        return best
    if not marks:
        raise InternalCaseGap("crossing-free diagram with negative index")
    if len(marks) == 2:
        raise InternalCaseGap(
            "no nonnegative choice for a single crossing pair:\n" + diagram.dump())
    return _solve_by_pairs(diagram, scale, events, depth, levels)


def _solve_by_pairs(diagram, scale, events, depth, levels):
    """Try the doubly adjacent pairs in column order, building and
    classifying each box only when it is reached; FORBIDDEN boxes are
    reported after the rest. Returns what `_solve` returns."""
    failures, forbidden = [], []
    for entry, partner, descends in _adjacent_pairs(diagram):
        box = _build_box(diagram, entry, partner, descends)
        pair = (box.entry_id, box.exit_id)
        category = classify_box(box)
        if category is BoxCategory.FORBIDDEN:
            forbidden.append((pair, "forbidden"))
            continue
        sub: list[TraceLevel] = []
        child = diagram.without_marks(pair)
        try:
            child_below, child_scale, vertices, child_w = _solve(
                child, depth + 1, sub)
        except (AssumptionViolated, InternalCaseGap) as err:
            failures.append((pair, err.reason))
            continue
        path_bits = _path_induced_bits(diagram, box, vertices, child_scale)
        tried = set()
        for label, in_frame, bits in _candidate_plans(box, category, path_bits):
            assignment = (_frame_assignment(diagram, box, bits) if in_frame
                          else {box.entry_id: bits[0], box.exit_id: bits[1]})
            if assignment is None:
                continue
            key = tuple(sorted(assignment.items()))
            if key in tried:
                continue
            tried.add(key)
            below = child_below | {cid for cid, bit in assignment.items()
                                   if bit == BELOW}
            walk = _walk(diagram, scale, events, below)
            if walk is None or walk[1] < child_w:
                continue
            levels.extend(sub)
            levels.append(TraceLevel(
                depth=depth, rule="pair", index=walk[1], pair=pair,
                base_constraint=box.base_constraint,
                cells=(box.lower_left_cell, box.upper_right_cell),
                wrap=box.wrap, descends=box.descends,
                category=category.value, candidate=(label, key),
                child_index=child_w))
            return below, scale, *walk
        failures.append((pair, "no candidate verified"))
    raise InternalCaseGap(
        f"reinsertion failed for every adjacent pair {failures + forbidden}:\n"
        + diagram.dump())


# -- exhaustive oracle -----------------------------------------------------------

def oracle_enumerate(diagram: TorusDiagram,
                     extra_pairs: Sequence[tuple[Fraction, Fraction]] = (),
                     ) -> frozenset[int]:
    """Every index achievable by a faithful mark-avoiding staircase path.

    Exhausts all mark bipartitions and keeps the realizable ones. Extra
    prescribed pairs (source, target parameters) shrink the feasible set
    without changing any value, turning the three-point problem into a
    diagnostic four-or-more-point one. It stays, with TooLarge, until
    ROADMAP item 5's DP replaces it.
    """
    marks = diagram.marks
    if len(marks) > 12:
        raise TooLarge(f"{len(marks)} crossings exceed the enumeration bound of 12")
    extra = _extra_anchor_points(diagram, extra_pairs)
    scale, events = _events(diagram, extra)
    ids = [m.crossing_id for m in marks]
    achievable = set()
    for mask in range(1 << len(ids)):
        below = frozenset(cid for i, cid in enumerate(ids) if mask >> i & 1)
        walk = _walk(diagram, scale, events, below)
        if walk is not None:
            achievable.add(walk[1])
    return frozenset(achievable)


def _extra_anchor_points(diagram, extra_pairs) -> list[tuple[Fraction, Fraction]]:
    """Extra prescribed pairs in token-rank units, off the token grid."""
    points = []
    n = diagram.size
    for s, t in extra_pairs:
        x, y = diagram.x_of_param(s) * n, diagram.y_of_param(t) * n
        if x.denominator == 1 or y.denominator == 1:
            raise ConstraintOnCurve("extra prescribed pair collides with a token")
        points.append((x, y))
    if len({x for x, _ in points}) < len(points) or \
            len({y for _, y in points}) < len(points):
        raise ConstraintOnCurve("extra prescribed pairs collide with each other")
    return points
