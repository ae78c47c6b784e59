"""Constructive three-point prescription on torus diagrams.

Given a diagram with three prescribed pairs, `prescribe` builds a staircase
path through the three constraint lattice points that avoids every crossing
mark and carries a nonnegative index. It works by induction on the crossing
count: pick a crossing pair adjacent along both curves, delete it, solve the
smaller diagram, then thread the path past the reinserted pair without
letting the index drop. The induction is one loop over an explicit stack
of levels (`_drive`), each the diagram on integers (`torus.Ranks`) with its
event list; a child level is derived from its parent's in O(n) (`_child`).
`oracle_enumerate` cross-checks the solver: achievable indices form an
interval, as below-sets one mark apart join any two; a greedy finds each end.

A staircase path's homotopy class rel marks is determined by which marks lie
below it, so the solver manipulates below-sets and materializes a path only
for verification and output. One integer walk (`_walk`) decides, values and
threads a below-set: it raises the path through the midline of the corridor
each mark leaves open, and fails exactly when a below point sits strictly
up-and-left of an above point, where the two interior constraint lattice
points count on both sides. A level's event list serves every candidate
walked on it, and the solver hands the winning walk up, so no below-set is
walked twice.

Every mark and constraint sits at an integer token rank k of n, so the
solver decides positions on those ranks: realizability, cells, frame checks
and each pair's box frame (a cyclic shift of the ranks) compare integers,
and a box's edges, halfway between ranks, are integers in units of 1/(2n).
Threading runs on integers too: a path's vertices are ranks times a scale
that keeps every midpoint an integer, and each mark's side is one
comparison at its own column's vertex. So the solver, the oracle and the
final check build no `Fraction`: the returned path holds the winning
walk's integers over its one denominator, and builds its `Fraction`
points only when they are read.
"""
from __future__ import annotations

import bisect
from enum import Enum

from .errors import (
    AssumptionViolated,
    InputRejection,
    InternalCaseGap,
    InvariantFailure,
    PathHitsMark,
    TooFewCrossings,
)
from .exact_geom import trusted, value_type
from .torus import Ranks, StaircasePath, TorusDiagram, _read_path

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


def _adjacent_pairs(level: Ranks) -> list[tuple[int, int, bool]]:
    """(entry, partner, descends) for each doubly adjacent pair, in column
    order, each mark by its place in that order; no box is built.

    Adjacent means consecutive among the marks, so only constraint tokens
    may separate the two. Along the columns the entry mark (where the first
    curve enters the second region) must come directly before its partner.
    A pair that wraps past the constraint its frame is cut at has no box
    and is skipped.
    """
    ids, cols, p_ids, count = level.ids, level.cols, level.p_ids, len(level.ids)
    if count < 4:
        raise TooFewCrossings("pair selection needs at least four crossings")
    # a mark's rank among the marks by row: less the constraints below it
    (_, r1), (_, r2), (_, r3) = level.constraints
    row_rank = [r - (r > r1) - (r > r2) - (r > r3) for r in level.rows]
    pairs = []
    for e, cid in enumerate(ids):
        if cid not in p_ids:
            continue
        x = (e + 1) % count
        if ids[x] in p_ids:
            raise InvariantFailure("mark kinds stopped alternating")
        gap = (row_rank[e] - row_rank[x]) % count
        if gap not in (1, count - 1):
            continue
        # only the pair that wraps through column 0 can pass its frame's cut
        if x == 0 and cols[0] > level.constraints[
                _frame_base(level, cols[e]) - 1][0]:
            continue
        pairs.append((e, x, gap == 1))  # descends
    if len(pairs) < 2:
        raise AssumptionViolated(
            f"only {len(pairs)} doubly adjacent pairs found:\n" + level.dump())
    return pairs


def _frame_base(level: Ranks, col: int) -> int:
    """The constraint behind an entry column, where its pair's frame is cut."""
    _, (c2, _), (c3, _) = level.constraints
    return 3 if col > c3 else 2 if col > c2 else 1


def _build_box(level: Ranks, e: int, x: int, descends: bool) -> AdjacencyBox:
    """The box of entry mark e and partner x in the frame cut at the
    constraint behind the entry.

    The frame is a cyclic shift, so every token's frame rank is its rank
    minus the base constraint's, mod n, and the frame's constraints 2 and 3
    are the base's two successors; the checks run on those ranks.
    """
    n = level.size
    cols, rows, ids = level.cols, level.rows, level.ids
    base = _frame_base(level, cols[e])
    c0, r0 = level.constraints[base - 1]

    def frame(col: int, row: int) -> tuple[int, int]:
        return (col - c0) % n, (row - r0) % n

    ec, er = frame(cols[e], rows[e])
    xc, xr = frame(cols[x], rows[x])
    if not ec < xc:
        raise InvariantFailure("pair order broke under rebasing")
    bottom, top = (xr, er) if descends else (er, xr)
    lifted = top if top > bottom else top + n
    f2c, f2r = frame(*level.constraints[base % 3])
    f3c, f3r = frame(*level.constraints[(base + 1) % 3])
    # the box edges sit halfway between token ranks: 2k -+ 1 over 2n
    if not 0 < 2 * ec - 1 < 2 * xc + 1 < 2 * n:
        raise InvariantFailure("box meets the left or right grid line")
    if ec > f2c:
        raise InvariantFailure("box left edge escaped the first column cell")
    # marks between the two by frame column: none when they are adjacent
    k = (e + 1) % len(ids)
    while k != x:
        mr = (rows[k] - r0) % n
        if bottom <= mr <= lifted or mr <= lifted - n:
            raise InvariantFailure("box swallowed a third crossing mark")
        k = (k + 1) % len(ids)
    return trusted(AdjacencyBox, entry_id=ids[e], exit_id=ids[x],
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

def _events(level: Ranks) -> tuple[int, list]:
    """The scale and the anchors and marks in column order, on integers.

    Coordinates are token ranks times scale = 2^(events + 1), so every
    midpoint the threading takes is again an integer. The anchors are
    constraints 2 and 3. A mark event carries its id, an anchor None.
    """
    scale = 1 << (len(level.ids) + 3)
    events = [(c * scale, r * scale, None) for c, r in level.constraints[1:]]
    events += [(c * scale, r * scale, cid)
               for c, r, cid in zip(level.cols, level.rows, level.ids)]
    events.sort(key=lambda e: e[0])
    return scale, events


def _walk(level: Ranks, scale: int, events,
          below_ids) -> tuple[list[tuple[int, int]], int] | None:
    """Thread a below-set: the path's vertices over n * scale, and its index;
    None when the set is not realizable.

    A set is realizable exactly when no below mark or anchor sits strictly
    up and left of an above mark or anchor (anchors, such as the two
    interior constraint points, count on both sides). The backward pass
    that finds each event's ceiling, the lowest anchor or above mark at or
    after it, returns None at the first below mark or anchor over the
    ceiling behind it. Otherwise every mark's corridor, between the highest
    below point so far and its ceiling, is open, and the walk takes its
    midline. Each mark column carries a vertex, so a mark's side is one
    comparison with that vertex's height. The marks land on the requested
    sides by construction; the comparisons recheck that the path misses
    them, and the index is read from those sides with both formulas.
    """
    top = level.size * scale
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
    x0 = height = floor = 0
    for i, (x, y, cid) in enumerate(events):
        if cid is None:
            new = floor = y
        else:
            if cid in below_ids and y > floor:
                floor = y
            new = ((height if height > floor else floor) + ceiling[i]) >> 1
            if new == y:
                raise PathHitsMark(f"path passes through mark {cid}")
            (below if y < new else above).add(cid)
        if not (x0 < x and height < new):
            raise InputRejection("path must be strictly increasing")
        x0 = x
        height = new
        vertices.append((x, height))
    vertices.append((top, top))
    return vertices, level.read(below, above, 1)


def _staircase(diagram: TorusDiagram, scale: int, vertices) -> StaircasePath:
    """The integer walk as a path of ratios over its one denominator, with
    no `Fraction`. `_walk` has checked that its vertices rise strictly, so
    the path is built without a check."""
    d = diagram.size * scale
    return trusted(StaircasePath,
                   ratios=tuple([(x, d, y, d) for x, y in vertices]))


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


def _frame_assignment(level: Ranks, box: AdjacencyBox, bits):
    """Turn a requirement stated in the box's frame into bits at the main
    cut, or None when the frame geometry makes it unsatisfiable."""
    above, below = level.forced[box.base_constraint]
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


def _path_induced_bits(level: Ranks, e: int, x: int, vertices, scale: int):
    """Sides of the reinserted pair, marks e and x of the level, against
    the child's threaded path, or None when the path meets one of them.

    The child path's vertices (child ranks times scale) lift to parent
    ranks: child rank i becomes the parent rank of the same token, and a
    height between two child ranks keeps its fraction of the way, so every
    lifted coordinate is an integer over scale. A reinserted mark's column
    is no child token, so it lies strictly inside one lifted segment and
    its side is the sign of one cross product.
    """
    pair = [(level.cols[k], level.rows[k]) for k in (e, x)]
    gone_cols, gone_rows = (sorted(v) for v in zip(*pair))

    def lift(v: int, gone: list[int]) -> int:
        i, r = divmod(v, scale)
        lo = _parent_rank(i, gone)
        if r == 0:
            return lo * scale
        return lo * scale + (_parent_rank(i + 1, gone) - lo) * r

    bits = []
    for col, row in pair:
        # the first vertex right of the mark sits at child rank col minus
        # the removed columns before it
        child_col = col - sum(1 for g in gone_cols if g < col)
        k = bisect.bisect_left(vertices, child_col * scale, key=lambda v: v[0])
        (x0, y0), (x1, y1) = vertices[k - 1], vertices[k]
        x0, x1 = lift(x0, gone_cols), lift(x1, gone_cols)
        y0, y1 = lift(y0, gone_rows), lift(y1, gone_rows)
        side = (row * scale - y0) * (x1 - x0) - (y1 - y0) * (col * scale - x0)
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


def _child(level: Ranks, scale: int, events, e: int, x: int):
    """The level without e and x, a doubly adjacent pair, with its scale
    (the parent's over 4, as two fewer events need two fewer halvings) and
    event list, derived in O(n). Deleting two tokens moves each later rank
    down past them (the inverse of `_parent_rank`) and keeps every order
    and the alternation, and each constraint forces what it forced but the
    pair: nothing is sorted or checked again. A child keeps marks, so it
    needs no containment tag."""
    ids = level.ids
    gone = {ids[e], ids[x]}
    c0, c1 = sorted((level.cols[e], level.cols[x]))
    r0, r1 = sorted((level.rows[e], level.rows[x]))
    lo, hi = sorted((e, x))

    def kept(seq: list) -> list:
        return seq[:lo] + seq[lo + 1:hi] + seq[hi + 1:]

    child = Ranks(
        level.size - 2,
        tuple([(c - (c > c0) - (c > c1), r - (r > r0) - (r > r1))
               for c, r in level.constraints]),
        [c - (c > c0) - (c > c1) for c in kept(level.cols)],
        [r - (r > r0) - (r > r1) for r in kept(level.rows)],
        kept(ids), level.p_ids - gone,
        {i: (up - gone, down - gone)
         for i, (up, down) in level.forced.items()})
    # a level's events are its tokens but constraint 1: the kth is at column k
    shift, child_scale = scale.bit_length() - 1, scale >> 2
    rows = [(y >> shift, cid) for _, y, cid in events if cid not in gone]
    return child, child_scale, [
        (k * child_scale, (r - (r > r0) - (r > r1)) * child_scale, cid)
        for k, (r, cid) in enumerate(rows, 1)]


# -- the solver ----------------------------------------------------------------

@value_type
class TraceLevel:
    """One solver step; pair fields stay None for the direct rules."""

    __slots__ = _fields = ("depth", "rule", "index", "pair", "base_constraint",
                           "cells", "wrap", "descends", "category",
                           "candidate", "child_index")
    _defaults = dict.fromkeys(_fields[3:])


@value_type
class PrescriptionTrace:
    """Audit trail of the induction, deepest level first."""

    __slots__ = _fields = ("levels", "below", "path", "index")


def prescribe(diagram: TorusDiagram) -> tuple[StaircasePath, PrescriptionTrace]:
    """Faithful mark-avoiding staircase path with nonnegative index. The
    winning walk is checked on the path's integer ratios as
    `index_from_torus(check_all_bases=True)` checks a path."""
    level = diagram._ranks
    below, scale, vertices, _, levels = _drive(_solve(level, *_events(level), 0))
    path = _staircase(diagram, scale, vertices)
    index = _read_path(level, path.ratios, True)[2]
    if index < 0:
        raise InternalCaseGap("solver returned a negative index:\n"
                              + level.dump(path))
    return path, PrescriptionTrace(levels=tuple(levels), below=below,
                                   path=path, index=index)


def _drive(solver):
    """The induction from one level's solver (`_solve`, a generator that
    yields each child level it needs solved), as one loop over a stack: a
    finished level's solution is sent to its parent, and an
    AssumptionViolated or InternalCaseGap thrown into it, as a call would."""
    stack, reply, failure = [solver], None, None
    while True:
        try:
            child = (stack[-1].send(reply) if failure is None
                     else stack[-1].throw(failure))
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            reply, failure = done.value, None
        except (AssumptionViolated, InternalCaseGap) as err:
            stack.pop()
            if not stack:
                raise
            reply, failure = None, err
        else:
            stack.append(_solve(*child))
            reply = failure = None


def _solve(level: Ranks, scale: int, events, depth: int):
    """(below-set, scale, walk vertices, index, trace deepest level first)
    of a nonnegative path; a generator that `_drive` runs.

    The level's event list serves every candidate. The direct rules keep
    the best nonnegative candidate, the first on a tie: no crossings, then a
    single crossing pair (every below-set), then the single-cell rule (marks
    sharing a column or row cell, each bit forced by the constraint points
    or else uniform). Anything else, or a single cell with no nonnegative
    choice, goes to the pair rule.
    """
    ids = level.ids
    if not ids:
        rule, candidates = "no-crossings", [()]
    elif len(ids) == 2:
        rule, candidates = "two-crossings", [(), ids[:1], ids[1:], ids]
    else:
        rule, candidates = "single-cell", []
        _, (c2, r2), (c3, r3) = level.constraints
        cols, rows = level.cols, level.rows
        # cells rise with the rank: all marks share one if the extremes do
        if _cell(cols[0], (c2, c3)) == _cell(cols[-1], (c2, c3)) or \
                _cell(min(rows), (r2, r3)) == _cell(max(rows), (r2, r3)):
            # no mark is up-left of one constraint and down-right of the other
            forced = level.forced
            forced_above = forced[2][0] | forced[3][0]
            forced_below = forced[2][1] | forced[3][1]
            candidates = [[cid for cid in ids if cid not in forced_above],
                          [cid for cid in ids if cid in forced_below]]
    best = None
    for picks in candidates:
        below = frozenset(picks)
        walk = _walk(level, scale, events, below)
        if walk is not None and walk[1] >= 0 and \
                (best is None or walk[1] > best[3]):
            best = (below, scale, *walk)
    if best is not None:
        return (*best, [TraceLevel(depth=depth, rule=rule, index=best[3])])
    if not ids:
        raise InternalCaseGap("crossing-free diagram with negative index")
    if len(ids) == 2:
        raise InternalCaseGap(
            "no nonnegative choice for a single crossing pair:\n" + level.dump())
    return (yield from _solve_by_pairs(level, scale, events, depth))


def _solve_by_pairs(level: Ranks, scale: int, events, depth: int):
    """Try the doubly adjacent pairs in column order, building and
    classifying each box only when it is reached; FORBIDDEN boxes are
    reported after the rest. Yields and returns as `_solve` does."""
    failures, forbidden = [], []
    for e, x, descends in _adjacent_pairs(level):
        box = _build_box(level, e, x, descends)
        pair = (box.entry_id, box.exit_id)
        category = classify_box(box)
        if category is BoxCategory.FORBIDDEN:
            forbidden.append((pair, "forbidden"))
            continue
        child = _child(level, scale, events, e, x)
        try:
            child_below, child_scale, vertices, child_w, trace = \
                yield (*child, depth + 1)
        except (AssumptionViolated, InternalCaseGap) as err:
            failures.append((pair, err.reason))
            continue
        path_bits = _path_induced_bits(level, e, x, vertices, child_scale)
        tried = set()
        for label, in_frame, bits in _candidate_plans(box, category, path_bits):
            assignment = (_frame_assignment(level, box, bits) if in_frame
                          else {box.entry_id: bits[0], box.exit_id: bits[1]})
            if assignment is None:
                continue
            key = tuple(sorted(assignment.items()))
            if key in tried:
                continue
            tried.add(key)
            below = child_below | {cid for cid, bit in assignment.items()
                                   if bit == BELOW}
            walk = _walk(level, scale, events, below)
            if walk is None or walk[1] < child_w:
                continue
            trace.append(trusted(
                TraceLevel, depth=depth, rule="pair", index=walk[1], pair=pair,
                base_constraint=box.base_constraint,
                cells=(box.lower_left_cell, box.upper_right_cell),
                wrap=box.wrap, descends=box.descends,
                category=category.value, candidate=(label, key),
                child_index=child_w))
            return below, scale, *walk, trace
        failures.append((pair, "no candidate verified"))
    raise InternalCaseGap(
        f"reinsertion failed for every adjacent pair {failures + forbidden}:\n"
        + level.dump())


# -- index-set oracle ----------------------------------------------------------

def oracle_enumerate(diagram: TorusDiagram) -> frozenset[int]:
    """Every index achievable by a faithful mark-avoiding staircase path:
    the base, one `read` with no mark below (both formulas differ by one
    count on every below-set), plus the sum of c over the marks below, -1
    for P and +1 for its partner. The realizable below-sets are the ideals
    of the up-left order between two the anchors force, and chains one mark
    apart join any two, so the sums form an interval."""
    level = diagram._ranks
    base = level.read(frozenset(), frozenset(level.ids), 1)
    events = sorted([(c, r, None) for c, r in level.constraints[1:]]
                    + list(zip(level.cols, level.rows, level.ids)))
    lo, hi = (_least(events, level.p_ids, sign) for sign in (1, -1))
    return frozenset(range(base + lo, base + hi + 1))


def _least(events, p_ids, sign: int) -> int:
    """The least sum of sign * c, times sign. A path passes the events at a
    threshold t that never falls from 1; at row r, t = 2r + 1, a mark is
    below when t exceeds it, an anchor on the path. The best sum at t is
    `value` less the drops up to t: a mark under the last anchor is below
    every path, one with sign * c < 0 adds a drop over itself, another
    cancels the least over it; an anchor takes those under it, clears all."""
    start, value, drops = 1, 0, []
    for _, row, cid in events:
        t = 2 * row + 1
        c = -sign if cid in p_ids else sign
        if cid is None:
            value -= bisect.bisect(drops, t)
            start, drops = t, []
        elif t < start:
            value += c
        elif c < 0:
            bisect.insort(drops, t + 1)
        elif (k := bisect.bisect(drops, t)) < len(drops):
            del drops[k]
    return sign * (value - len(drops))
