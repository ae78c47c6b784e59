"""Torus picture of a boundary correspondence.

The product of the two boundary parameter circles is a torus. A transverse
crossing of the curves appears there as a marked point (its two parameters),
carrying the crossing's kind; an orientation-preserving correspondence appears
as a monotone degree-(1,1) loop; and three prescribed point pairs appear as
three lattice points the loop must visit.

Cutting the torus at the first prescribed pair turns the loop into a strictly
increasing path from (0,0) to (1,1) in the unit square. Token coordinates make
the picture combinatorial: the crossing and constraint parameters are re-spaced
evenly along each axis, which moves nothing across anything else.

The fixed-point index of the correspondence is then read off the diagram in
two ways, which must agree:

    index = inside1 + inside2 - (entering marks below the path)
                              + (exiting marks below the path)
    index = inside1 + inside2 + (entering marks above the path)
                              - (exiting marks above the path)

where inside1 says whether the first prescribed source point lies inside the
second region and inside2 whether its partner lies inside the first. Both
memberships are decided combinatorially: walking forward from the point, the
next crossing tells you which side you are on.

Cutting at another prescribed pair is a cyclic shift of the torus by that
pair's token ranks, so the reading at that cut follows from the marks' ranks
and sides at the first, with no diagram or path rebuilt. One routine reads
a path's integer vertices on the diagram's integer form (`_read_path`).
A diagram keeps `Fraction` parameters and reads itself on integer ranks
(`Ranks`); a path keeps integer ratios and builds `Fraction` points when
they are read (`StaircasePath`). Maps and paths are carried into each
other on integer ratios; a `Fraction` is made only for a value a map stores.

Diagrams and paths are checked once, where they enter: by the
`TorusDiagram` and `StaircasePath` constructors. Those this module derives
from checked input, whose invariants hold by construction, are built by the
trusted constructor `exact_geom.trusted`; each such function says why.
"""
from __future__ import annotations

import bisect
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import (
    BasePointOnGrid,
    ConstraintOnCurve,
    FormulaMismatch,
    InputRejection,
    OrderViolation,
    PathHitsMark,
)
from .exact_geom import _set, trusted, value_type
from .jordan import (
    Containment,
    CrossKind,
    CrossingSet,
    PolyJordanCurve,
    _check_kinds,
    _containment,
)
from .plmap import PLCorrespondence

TokenId = tuple[str, int]  # ("c", 1..3) for constraints, ("m", id) for marks


@value_type
class TorusDiagram:
    """Combinatorial torus data: cyclic token orders plus crossing kinds.

    `col_order` lists tokens by first-curve parameter starting at the first
    constraint; `row_order` likewise by second-curve parameter. Token k of a
    size-n order sits at normalized coordinate k/n. `col_params`/`row_params`
    retain the true parameters when the diagram came from geometry; purely
    combinatorial diagrams leave them None. A diagram without marks cannot
    know the mutual position of the curves, so it carries `containment`.
    The fields after `kinds` default to None, here and for `trusted`.
    """

    _fields = ("col_order", "row_order", "kinds", "containment", "col_params",
               "row_params")
    containment = col_params = row_params = None

    def __init__(self, col_order: tuple[TokenId, ...],
                 row_order: tuple[TokenId, ...],
                 kinds: tuple[tuple[int, CrossKind], ...],
                 containment: Containment | None = None,
                 col_params: tuple[Fraction, ...] | None = None,
                 row_params: tuple[Fraction, ...] | None = None) -> None:
        cols, rows = col_order, row_order
        if sorted(cols) != sorted(rows):
            raise InputRejection("column and row token sets differ")
        if len(set(cols)) != len(cols):
            raise InputRejection("duplicate tokens")
        if any(t[0] != "m" and t not in (("c", 1), ("c", 2), ("c", 3))
               for t in cols):
            raise InputRejection(
                "tokens must be constraints ('c', 1..3) or marks ('m', id)")
        for order in (cols, rows):
            if order[0] != ("c", 1):
                raise OrderViolation("orders must start at the first constraint")
            c_pos = {i: order.index(("c", i)) for i in (1, 2, 3)
                     if ("c", i) in order}
            if set(c_pos) != {1, 2, 3}:
                raise InputRejection("need exactly three constraints")
            if not c_pos[1] < c_pos[2] < c_pos[3]:
                raise OrderViolation(
                    "constraints must appear in the same cyclic order on both curves")
        kind_map = dict(kinds)
        mark_ids = [t[1] for t in cols if t[0] == "m"]
        if sorted(kind_map) != sorted(mark_ids):
            raise InputRejection("kinds must cover exactly the marks")
        col_pos = {k: i for i, k in enumerate(mark_ids)}
        _check_kinds([kind_map[k] for k in mark_ids],
                     [col_pos[t[1]] for t in rows if t[0] == "m"])
        if not mark_ids and containment is None:
            raise InputRejection("a diagram without marks needs a containment tag")
        for params, order in ((col_params, cols), (row_params, rows)):
            if params is None:
                continue
            if len(params) != len(order):
                raise InputRejection("parameter list does not match token count")
            offsets = [_offset(p, params[0]) for p in params]
            if any(e * b <= a * f
                   for (a, b), (e, f) in zip(offsets, offsets[1:])):
                raise OrderViolation("true parameters out of cyclic order")
        _set(self, "col_order", col_order)
        _set(self, "row_order", row_order)
        _set(self, "kinds", kinds)
        _set(self, "containment", containment)
        _set(self, "col_params", col_params)
        _set(self, "row_params", row_params)

    @property
    def size(self) -> int:
        return len(self.col_order)

    @cached_property
    def _ranks(self) -> "Ranks":
        """The diagram on integers, which every reading of it uses."""
        row_pos = {t: i for i, t in enumerate(self.row_order)}
        tokens = [(col, row_pos[t], t) for col, t in enumerate(self.col_order)]
        # the constructor has checked that constraints 1, 2, 3 come in order
        constraints = tuple([(c, r) for c, r, t in tokens if t[0] == "c"])
        marks = [(c, r, t[1]) for c, r, t in tokens if t[0] == "m"]
        # per constraint i the marks strictly up-left and down-right of it
        forced = {i: (frozenset([k for x, y, k in marks if x < c and y > r]),
                      frozenset([k for x, y, k in marks if x > c and y < r]))
                  for i, (c, r) in enumerate(constraints, 1)}
        p_ids = frozenset([k for k, kind in self.kinds if kind is CrossKind.P])
        return Ranks(self.size, constraints,
                     *(map(list, zip(*marks)) if marks else ([], [], [])),
                     p_ids, forced, self.containment)

    @cached_property
    def _axes(self) -> tuple[tuple, tuple]:
        """`_units` of each axis, columns then rows; build_diagram seeds it."""
        return _units(self.col_params), _units(self.row_params)


class Ranks(NamedTuple):
    """A torus diagram on integers, as the index reading and the solver
    read it: the (col, row) token ranks of constraints 1 to 3, the marks in
    column order, the entering marks' ids, per constraint i the (above,
    below) ids of the marks every path through it passes below and above,
    and the containment tag of a diagram without marks."""

    size: int
    constraints: tuple[tuple[int, int], ...]
    cols: list[int]
    rows: list[int]
    ids: list[int]
    p_ids: frozenset[int]
    forced: dict[int, tuple[frozenset[int], frozenset[int]]]
    containment: Containment | None = None

    def membership(self, i: int) -> tuple[bool, bool]:
        """Is constraint i's source point inside the second region, and its
        target point inside the first? Decided by the next crossing ahead on
        each curve: the next mark right of it and above it, cyclically."""
        if not self.ids:
            return (self.containment is Containment.FIRST_INSIDE_SECOND,
                    self.containment is Containment.SECOND_INSIDE_FIRST)
        col, row = self.constraints[i - 1]
        ids, rows = self.ids, self.rows
        right = ids[bisect.bisect_right(self.cols, col) % len(ids)]
        up = ids[rows.index(min([r for r in rows if r > row] or rows))]
        return right not in self.p_ids, up in self.p_ids

    def read(self, below, above, i: int) -> int:
        """The index from the marks below and above a path, with the cut at
        constraint i, by both formulas; they must agree."""
        base = sum(self.membership(i))
        p_below, p_above = len(below & self.p_ids), len(above & self.p_ids)
        eta_below = base - p_below + (len(below) - p_below)
        eta_above = base + p_above - (len(above) - p_above)
        if eta_below != eta_above:
            raise FormulaMismatch(
                f"below-form gives {eta_below}, above-form gives {eta_above}")
        return eta_below

    def dump(self, path: "StaircasePath | None" = None) -> str:
        """ASCII rendering, one character cell per token pair, top row first."""
        n = self.size
        grid = [["." for _ in range(n)] for _ in range(n)]
        for col, row, k in zip(self.cols, self.rows, self.ids):
            grid[row][col] = "P" if k in self.p_ids else "~"
        for i, (col, row) in enumerate(self.constraints, 1):
            grid[row][col] = str(i)
        if path is not None:
            for col in range(n):
                y = path.y_at(Fraction(2 * col + 1, 2 * n))
                row = min(int(y * n), n - 1)
                if grid[row][col] == ".":
                    grid[row][col] = "*"
        return "\n".join(["".join(row) for row in reversed(grid)])


def _units(params: Sequence[Fraction]) -> tuple[list, int]:
    """The table that carries token positions on one axis to parameters:
    (units, drop), the parameters mod 1, reduced only if one lies outside
    [0, 1), and the first rank whose unit lies below the first, else n."""
    units = (list(params) if all(0 <= p.numerator < p.denominator
                                 for p in params) else [p % 1 for p in params])
    return units, next((k for k, p in enumerate(units) if p < units[0]),
                       len(units))


def _offset(p: Fraction, base: Fraction) -> tuple[int, int]:
    """(p - base) % 1 as the unreduced integer pair ((a d - c b) % (b d),
    b d) for p = a/b and base = c/d."""
    b, d = p.denominator, base.denominator
    return (p.numerator * d - base.numerator * b) % (b * d), b * d


def build_diagram(first: PolyJordanCurve, second: PolyJordanCurve,
                  crossings: CrossingSet,
                  constraint_pairs: Sequence[tuple[Fraction, Fraction]],
                  ) -> TorusDiagram:
    """Torus diagram of a transverse pair with three prescribed point pairs.

    Each pair is (source parameter, target parameter). Constraint parameters
    must be distinct from each other and from every crossing parameter, and
    the three target parameters must follow the same cyclic order as the
    sources, or no orientation-preserving map through them exists. The pairs
    are listed in that cyclic order from the first, which becomes the cut.

    The `CrossingSet` constructor has checked the crossings: distinct ids,
    distinct parameters in [0, 1) on each curve, an even count, kinds
    alternating along both curves. With the checks below on the
    constraints, every `TorusDiagram` condition holds, so the diagram is
    built without repeating them. The crossings come sorted on both curves,
    so bisection on the keys floor(2^64 p), exact among equal keys, merges
    each constraint in and finds one on a crossing; rotated to the cut, a
    merged axis lists the constraints in cyclic order.
    """
    if len(constraint_pairs) != 3:
        raise InputRejection("exactly three prescribed pairs are required")
    by_kt = crossings.by_param_kt()
    axes = [([c.param_k for c in crossings],
             [("m", c.index) for c in crossings]),
            ([c.param_kt for c in by_kt], [("m", c.index) for c in by_kt])]
    pairs = [[p if 0 <= p.numerator < p.denominator else p % 1 for p in (s, t)]
             for s, t in constraint_pairs]
    for i, pair in enumerate(pairs, 1):
        for (params, tokens), value in zip(axes, pair):
            key = _key(value)
            k = bisect.bisect_left(params, key, key=_key)
            while k < len(params) and _key(params[k]) == key and \
                    params[k] < value:
                k += 1
            if k < len(params) and params[k] == value and tokens[k][0] == "m":
                raise ConstraintOnCurve(
                    "prescribed parameter coincides with a crossing")
            params.insert(k, value)
            tokens.insert(k, ("c", i))
    # in lowest terms, equal values have equal integer pairs
    if any(len({v.as_integer_ratio() for v in values}) != 3
           for values in zip(*pairs)):
        raise InputRejection("prescribed parameters must be distinct")

    # each parameter lies in [0, 1): those before the cut come last
    (col_params, col_order, col_drop), (row_params, row_order, row_drop) = [
        (tuple(p[cut:] + p[:cut]), tuple(t[cut:] + t[:cut]), len(t) - cut)
        for p, t in axes for cut in [t.index(("c", 1))]]
    in_order = [order.index(("c", 2)) < order.index(("c", 3))
                for order in (col_order, row_order)]
    if in_order[0] != in_order[1]:
        raise OrderViolation(
            "prescribed pairs are cyclically incompatible with orientation")
    if not in_order[0]:
        raise OrderViolation("prescribed pairs must be listed in cyclic order "
                             "from the first pair")

    return trusted(
        TorusDiagram,
        col_order=col_order,
        row_order=row_order,
        kinds=tuple([(c.index, c.kind) for c in crossings]),
        containment=(_containment(first, second)
                     if len(crossings) == 0 else None),
        col_params=col_params,
        row_params=row_params,
        _axes=((col_params, col_drop), (row_params, row_drop)))


def _key(p: Fraction) -> int:  # floor(2^64 p): keys apart, values apart
    return (p.numerator << 64) // p.denominator


# -- paths -------------------------------------------------------------------

@value_type
class StaircasePath:
    """Strictly increasing path from (0,0) to (1,1) in the cut unit square.

    Every reading on a diagram uses `ratios`, each vertex as integers
    (x_num, x_den, y_num, y_den), not necessarily reduced, which the checked
    constructor derives; a path built from ratios alone
    (`trusted(StaircasePath, ratios=...)`) builds its points when read.
    """

    _fields = ("points",)

    def __init__(self, points: tuple[tuple[Fraction, Fraction], ...]) -> None:
        pts = points
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
            raise InputRejection("path must run from (0,0) to (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not (x0 < x1 and y0 < y1):
                raise InputRejection("path must be strictly increasing")
        _set(self, "points", pts)
        _set(self, "ratios", tuple([(x.numerator, x.denominator, y.numerator,
                                     y.denominator) for x, y in pts]))

    @cached_property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The vertices as `Fraction` pairs, built from `ratios`."""
        return tuple([(Fraction(a, b), Fraction(c, d))
                      for a, b, c, d in self.ratios])

    def y_at(self, x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise InputRejection("query outside the unit square")
        k = max(bisect.bisect_left(self.points, x, key=lambda p: p[0]), 1)
        (x0, y0), (x1, y1) = self.points[k - 1], self.points[k]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def path_of_correspondence(diagram: TorusDiagram,
                           phi: PLCorrespondence) -> StaircasePath:
    """Graph of a correspondence in the cut square.

    The correspondence must send the first constraint's source parameter to
    its target parameter; otherwise the cut disconnects the graph.

    One merge walk from the cut: in the offsets u = s - s1 and v = t - t1,
    both mod 1, phi is an increasing map of [0, 1) that fixes 0. The path
    has a vertex at each breakpoint of phi, at each column token and at the
    preimage of each row token. Every offset is held as an unreduced
    integer pair (`_offset`): phi's knots are its breakpoints rotated to
    start at s1, then the tokens' parameters. They are compared by
    cross-multiplication and interpolated on integers; equal offsets from
    the three sources merge into one vertex, at integer ratios: a column
    token at x = k/n, a row-token preimage at y = j/n. The walk's offsets
    rise strictly and phi is increasing, so the path is built without a
    check.
    """
    if diagram.col_params is None:
        raise InputRejection("diagram carries no true parameters")
    (s_units, _), (t_units, _) = diagram._axes
    s1, t1 = s_units[0], t_units[0]
    if phi.evaluate(s1) != t1:
        raise InputRejection("correspondence misses the first prescribed pair")
    cols, rows = [[_offset(p, base) for p in params] + [(1, 1)]
                  for params, base in ((diagram.col_params, s1),
                                       (diagram.row_params, t1))]
    bps = phi.breakpoints
    cut = bisect.bisect_left(phi.s_vals, s1)
    knots = [(*_offset(s, s1), *_offset(t, t1))
             for s, t in bps[cut:] + bps[:cut]]
    (a, b, c, d), (a1, b1, c1, d1) = knots[-1], knots[0]
    knots = [(a - b, b, c - d, d), *knots, (a1 + b1, b1, c1 + d1, d1)]
    # u at each row token's v, on the piece of phi over it; then u = 1
    pre = []
    p = 0
    for e, f in rows[:-1]:
        while knots[p + 1][2] * f <= e * knots[p + 1][3]:
            p += 1
        pre.append(_lerp(knots[p], knots[p + 1], e, f, 2))
    pre.append((1, 1))
    n = diagram.size
    pts = []
    kh = ch = rh = 0  # knots, column tokens and row preimages passed
    while True:
        kn, kd = knots[kh + 1][:2]
        cn, cd = cols[ch]
        rn, rd = pre[rh]
        un, ud = kn, kd
        if cn * ud < un * cd:
            un, ud = cn, cd
        if rn * ud < un * rd:
            un, ud = rn, rd
        if un >= ud:
            break
        at_knot, at_col, at_row = (kn * ud == un * kd, cn * ud == un * cd,
                                   rn * ud == un * rd)
        kh += at_knot
        ch += at_col
        rh += at_row
        x = (ch - 1, n) if at_col else _rank_position(ch - 1, un, ud, cols, n)
        if at_row:
            y = (rh - 1, n)
        else:
            lo = knots[kh]
            vn, vd = lo[2:] if at_knot else _lerp(lo, knots[kh + 1], un, ud, 0)
            y = _rank_position(rh - 1, vn, vd, rows, n)
        pts.append((*x, *y))
    pts.append((1, 1, 1, 1))
    return trusted(StaircasePath, ratios=tuple(pts))


def _lerp(lo, hi, num: int, den: int, axis: int) -> tuple[int, int]:
    """The other coordinate of the point num / den on the segment from lo
    to hi, both (u_num, u_den, v_num, v_den); axis 0 reads num / den as u,
    axis 2 as v. An unreduced integer pair."""
    a0, b0, c0, d0 = lo[axis:] + lo[:axis]
    a1, b1, c1, d1 = hi[axis:] + hi[:axis]
    # c0/d0 + (num/den - a0/b0) * (c1/d1 - c0/d0) / (a1/b1 - a0/b0)
    span = a1 * b0 - a0 * b1
    return (c0 * d1 * den * span + (num * b0 - a0 * den) * b1
            * (c1 * d0 - c0 * d1), d0 * d1 * den * span)


def _rank_position(k: int, num: int, den: int, offsets,
                   size: int) -> tuple[int, int]:
    """(k + (w - o_k) / (o_(k+1) - o_k)) / size for w = num / den between
    the offsets o_k and o_(k+1), as an unreduced integer pair."""
    (a0, b0), (a1, b1) = offsets[k], offsets[k + 1]
    gap = a1 * b0 - a0 * b1
    return k * den * gap + (num * b0 - a0 * den) * b1, size * den * gap


def realize_path(diagram: TorusDiagram, path: StaircasePath) -> PLCorrespondence:
    """Correspondence whose graph is the given path.

    With true parameters attached this reverses `path_of_correspondence`; on
    an abstract diagram it returns the correspondence in token coordinates.

    A valid path rises strictly in both coordinates, and token positions map
    to parameters in cyclic order, so the pairs are a valid map once rotated
    to the least source parameter (`_params_at` finds the least on each
    axis); it is built without a check. It reads the path's integer ratios.
    """
    ratios = path.ratios[:-1]
    if len(ratios) < 2:
        raise InputRejection("need at least two breakpoints")
    if diagram.col_params is None:
        return trusted(PLCorrespondence, breakpoints=path.points[:-1], wrap=0)
    cols, rows = diagram._axes
    s_vals, lo = _params_at(cols, [(a, b) for a, b, _, _ in ratios])
    t_vals, wrap = _params_at(rows, [(c, d) for _, _, c, d in ratios])
    pairs = list(zip(s_vals, t_vals))
    return trusted(PLCorrespondence, breakpoints=tuple(pairs[lo:] + pairs[:lo]),
                   wrap=(wrap - lo) % len(ratios))


def _params_at(axis, positions: list[tuple[int, int]],
               ) -> tuple[list[Fraction], int]:
    """Parameters in [0, 1) at rising token positions p / q in [0, 1) from
    0, in one pass over an axis's table (`_units`): p / q on rank k
    (p * n = k * q) is token k's parameter, any other position one integer
    interpolation across the gap to token k + 1. Also the index of the least
    parameter: the first to wrap past 1, its rank at or past the drop or its
    interpolation overflowing, or 0 if none does."""
    params, drop = axis
    n = len(params)
    out = []
    before = 0  # positions whose parameter has not wrapped
    for p, q in positions:
        k, r = divmod(p * n, q)
        lo = params[k]
        if r == 0:
            out.append(lo)
            before += k < drop
            continue
        hi = params[(k + 1) % n]
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        # lo + ((hi - lo) % 1) * r / q, reduced mod 1, over b * d * q
        den = b * d * q
        num = a * d * q + (c * b - a * d) % (b * d) * r
        before += k < drop and num < den
        out.append(Fraction(num % den, den))
    return out, before % len(positions)


def index_from_torus(diagram: TorusDiagram, path: StaircasePath,
                     check_all_bases: bool = False) -> int:
    """Fixed-point index read off the diagram, checked two ways.

    The below-count and above-count formulas are evaluated independently and
    must agree.

    With `check_all_bases` the index is read again with the cut at
    constraints 2 and 3, which the path must visit. Cutting at ranks (c, r)
    shifts each mark to ((col - c) % n, (row - r) % n) and the path by the
    constraint point, wrapped by (1, 1). A mark changes side only when one
    of its ranks wraps and the other does not: the column alone takes it
    from above the path (up and left of the constraint) to below, the row
    alone from below to above. Which marks move depends on the diagram alone.
    """
    return _read_path(diagram._ranks, path.ratios, check_all_bases)[2]


def _read_path(ranks: Ranks, points, check_all_bases: bool):
    """The ids of the marks strictly below and above a path, its vertices
    given as integer ratios (x_num, x_den, y_num, y_den), and its index.

    One merge walk: the marks and constraints 2 and 3 come in column order,
    so one pointer runs along the vertices. A token at a vertex's x is
    compared with that vertex, any other with the segment over it by the
    sign of a cross product over the common denominator: integers only.
    """
    below, above, through = set(), set(), []
    n = ranks.size
    tokens = list(zip(ranks.cols, ranks.rows, ranks.ids))
    for col, row in ranks.constraints[1:]:
        bisect.insort(tokens, (col, row, None))
    k = 1
    for col, row, cid in tokens:
        a1, b1, c1, d1 = points[k]
        while a1 * n < col * b1:
            k += 1
            a1, b1, c1, d1 = points[k]
        if a1 * n == col * b1:
            side = row * d1 - c1 * n
        else:
            a0, b0, c0, d0 = points[k - 1]
            # (row/n - y0) (x1 - x0) - (y1 - y0) (col/n - x0), times
            # n b0 b1 d0 d1
            side = ((row * d0 - c0 * n) * d1 * (a1 * b0 - a0 * b1)
                    - (c1 * d0 - c0 * d1) * (col * b0 - a0 * n) * b1)
        if cid is None:
            through.append(side == 0)
        elif side == 0:
            raise PathHitsMark(f"path passes through mark {cid}")
        else:
            (below if side < 0 else above).add(cid)
    eta = ranks.read(below, above, 1)
    if check_all_bases:
        for i, passes in zip((2, 3), through):
            if not passes:
                raise BasePointOnGrid(
                    f"cannot move the cut to constraint {i}: path misses it")
            up_left, down_right = ranks.forced[i]
            again = ranks.read((below - down_right) | up_left,
                               (above - up_left) | down_right, i)
            if again != eta:
                raise FormulaMismatch(
                    f"cut at constraint {i} gives {again}, not {eta}")
    return below, above, eta
