"""Independent combinatorial enumeration of transverse curve-pair classes.

A transverse pair with 2m crossings, viewed from the first curve, is a circle
with 2m marked points; the second curve alternates between chords drawn inside
the disk and chords drawn outside, each family noncrossing, and the chords
together form a single closed cycle. Choosing which outside face is unbounded
fixes the labeling. This module enumerates every such configuration, labels
its faces by exact flood fill on the dual graph, filters the non-cutting ones,
and reduces each to a canonical word so distinct geometric realizations can be
compared against the full combinatorial catalog; `crossing_word` reads that
word off a geometric crossing set.

This code shares nothing with the package's geometric arrangement builder; it
exists to cross-check it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

Chord = tuple[int, int]


def noncrossing_matchings(points: tuple[int, ...]) -> list[frozenset[Chord]]:
    """All noncrossing perfect matchings of an even cyclic point set."""
    if not points:
        return [frozenset()]
    first, rest = points[0], points[1:]
    out: list[frozenset[Chord]] = []
    for k in range(0, len(rest), 2):
        partner = rest[k]
        inside = rest[:k]
        outside = rest[k + 1:]
        for a, b in itertools.product(noncrossing_matchings(inside),
                                      noncrossing_matchings(outside)):
            out.append(a | b | {(min(first, partner), max(first, partner))})
    return out


def _is_single_cycle(m_in: frozenset[Chord], m_out: frozenset[Chord],
                     n: int) -> bool:
    nxt_in = {a: b for a, b in m_in} | {b: a for a, b in m_in}
    nxt_out = {a: b for a, b in m_out} | {b: a for a, b in m_out}
    node, use_in, steps = 0, True, 0
    while True:
        node = nxt_in[node] if use_in else nxt_out[node]
        use_in = not use_in
        steps += 1
        if node == 0 and use_in:
            break
    return steps == n


@dataclass(frozen=True)
class _Half:
    edge: int
    tail: int
    head: int
    rev: bool


def _faces_of(n: int, edges: list[tuple[str, int, int]]):
    """Left-face cycles of the standard rotation system.

    Counterclockwise order at each marked point: circle-forward, inside chord,
    circle-backward, outside chord.
    """
    halves: list[_Half] = []
    twin: dict[int, int] = {}
    for eid, (_, a, b) in enumerate(edges):
        h1 = len(halves)
        halves.append(_Half(eid, a, b, False))
        halves.append(_Half(eid, b, a, True))
        twin[h1] = h1 + 1
        twin[h1 + 1] = h1

    def out_half(eid: int, node: int) -> int:
        base = 2 * eid
        return base if halves[base].tail == node else base + 1

    rotation: dict[int, list[int]] = {}
    pos: dict[int, int] = {}
    for v in range(n):
        fwd = next(i for i, e in enumerate(edges)
                   if e[0] == "circle" and e[1] == v)
        bwd = next(i for i, e in enumerate(edges)
                   if e[0] == "circle" and e[2] == v)
        cin = next(i for i, e in enumerate(edges)
                   if e[0] == "in" and v in (e[1], e[2]))
        cout = next(i for i, e in enumerate(edges)
                    if e[0] == "out" and v in (e[1], e[2]))
        order = [out_half(fwd, v), out_half(cin, v),
                 out_half(bwd, v), out_half(cout, v)]
        rotation[v] = order
        for p, h in enumerate(order):
            pos[h] = p

    face_of: dict[int, int] = {}
    faces: list[list[int]] = []
    for h0 in range(len(halves)):
        if h0 in face_of:
            continue
        cycle = []
        h = h0
        while True:
            cycle.append(h)
            face_of[h] = len(faces)
            order = rotation[halves[h].head]
            h = order[(pos[twin[h]] - 1) % 4]
            if h == h0:
                break
        faces.append(cycle)
    return halves, twin, face_of, faces


def _flood(edges, halves, twin, face_of, nfaces, seeds, flip_types):
    labels: dict[int, bool] = dict(seeds)
    queue = list(labels)
    while queue:
        f = queue.pop()
        for h in range(len(halves)):
            if face_of[h] != f:
                continue
            g = face_of[twin[h]]
            val = labels[f] ^ (edges[halves[h].edge][0] in flip_types)
            if g in labels:
                assert labels[g] == val, "inconsistent face parity"
            else:
                labels[g] = val
                queue.append(g)
    assert len(labels) == nfaces
    return labels


def enumerate_noncut_words(m: int) -> set[tuple[int, ...]]:
    """Canonical words of every non-cutting class with 2m crossings."""
    n = 2 * m
    matchings = noncrossing_matchings(tuple(range(n)))
    words: set[tuple[int, ...]] = set()
    for m_in, m_out in itertools.product(matchings, matchings):
        if not _is_single_cycle(m_in, m_out, n):
            continue
        edges = [("circle", i, (i + 1) % n) for i in range(n)]
        edges += [("in", a, b) for a, b in sorted(m_in)]
        edges += [("out", a, b) for a, b in sorted(m_out)]
        halves, twin, face_of, faces = _faces_of(n, edges)
        assert len(faces) == n + 2, "rotation system is not planar"

        in_disk_seed = {}
        for h, half in enumerate(halves):
            if edges[half.edge][0] == "in":
                in_disk_seed[face_of[h]] = True
                break
        in_k = _flood(edges, halves, twin, face_of, len(faces),
                      in_disk_seed, {"circle"})
        for f_inf in [f for f in range(len(faces)) if not in_k[f]]:
            in_kt = _flood(edges, halves, twin, face_of, len(faces),
                           {f_inf: False}, {"in", "out"})
            only_k = sum(1 for f in range(len(faces))
                         if in_k[f] and not in_kt[f])
            only_kt = sum(1 for f in range(len(faces))
                          if in_kt[f] and not in_k[f])
            if only_k != 1 or only_kt != 1:
                continue
            words.add(_word(n, edges, halves, twin, face_of, in_kt))
    return words


def _word(n, edges, halves, twin, face_of, in_kt) -> tuple[int, ...]:
    def out_halves(v):
        return [h for h, half in enumerate(halves) if half.tail == v]

    def circle_half(v):  # forward half-edge of the arc leaving v
        eid = next(i for i, e in enumerate(edges)
                   if e[0] == "circle" and e[1] == v)
        return 2 * eid

    arc_in_kt = [in_kt[face_of[circle_half(v)]] for v in range(n)]
    kinds = []
    for v in range(n):
        after, before = arc_in_kt[v], arc_in_kt[(v - 1) % n]
        assert after != before, "crossing fails to switch sides"
        kinds.append("P" if after else "Pt")

    # Second-curve positive direction: interior on the left.
    nxt: dict[int, int] = {}
    for v in range(n):
        forward = [h for h in out_halves(v)
                   if edges[halves[h].edge][0] in ("in", "out")
                   and in_kt[face_of[h]]]
        assert len(forward) == 1
        nxt[v] = halves[forward[0]].head
    seq = [0]
    while len(seq) < n:
        seq.append(nxt[seq[-1]])
    assert nxt[seq[-1]] == 0 and len(set(seq)) == n

    best = None
    for s in range(n):
        if kinds[s] != "P":
            continue
        start = seq.index(s)
        tau = tuple((seq[(start + t) % n] - s) % n for t in range(n))
        if best is None or tau < best:
            best = tau
    assert best is not None, "no entering crossing found"
    return best


def crossing_word(crossings) -> tuple[int, ...]:
    """Canonical combinatorial class word of a `jordan.CrossingSet`, read
    from its crossing orders and kinds.

    Crossings are numbered along the first curve; the word records the
    sequence of those numbers along the second curve, started at an entering
    crossing and shifted so it opens with 0, minimized over all entering
    starts. Two transverse pairs get equal words exactly when their crossing
    patterns match combinatorially.
    """
    n = len(crossings)
    if n == 0:
        raise ValueError("word undefined without crossings")
    kt_seq = [c.index for c in crossings.by_param_kt()]
    best: tuple[int, ...] | None = None
    for c in crossings:
        if c.kind.value != "P":
            continue
        start = kt_seq.index(c.index)
        tau = tuple((kt_seq[(start + t) % n] - c.index) % n for t in range(n))
        if best is None or tau < best:
            best = tau
    assert best is not None
    return best
