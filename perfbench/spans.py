"""Spans and counters recorded by the benchmark around its calls into fpindex,
and the reference probe that brings their times to nominal host speed.

A span is (name, start, end, parent span, op id). Spans are kept in memory
and written out when the run ends. Only the calls the benchmark itself makes
are visible; calls nested inside the package are not traced yet.
"""
from __future__ import annotations

import random
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

_clock = time.perf_counter

REF_NOMINAL_S = 0.001  # reported times assume the reference probe takes this
_REF = [Fraction(r.randrange(1, 10**12), r.randrange(1, 10**12))
        for r in [random.Random(0)] for _ in range(96)]


def reference_probe() -> float:
    """Seconds for a fixed stdlib Fraction workload of about a millisecond.

    It does not touch fpindex, so it measures only how fast the host runs
    Python at this moment. On a shared host that speed swings by up to 1.7x
    in phases of seconds, and op times swing with it, while the ratio of an
    op's time to this probe's stays within a few percent.
    """
    t0 = _clock()
    acc = Fraction(0)
    for _ in range(2):
        for a, b in zip(_REF[::2], _REF[1::2]):
            acc += a * b - b
    return _clock() - t0


def probes(k: int = 3) -> list[float]:
    return [reference_probe() for _ in range(k)]


def nominal(refs: list[float]) -> float:
    """Factor that brings a time taken while the probe read `refs` to a host
    on which the probe takes REF_NOMINAL_S."""
    return REF_NOMINAL_S / statistics.median(refs)


def timed_nominal(fn, *args, **kwargs) -> tuple[float, object]:
    """Seconds `fn` takes at nominal host speed, from three probes on each
    side of the call, and its result."""
    refs = probes()
    t0 = _clock()
    result = fn(*args, **kwargs)
    wall = _clock() - t0
    return wall * nominal(refs + probes()), result


class NullTracer:
    """Untraced runs: every call goes straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass

    def note_pair(self, first, second) -> None:
        pass

    def note_rationals(self, values) -> None:
        pass


class Tracer(NullTracer):
    """Records a span per call, counters, and the inputs the calls saw."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.op = "setup"
        self.pairs: dict[int, tuple] = {}
        self.max_bits = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, _clock(), 0.0,
                self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def note_pair(self, first, second) -> None:
        """Remember a curve pair for the segment-pair replay."""
        if id(first) not in self.pairs:
            self.pairs[id(first)] = (first, second)
            self.note_rationals(c for p in first.vertices + second.vertices
                                for c in (p.x, p.y))

    def note_rationals(self, values) -> None:
        for v in values:
            v = Fraction(v)
            self.max_bits = max(self.max_bits, v.numerator.bit_length(),
                                v.denominator.bit_length())

    def self_times(self, scale) -> dict[str, dict[str, float]]:
        """Self seconds and call counts by span name, split by op phase.

        Self time is a span's duration minus the durations of its children;
        children of one span run one after another, so their durations do
        not overlap. A span of op `op` has its self time multiplied by
        `scale(op)`, which brings it to nominal host speed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0})
        for i, (name, start, end, _, op) in enumerate(self.spans):
            phase = op if isinstance(op, str) else "op"
            entry = out[f"{phase}:{name}"]
            entry["self_s"] += (end - start - child[i]) * scale(op)
            entry["calls"] += 1
        return dict(out)

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
