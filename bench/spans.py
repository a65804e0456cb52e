"""Outside-in tracing: spans and counters recorded by wrapping functions.

A `Recorder` replaces module attributes with wrappers.  Each wrapped call
records one span (name, start, end, parent); counters tally calls or
bytes.  Nothing inside the program changes: `restore` puts every original
attribute back.  Spans stay in memory until `take` hands them over.

Wrap a function under the name its caller looks up.  A module that did
`from .encoders import encode_point_cloud` holds its own reference, so the
wrapper goes on that module, not on `jm3d.encoders`.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Spans:
    """Column-wise span table; parent is an index into the same table, or -1."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1


class Recorder:
    """Installs wrappers, records spans and counters, and undoes its patches."""

    def __init__(self):
        self.spans = Spans()
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        i = self.spans.add(name, time.perf_counter(), math.nan, parent)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call of owner.attr."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(i)

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr: str, counter: str, amount=None) -> None:
        """Add amount(args) (default 1) to `counter` after each call of owner.attr."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            self.counts[counter] += 1 if amount is None else amount(args)
            return out

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[Spans, dict[str, float]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = (self.spans, dict(self.counts))
        self.spans = Spans()
        self.counts = defaultdict(float)
        return out


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(spans.parents):
        if p >= 0:
            children[p].append((spans.starts[i], spans.ends[i]))
    out = []
    for i in range(len(spans)):
        lo, hi = spans.starts[i], spans.ends[i]
        out.append((hi - lo) - _covered(children.get(i, ()), lo, hi))
    return out


def busy_by_name(spans: Spans) -> tuple[dict[str, float], dict[str, int]]:
    """(busy seconds, calls) per span name.

    Busy time sums the spans of a name that have no ancestor of the same
    name, so a function that calls itself is not counted twice.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, name in enumerate(spans.names):
        calls[name] += 1
        p = spans.parents[i]
        while p >= 0 and spans.names[p] != name:
            p = spans.parents[p]
        if p < 0:
            busy[name] += spans.ends[i] - spans.starts[i]
    return dict(busy), dict(calls)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]

