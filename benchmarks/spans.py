"""In-memory span and counter bookkeeping for one thread.

A span is (name, start, end, parent); spans nest through a stack, so a
span opened while another is open becomes its child. Everything stays in
memory until the run ends, when ``summary`` reduces it to totals.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# candidate tail percentiles, highest first, each with 1 / (the share of
# samples beyond it)
TAIL_PERCENTILES = ((99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10),
                    (75.0, 4))
MIN_BEYOND_TAIL = 10


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recorded as span ``name``; ``on_call(tracer, args,
        result)`` may add counts after each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for n, s, e in
                         zip(self.names, self.starts, self.ends) if n == name])

    def summary(self) -> dict:
        """name -> {"n", "total_s", "self_s"} over all closed spans."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[idx], self.ends[idx]))
        out = defaultdict(lambda: {"n": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, name in enumerate(self.names):
            s, e = self.starts[idx], self.ends[idx]
            row = out[name]
            row["n"] += 1
            row["total_s"] += e - s
            row["self_s"] += self_time(s, e, children.get(idx, ()))
        return dict(out)


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part the child intervals cover.

    Children are clipped to the parent and their union is taken, so
    overlapping or adjacent children are not subtracted twice.
    """
    covered = 0.0
    cur_s = cur_e = None
    for cs, ce in sorted((max(cs, start), min(ce, end))
                         for cs, ce in children):
        if ce <= cs:
            continue
        if cur_e is None or cs > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = cs, ce
        else:
            cur_e = max(cur_e, ce)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it;
    the median when there are too few samples for any other."""
    for p, inverse_share in TAIL_PERCENTILES:
        if n >= MIN_BEYOND_TAIL * inverse_share:
            return p
    return 50.0


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def memo_hit_ratio(misses: int, rows: int) -> float:
    """Share of pooled rows served from the memo: 1 - misses / rows."""
    return 1.0 - ratio(misses, rows) if rows else 0.0
