"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its layer name, its parent
span, and its start and end on the perf_counter clock.  Spans are kept
in parallel arrays so that a run with a few hundred thousand calls stays
small, and are written out only when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of a tree sum to the duration of its root.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional


class SpanRecorder:
    """Records spans of wrapped calls and per-layer work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Append a finished span and return its id."""
        sid = self._open(name, parent)
        self.start[sid] = start
        self.end[sid] = end
        return sid

    def _open(self, name: str, parent: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        return sid

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Optional[tuple[str, Callable]] = None,
    ) -> Callable:
        """fn wrapped so that each call records a span named `name`.

        counter is (counter name, f(args, kwargs, result) -> int); its
        value is added once per call, after the span has closed.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, stack[-1] if stack else -1)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.start[sid] = start
                self.end[sid] = end
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(sid)
        out = []
        for sid in range(len(self.start)):
            lo, hi = self.start[sid], self.end[sid]
            out.append(hi - lo - _covered(
                [(self.start[c], self.end[c]) for c in children.get(sid, ())], lo, hi
            ))
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per layer name: (calls, summed self time)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for sid, value in enumerate(self.self_times()):
            name = self.names[self.name_of[sid]]
            calls[name] += 1
            self_s[name] += value
        return {name: (calls[name], self_s[name]) for name in calls}

    def write_csv(self, path) -> None:
        """One line per span, times in seconds from the first span's start."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name_of[sid]]},"
                    f"{self.start[sid] - origin!r},{self.end[sid] - origin!r}\n"
                )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
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
