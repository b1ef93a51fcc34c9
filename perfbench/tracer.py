"""Spans around calls into a package's public functions, recorded from outside.

The tracer replaces each named function with a wrapper, both in the module
that defines it and in every module of the package that imported it by
name, so calls between modules are seen too.  Spans (name, start, end,
parent, run id) stay in memory until the caller writes them out.  A name
that the package no longer defines is recorded as absent, not an error.

Self time is a span's duration minus the part of it that its child spans
cover.  While tracemalloc is tracing, the spans of the names in ``alloc``
also record the tracemalloc peak above the level at which they started;
the caller starts and stops tracemalloc.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    run_id: str = ""
    alloc_base: int = 0
    alloc_peak: int = 0
    tracks_alloc: bool = False

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
        }


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.run_id = ""
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.counter_peaks: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self, package, names, counters: Optional[dict] = None, alloc=()) -> None:
        """Wrap ``package.<module>.<function>`` for each "module.function" name.

        ``counters[name]`` maps the call's arguments to {counter: amount};
        amounts add up under "name.counter", and the largest single amount
        is kept in counter_peaks.
        """
        counters = counters or {}
        prefix = package.__name__ + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(prefix))
        ]
        for name in names:
            mod_name, _, func_name = name.rpartition(".")
            module = sys.modules.get(prefix + mod_name)
            fn = getattr(module, func_name, None) if module is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, counters.get(name), name in alloc)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn, counter, tracks_alloc: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(*args, **kwargs).items():
                    full = f"{name}.{key}"
                    self.counters[full] = self.counters.get(full, 0) + amount
                    self.counter_peaks[full] = max(self.counter_peaks.get(full, amount), amount)
            index = self._open(name, tracks_alloc)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _fold_peak(self) -> int:
        """Carry the tracemalloc peak into every open span that tracks it."""
        current, peak = tracemalloc.get_traced_memory()
        for i in self._stack:
            span = self.spans[i]
            if span.tracks_alloc:
                span.alloc_peak = max(span.alloc_peak, peak)
        return current

    def _open(self, name: str, tracks_alloc: bool) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent=parent, run_id=self.run_id)
        if tracks_alloc and tracemalloc.is_tracing():
            current = self._fold_peak()
            tracemalloc.reset_peak()
            span.tracks_alloc = True
            span.alloc_base = span.alloc_peak = current
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = self.clock()
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if span.tracks_alloc and tracemalloc.is_tracing():
            self._fold_peak()
        self._stack.pop()

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> list[float]:
        children: dict[int, list] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [
            (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(self.spans)
        ]

    def summary(self) -> dict:
        """Per name: calls, self seconds and, where tracked, peak allocation in MB."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            if span.tracks_alloc:
                mb = (span.alloc_peak - span.alloc_base) / 2**20
                row["peak_alloc_mb"] = max(row.get("peak_alloc_mb", 0.0), mb)
        return out

    def top_level_seconds(self, run_prefix: str = "") -> float:
        """Time covered by spans without a parent, for runs starting with run_prefix."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent is None and s.run_id.startswith(run_prefix)
        )

    def report(self, run_prefix: str = "") -> dict:
        """Everything a run keeps: per-name summary, counters, absent names, spans."""
        return {
            "layers": self.summary(),
            "counters": dict(self.counters),
            "counter_peaks": dict(self.counter_peaks),
            "absent": list(self.absent),
            "top_level_s": self.top_level_seconds(run_prefix),
            "spans": [s.as_record() for s in self.spans],
        }
