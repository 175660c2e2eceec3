"""Spans and counters recorded around calls into the package's modules.

The traced run replaces public functions of `cubicmw` modules by wrappers
that record a span (name, start, end, parent) per call and, for a few calls,
counters read off the arguments and the result.  Spans stay in memory and
are written out once the work has ended.  The untraced run installs
nothing, so its timings carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def peak_mb() -> float:
    """High-water resident size of this process image, in MiB.

    Read from VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so
    a child would report its parent's size if that was larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def patch(self, owner, attr: str, name: str, on_result=None, memory: bool = False):
        """Replace owner.attr by a wrapper that records a span named `name`.

        on_result(tracer, args, kwargs, result) adds counters; with `memory`
        the high-water resident size at the end of the call, less the
        resident size at its start, is added as `<name>.peak_mb`.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = resident_mb() if memory else 0.0
            with self.span(name):
                result = fn(*args, **kwargs)
            if memory:
                self.add(name + ".peak_mb", peak_mb() - before)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, key: str):
        """Count calls of owner.attr without recording spans."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] = self.counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(spans, duration=None) -> tuple[dict[str, float], dict[str, float]]:
    """Total duration per span name, and self time per layer.

    A layer is the part of the span name before the first dot.  A span's
    self time is its duration less the durations of its direct children.
    `duration(start, end)` gives a span's duration (default: end - start).
    """
    if duration is None:
        duration = lambda start, end: end - start  # noqa: E731
    lengths = [duration(start, end) for _, start, end, _ in spans]
    totals: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for (name, start, end, parent), length in zip(spans, lengths):
        if parent >= 0:
            child_time[parent] += length
    for (name, _, _, _), length, inner in zip(spans, lengths, child_time):
        totals[name] = totals.get(name, 0.0) + length
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + (length - inner)
    return totals, layer_self
