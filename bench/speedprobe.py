"""The host's speed, sampled while a workload process runs.

The benchmark's host is a shared virtual machine whose speed changes on its
own: a fixed pure-Python loop runs about 1.5 times slower for stretches of
a few seconds to over a minute, whatever this machine is doing.  Raw
timings of the same code therefore differ by up to 1.5 times between runs.

A `SpeedProbe` is a daemon thread of the workload process that wakes every
`INTERVAL_S`, times a fixed probe (interpreter work: integer arithmetic and
dictionary stores, about 1 ms) and records (end, duration).  The process is
pinned to the CPU it starts on, so the probe measures the CPU the work runs
on.  While the probe runs, the work waits for the interpreter lock or the
CPU; the probe's time is taken off the timings.

`at_reference_speed` turns a timing into the time it would have taken had
the host run at the probe's reference speed throughout: the net time is
scaled by the mean over the interval of REFERENCE_PROBE_S / probe duration,
each sample weighted by the stretch of time it stands for.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time

INTERVAL_S = 0.02
# the probe's duration on the reference host (2-vCPU Xeon virtual machine,
# Python 3.11) in its fast state; the corrected timings are in seconds at
# that speed
REFERENCE_PROBE_S = 0.0008


def _probe() -> int:
    table = {}
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return len(table)


def pin_to_current_cpu() -> None:
    """Keep this process, and the threads it starts later, on its current CPU."""
    try:
        cpu = ctypes.CDLL(None, use_errno=True).sched_getcpu()
    except (OSError, AttributeError):
        return
    if cpu >= 0 and cpu in os.sched_getaffinity(0):
        os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, duration) on CLOCK_MONOTONIC
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter  # CLOCK_MONOTONIC on Linux
        while not self._stop.wait(INTERVAL_S):
            t0 = clock()
            _probe()
            t1 = clock()
            self.samples.append((t1, t1 - t0))


def at_reference_speed(samples, start: float, end: float, amount: float) -> tuple[float, float]:
    """(amount at reference speed, mean speed factor) over [start, end].

    `amount` is a wall or CPU time of the interval; the probe time inside
    the interval is taken off before scaling.  Each sample stands for the
    stretch since the previous one.  With no sample inside the interval the
    nearest one is used.
    """
    inside = [(t, d) for t, d in samples if start < t <= end]
    if not inside:
        nearest = min(samples, key=lambda s: abs(s[0] - end))
        return amount * REFERENCE_PROBE_S / nearest[1], REFERENCE_PROBE_S / nearest[1]
    weighted = 0.0
    prev = start
    for t, d in inside:
        weighted += (t - prev) * REFERENCE_PROBE_S / d
        prev = t
    # the tail after the last sample counts at the last sample's speed
    weighted += (end - prev) * REFERENCE_PROBE_S / inside[-1][1]
    factor = weighted / (end - start)
    probe_time = sum(d for _, d in inside)
    return max(amount - probe_time, 0.0) * factor, factor
