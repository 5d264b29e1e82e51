"""Calibration of measured times against the speed of the machine.

The shared host this benchmark was built on runs it in speed states up to
about 2x apart that switch within seconds and persist for minutes: a fixed
`verify` request read 58 to 125 ms in consecutive 3-second windows, while
its time over the time of the reference loop below, measured beside it,
stayed between 25.7 and 28.3.  So every timed request is scaled by the speed
measured around it:

    calibrated = wall * REFERENCE_MS / reference

where `reference` is the mean of the reference loop's times measured within
SPAN_S of the request, always including the measurements just before and
just after it; the mean over a second averages out the noise of single
measurements.  A calibrated time
is the time the request would take on a machine where the reference loop
takes REFERENCE_MS; on a 2-vCPU Xeon at 2.1 GHz the loop took about 0.55 ms
in the fast state and about 1 ms in the slow one.  The reference is
benchmark code that calls nothing in qobserver, so a change to qobserver
moves calibrated times as it moves wall times.
"""

from __future__ import annotations

import bisect
import json
import statistics
import subprocess
import sys
import time

import numpy as np

# Reference loop time that calibrated times are scaled to.
REFERENCE_MS = 1.0
# Reference measurements are at most this far apart while requests run
# (longer only while one request runs longer).
WINDOW_S = 0.1
# A request is scaled by the reference measurements within this many seconds.
SPAN_S = 0.5
# Repeats of the loop per reference measurement; their median is taken.
REPEATS = 3
# Wall time of the reference start that calibrated set-up times are scaled
# to, in seconds.
REFERENCE_START_S = 0.15

# A fixed 4x4 step scaled to spectral radius below 1.
_STEP = np.array(
    [[0.5, 0.25, 0.0, -0.125],
     [-0.25, 0.5, 0.125, 0.0],
     [0.0, -0.125, 0.5, 0.25],
     [0.125, 0.0, -0.25, 0.5]]
)


def _loop() -> int:
    """Small numpy products, Python calls and float formatting, the mix of
    work a qobserver request does."""
    row = np.ones(4)
    lines = []
    for _ in range(60):
        row = row @ _STEP
        row = row / np.max(np.abs(row))
        lines.append(",".join(repr(float(v)) for v in row))
    return len(json.dumps({"rows": lines}))


def reference_ms() -> float:
    """Median wall time of REPEATS runs of the reference loop, in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def reference_start_s() -> float:
    """Wall time of a fresh interpreter importing numpy, in seconds.

    Set-up times are calibrated by this start, measured right after each:
    an interpreter start is mostly process set-up and file reads, and it
    slowed by only 1.3 to 1.5 times where the reference loop slowed by 2.
    On the host above the start of qobserver.cli took 148 to 214 ms in
    5-second windows while its ratio to this start stayed within 1.02 to
    1.22.  numpy is most of qobserver's import, and a change to qobserver
    moves the calibrated time as it moves the wall time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - start


class Calibration:
    """Reference measurements along one phase of a run, at times in seconds
    from its start."""

    def __init__(self):
        for _ in range(20):  # warm-up: caches, numpy dispatch
            _loop()
        self.begin = time.perf_counter()
        self.times: list[float] = []
        self.samples: list[float] = []
        self.measure()

    def now(self) -> float:
        return time.perf_counter() - self.begin

    def due(self) -> bool:
        """Whether WINDOW_S has passed since the last measurement."""
        return self.now() - self.times[-1] >= WINDOW_S

    def measure(self) -> None:
        start = self.now()
        self.samples.append(reference_ms())
        self.times.append(0.5 * (start + self.now()))

    def reference_at(self, t: float) -> float:
        """Mean reference time within SPAN_S of time t, including the
        measurements just before and just after it."""
        split = bisect.bisect(self.times, t)
        lo = min(bisect.bisect_left(self.times, t - SPAN_S), split - 1)
        hi = max(bisect.bisect_right(self.times, t + SPAN_S), split + 1)
        return statistics.fmean(self.samples[max(lo, 0):hi])

    def factor(self, t: float) -> float:
        """Factor that calibrates a wall time measured at time t."""
        return REFERENCE_MS / self.reference_at(t)
