"""Host-speed calibration interleaved with the program's public calls.

On a small shared host the speed of a vCPU drifts by up to 1.8x within
seconds to minutes, as other tenants load the same cores.  Process CPU time
moves in step with wall time, so the loss is not steal time that CPU time
would exclude, and no median over the passes of one run removes it.

A :class:`Clock` therefore runs a fixed calibration kernel between the
public calls it times, for about 30% as long as the calls took.  The kernel
does the same kinds of work as the program -- a 4x4 Hermitian eigensolve,
small complex array arithmetic and a Python scalar loop -- and never
changes, so the rate at which it runs measures the host's speed at the
moments the program ran.  ``speed()`` is the kernel's rate over the
reference rate ``1 / REFERENCE_REP_S`` across a whole pass; multiplying the
pass's latencies by it gives the time the same calls take on the host at its
reference speed.  A speed per call, from the calibrations just around it,
was tried and spread more from run to run: one call is too short a window for
the fast part of the drift.  The raw latencies are kept alongside.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds one kernel repetition takes on the reference host: a round figure
# a little below the fastest seen on a 2-vCPU x86-64 VM with Python 3.11.7
# and numpy 2.4.6.  Only the scale of the normalised times depends on it.
REFERENCE_REP_S = 25e-6
# Calibration time as a share of the time spent in the program's calls.
SHARE = 0.3
# Calibrate once this much time has been spent in calls since the last
# calibration, so that short calls do not each start with cold caches.
CHUNK_S = 0.05

_H = np.array(
    [
        [2.0, 1.0 - 0.5j, 0.0, 0.5j],
        [1.0 + 0.5j, 3.0, 0.2, 0.0],
        [0.0, 0.2, 1.0, 0.1 + 0.1j],
        [-0.5j, 0.0, 0.1 - 0.1j, 4.0],
    ]
)
_B = np.exp(1j * np.arange(256.0).reshape(16, 16) / 7.0)


def kernel(reps: int) -> float:
    """``reps`` repetitions of the calibration work; returns a checksum."""
    acc = 0.0
    for i in range(reps):
        scale = 1.0 + i * 1e-12
        acc += float(np.linalg.eigvalsh(_H * scale)[0])
        acc += float((_B * scale @ _B).real[0, 0]) * 1e-6
        x = 0.0
        for k in range(24):
            x += math.cos(k * 0.25 + acc * 1e-9)
        acc += x * 1e-3
    return acc


class Clock:
    """Times public calls and measures the host's speed in between them."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.latencies: list[float] = []  # seconds of each call, as measured
        self.pending_s = 0.0
        self.reps = 0
        self.calibration_s = 0.0

    def call(self, fn, *args) -> tuple[float, object]:
        """One public call: its latency and its result, or the error it raised as text."""
        start = time.perf_counter()
        try:
            outcome = fn(*args)
        except Exception as exc:  # a raise is a gate failure, not the end of the pass
            outcome = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        self.add(latency)
        return latency, outcome

    def add(self, seconds: float) -> None:
        """Account one timed call; calibrate once enough call time is pending."""
        self.latencies.append(seconds)
        self.pending_s += seconds
        if self.pending_s >= CHUNK_S:
            self.calibrate()

    def calibrate(self) -> None:
        """Run the kernel for ``SHARE`` of the call time since the last calibration."""
        reps = max(1, round(self.pending_s * SHARE / REFERENCE_REP_S))
        start = time.perf_counter()
        kernel(reps)
        self.calibration_s += time.perf_counter() - start
        self.reps += reps
        self.pending_s = 0.0

    def speed(self) -> float:
        """Host speed over the calls since the last reset, relative to the
        reference host (1.0)."""
        if self.pending_s or not self.reps:
            self.calibrate()
        return self.reps * REFERENCE_REP_S / self.calibration_s
