"""The machine's pace: a fixed pure-Python loop timed between ops.

On a shared host, neighbours on the same physical cores slow this process by
up to 1.7x, in bursts of milliseconds and in phases that outlast a whole run,
and no best-of-N timing removes a phase that covers the run.  The loop below
does the kind of work the program does (float math, lgamma, small dicts,
JSON) and runs between ops.  An op's time over the median time of the loop
within WINDOW_S of it is its cost in loop units, from which the neighbours'
load and the clock speed cancel; the benchmark reports that cost times
PACE_MS, the loop's time on an idle core of a 2.1 GHz Xeon, so its times read
as milliseconds at that pace.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

PACE_MS = 0.55
WINDOW_S = 1.0
# After an op, the loop runs until it has taken this share of the op's time
# (at least once), so a long op has as many pace samples around it as the
# short ops that fill the same stretch of time.
SHARE = 0.05


def loop() -> float:
    acc = 0.0
    d = {}
    for i in range(1500):
        x = 0.5 + i * 0.01
        acc += math.log(x) - 1.0 / x + math.lgamma(x)
        d[i & 63] = (x, acc)
    json.dumps(list(d.values()))
    return acc


class Pace:
    """Pace samples of one run: when the loop started and how long it took."""

    def __init__(self):
        self.start: list[float] = []
        self.took: list[float] = []

    def after(self, op_s: float) -> None:
        """Time the loop after an op that took op_s seconds."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            loop()
            dt = time.perf_counter() - t0
            self.start.append(t0)
            self.took.append(dt)
            spent += dt
            if spent >= SHARE * op_s:
                return

    def factor(self) -> float:
        """The run's median loop time over PACE_MS: how slow the machine ran."""
        return float(np.median(self.took)) * 1e3 / PACE_MS

    def at_pace(self, samples: list[tuple[float, float]]) -> list[float]:
        """Each (start, seconds) sample in seconds at PACE_MS per loop."""
        start, took = np.array(self.start), np.array(self.took)
        out = []
        for t0, dt in samples:
            lo = np.searchsorted(start, t0 - WINDOW_S)
            hi = np.searchsorted(start, t0 + dt + WINDOW_S)
            local = np.median(took[lo:hi]) if hi > lo else np.median(took)
            out.append(dt / local * PACE_MS * 1e-3)
        return out
