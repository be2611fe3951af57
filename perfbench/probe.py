"""The specfun layer probe: cost and accuracy per special function.

Not a workload: it calls log_gamma, digamma and polygamma(n, .) for
n = 1..8 directly, untraced, on one fixed grid x = geomspace(1e-3, 1e3, 300),
and checks every value against mpmath.
"""

from __future__ import annotations

import statistics
import time
from functools import partial

import numpy as np

from oracle import specfun_error

GRID = [float(x) for x in np.geomspace(1e-3, 1e3, 300)]
REPEATS = 5
ORDERS = range(1, 9)


def probe_functions(specfun) -> dict[str, tuple[str, int, object]]:
    """Probe row name -> (oracle name, order, scalar function)."""
    rows = {"log_gamma": ("log_gamma", 0, specfun.log_gamma),
            "digamma": ("digamma", 0, specfun.digamma)}
    for n in ORDERS:
        rows[f"polygamma_n{n}"] = ("polygamma", n, partial(specfun.polygamma, n))
    return rows


def run_probe(specfun) -> dict[str, float]:
    out: dict[str, float] = {}
    for row, (oracle_name, order, fn) in probe_functions(specfun).items():
        values = [fn(x) for x in GRID]
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            for x in GRID:
                fn(x)
            times.append(time.perf_counter_ns() - t0)
        out[f"specfun.{row}.ns_per_point"] = statistics.median(times) / len(GRID)
        out[f"specfun.{row}.max_rel_err"] = max(
            specfun_error(oracle_name, order, x, v) for x, v in zip(GRID, values))
    return out
