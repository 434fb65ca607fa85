"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two within minutes, far more than the regressions it has to catch.  A
fixed pure-Python reference task (dict, tuple and frozenset churn, sorting,
JSON and SHA-256, the engine's own mix) is timed next to every measured
operation; dividing the operation's wall time by the reference's slowdown
against `NOMINAL_S` gives its wall time at nominal machine speed.  The
reference is part of the benchmark, so no change to the engine moves it.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

NOMINAL_S = 0.035  # the reference's typical time on a 2-CPU VM, Python 3.11
TRIES = 3


def _reference_task() -> int:
    acc = 0
    rng = random.Random(12345)
    table: dict[tuple[str, int], tuple[float, int]] = {}
    for i in range(20000):
        key = (f"k{i % 977}", i % 13)
        entry = table.get(key)
        value = rng.random()
        table[key] = (value, 1) if entry is None else ((entry[0] + value) / 2, entry[1] + 1)
        if len(frozenset((i % 7, i % 11, i % 5)) | {3}) > 3:
            acc += 1
    acc += len(json.dumps(sorted(table.items())[:200]))
    for i in range(2000):
        acc += hashlib.sha256(str(i).encode()).digest()[0]
    return acc


def slowdown() -> float:
    """The machine's current slowdown against nominal speed (median of a few)."""
    times = []
    for _ in range(TRIES):
        t0 = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / NOMINAL_S


class Calibrated:
    """Brackets each measured interval with slowdown readings, reusing the
    reading after one interval as the reading before the next."""

    def __init__(self) -> None:
        _reference_task()  # the first run pays for cold caches
        self.last = slowdown()
        self.readings = [self.last]

    def normalize(self, wall: float) -> float:
        """Wall time of the interval that just ended, at nominal speed."""
        before, self.last = self.last, slowdown()
        self.readings.append(self.last)
        return wall / ((before + self.last) / 2)
