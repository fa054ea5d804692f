"""Fixed pure-Python work used to measure the machine's current speed.

Other tenants of a shared machine slow its CPUs by up to a half, for
minutes at a time.  The loop below slows by the same factor as vancoh's
own work timed next to it, so a time divided by the loop's time measured
around it changes little with the machine's state.
"""

from __future__ import annotations

import random
from time import perf_counter

# Typical time of calibration_loop on the machine the benchmark was written
# on (Intel Xeon, Python 3.11.7); scaled times are given at this speed.
REFERENCE_S = 0.0015


def calibration_loop() -> int:
    """Products of small-integer matrices whose entries grow past one
    machine word, and dictionary updates: the kinds of operation vancoh's
    time is made of.  Touches no vancoh code."""
    rng = random.Random(5)
    a = [[rng.randint(-99, 99) for _ in range(12)] for _ in range(12)]
    b = a
    for _ in range(4):
        b = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in b]
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return b[0][0] + len(counts)


def calibration_s() -> float:
    """Wall time of one calibration loop."""
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


def scaled(t: float, before: float, after: float) -> float:
    """``t`` at the reference speed, given the calibration times measured
    just before and just after it."""
    return t / ((before + after) / 2) * REFERENCE_S
