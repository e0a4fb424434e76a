"""Host-speed calibration for the benchmark's time metrics.

Shared virtual machines change speed while the program does not: on a
2-vCPU host, 87 identical two-start multilevel rounds took 1.23-2.47 s
(coefficient of variation 0.20), in slow spells lasting tens of seconds.
A fixed pure-Python kernel timed right before and right after each
timed region follows those spells (correlation 0.85 over the same 87
rounds), and dividing the region's time by ``kernel time /
REFERENCE_S`` halved the variation (0.11).  A change to the program
moves the region's time and not the kernel's, so it still shows in full.

The kernel is frozen: editing it, ``REFERENCE_S`` or ``_SIZE`` changes
every time metric the benchmark reports.
"""

from __future__ import annotations

import random
import time
from array import array
from typing import List

REFERENCE_S = 0.03
"""Kernel time on an unloaded 2-vCPU x86-64 host under CPython 3.11."""

_SIZE = 20000
_SAMPLES = 3


class Calibrator:
    """Times the frozen kernel; see the module docstring."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._neighbours: List[List[int]] = [
            [rng.randrange(_SIZE) for _ in range(4)] for _ in range(_SIZE)
        ]

    def _kernel(self) -> int:
        # A gain-like sweep: list and array indexing, branches and a dict
        # tally, the operations the partitioning kernels are made of.
        neighbours = self._neighbours
        gain = array("q", [0]) * _SIZE
        side = [0] * _SIZE
        tally: dict = {}
        for _ in range(3):
            for v in range(_SIZE):
                g = 0
                for u in neighbours[v]:
                    g += 1 if side[u] == side[v] else -1
                gain[v] = g
                if g > 0:
                    side[v] ^= 1
                tally[g] = tally.get(g, 0) + 1
        return sum(gain)

    def factor(self) -> float:
        """How slow the host is now: mean kernel time / REFERENCE_S."""
        t0 = time.perf_counter()
        for _ in range(_SAMPLES):
            self._kernel()
        return (time.perf_counter() - t0) / _SAMPLES / REFERENCE_S
