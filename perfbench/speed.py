"""Machine-speed gauge: a fixed message-passing kernel that does not use the program.

Other tenants of a shared machine slow it down, in stretches from a
fraction of a second to minutes, and a slow stretch that outlasts a run
moves every minimum the run can take.  :class:`Gauge` times a small
synchronous flooding round -- tuples sent along a fixed random graph of
degree 8, collected in per-node inboxes, folded by a maximum, the same
kind of interpreter and memory work as the simulator -- between the units
of a run and keeps its fastest round.  ``run.py`` scales the run's times by
``REFERENCE_ROUND_S`` over that fastest round, so they read as seconds at
one fixed machine speed whatever stretch the run fell in.  The kernel never
calls the program, so a change of the program cannot move the gauge.
"""

from __future__ import annotations

import random
import time
from typing import List

#: Nodes of the kernel's graph.
NODES = 2048
#: Kernel rounds timed per sample.
ROUNDS = 32
#: Fastest kernel round on the reference machine (2-vCPU Intel Xeon virtual
#: machine, Python 3.11.7, calm stretch).  Times are reported as seconds of
#: that machine.
REFERENCE_ROUND_S = 0.0019


def _graph() -> List[List[int]]:
    rng = random.Random(7)
    return [[rng.randrange(NODES) for _ in range(8)] for _ in range(NODES)]


class Gauge:
    """Fastest kernel round seen so far, and the scale it gives."""

    def __init__(self) -> None:
        self.neighbours = _graph()
        self.fastest = float("inf")

    def _round(self, number: int, values: List[int]) -> None:
        inbox = {}
        for node, targets in enumerate(self.neighbours):
            message = ("beacon", node, values[node], number)
            for target in targets:
                box = inbox.get(target)
                if box is None:
                    inbox[target] = [message]
                else:
                    box.append(message)
        for node, box in inbox.items():
            best = values[node]
            for _, _, value, _ in box:
                if value > best:
                    best = value
            values[node] = best

    def sample(self) -> None:
        values = list(range(NODES))
        for number in range(ROUNDS):
            started = time.perf_counter()
            self._round(number, values)
            self.fastest = min(self.fastest, time.perf_counter() - started)

    def scale(self) -> float:
        """Factor that turns this machine's seconds into reference seconds."""
        return REFERENCE_ROUND_S / self.fastest
