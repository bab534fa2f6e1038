"""A fixed calibration kernel that rescales host time to a reference speed.

On a shared machine the same code can run 1.5x slower for minutes at a
time while neighbouring load comes and goes. The benchmark runs this
kernel before and after every timed section and rescales the section's
wall time by NOMINAL_MS / (mean of the two kernel times). Machine-speed
drift then cancels out while a change in rachsim's own cost does not.

The kernel never changes: it is frozen benchmark code, not rachsim code.
It mixes the kinds of work a replication does (tiny numpy batches,
scalar generator draws, tuple-keyed dicts, sorting, and allocating many
small frozen dataclass objects) so that its time moves with the machine
the way a replication's does. Without the allocation part it tracks
replication time far less closely.

Set-up time is rescaled the same way, but by a reference child process
instead of the kernel: set-up is interpreter start and imports, work of
another kind than the kernel's, and the kernel tracks it poorly. The
reference child starts the interpreter and imports numpy, which no
rachsim change can move.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Kernel time that defines the reference speed. On the shared 2-core Xeon VM
# where the benchmark was set up the kernel took about 11 to 24 ms,
# depending on neighbouring load; 12 ms was its time when that load was low.
NOMINAL_MS = 12.0


# The reference child's arguments to the interpreter, and its wall time that
# defines the reference speed: 0.15 s on the same VM when load was low.
REFERENCE_CHILD = ["-c", "import numpy; print('ready', flush=True)"]
REFERENCE_NOMINAL_S = 0.15


@dataclass(frozen=True)
class _Record:
    device: int
    urllc: bool
    ticks: int
    done: int | None


def kernel(opportunities: int = 400) -> int:
    """Deterministic engine-shaped work; returns a checksum."""
    rng = np.random.Generator(np.random.PCG64(2019))
    tx = np.zeros(64, dtype=np.int64)
    total = 0
    for t in range(opportunities):
        devs = np.array([(t * 7 + j) % 64 for j in range(1 + t % 3)], dtype=np.int64)
        retry = tx[devs] > 2
        pre = rng.integers(0, 54, devs.size)
        tx[devs] += 1
        cells: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for j in range(devs.size):
            cells[(int(devs[j]) % 3, int(pre[j]))].append((j, int(tx[devs[j]])))
        for (gnb, p), members in sorted(cells.items()):
            if len(members) == 1 and rng.random() < 1.0 - math.exp(-members[0][1]):
                total += p
        total += int(retry.sum())
    records = [
        _Record(i, i % 3 == 0, i * 2, None if i % 5 else i)
        for i in range(opportunities * 10)
    ]
    return total + sum(r.device for r in records if r.urllc)


def kernel_ms() -> float:
    """Kernel wall time with the collector off, so that what the caller
    keeps alive (rachsim's results) cannot bring a collection into it."""
    gc.disable()
    try:
        t = time.perf_counter()
        kernel()
        return (time.perf_counter() - t) * 1e3
    finally:
        gc.enable()


class Clock:
    """Rescales timed sections by the kernel times that bracket them."""

    def __init__(self) -> None:
        self.kernel_ms: list[float] = [kernel_ms()]

    def scale(self) -> float:
        """Factor for the section that ended since the previous call."""
        self.kernel_ms.append(kernel_ms())
        return NOMINAL_MS / ((self.kernel_ms[-2] + self.kernel_ms[-1]) / 2)
