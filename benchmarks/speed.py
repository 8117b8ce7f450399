"""Host-speed calibration for the end-to-end time metrics.

The benchmark runs on shared hosts whose speed swings by up to 2x within a
minute, for the engine and for any other code alike.  A run therefore
interleaves a fixed calibration block with its work: once every
``BLOCK_EVERY_S`` of the timed loop and a few times around each set-up.  A
span of work is scaled by ``REFERENCE_S`` over the median duration of the
blocks nearest to it, which turns it into the time it would take on a
reference host, one on which a block takes ``REFERENCE_S``.  A change to the
engine moves the scaled figures in full; a change in the host's speed moves
the work and the blocks around it alike and cancels.

A block mixes interpreter arithmetic with an interpreted walk over a
50k-object list.  Its data, about 2 MB, stays in the core's own cache: a
block took as long right after a request, whose collections sweep the cache,
as right after another block, so the engine's memory use does not move the
scale.
A block allocates no object the collector tracks, so it never triggers or
shifts a collection of the engine's heap.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0025  # one block on the reference host: a quiet 2-core VM, Python 3.11
BLOCK_EVERY_S = 0.25
NEAREST = 3  # blocks on each side of a span that set its scale

_TABLE = list(range(4096))
_WALK = [i * 7 for i in range(50_000)]


def _block() -> int:
    table, acc = _TABLE, 0
    for i in range(15_000):
        acc = (acc + table[i & 4095] * 31) & 0xFFFFF
    for x in _WALK:
        acc ^= x
    return acc


class SpeedProbe:
    """Calibration blocks run so far, as (start, duration) in ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def block(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _block()
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)

    def due(self) -> None:
        """Run a block if ``BLOCK_EVERY_S`` has passed since the last one ended."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= BLOCK_EVERY_S:
            self.block()

    def scale(self, at: float) -> float:
        """Reference seconds per host second around the instant ``at``."""
        i = bisect.bisect(self.starts, at)
        nearest = self.durations[max(0, i - NEAREST) : i + NEAREST]
        return REFERENCE_S / statistics.median(nearest)

    def scaled(self, start: float, duration: float) -> float:
        """``duration`` seconds of work begun at ``start``, in reference seconds."""
        return duration * self.scale(start + duration / 2)

    def host_speed(self) -> float:
        """Median host speed of the run relative to the reference host."""
        return REFERENCE_S / statistics.median(self.durations)
