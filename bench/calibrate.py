"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed for the same instructions
drifts over minutes, at times by a factor of two, and swings by about a
quarter from one second to the next; a round's CPU time follows its wall
time through such changes, so neither clock can tell a slow program from a
slow machine.  An untraced round therefore runs ``Sampler``: a SIGALRM
handler that, every ``INTERVAL_S`` seconds, times a block of fixed work that
does not touch cwg, in between the bytecodes of whatever op is running.  The
blocks thus sample the machine at the moments the ops run on it, and the
handler's time is taken out of the ops' times.  ``run.py`` scales the run's
times by ``REF_BLOCK_S`` over the run's mean block time, so they are seconds
at the reference machine's speed.  A change to cwg leaves the blocks alone,
so it moves the scaled times in full.

A block mixes the two kinds of work the workloads do: pure-Python
backtracking over small weighted graphs held in tuples and dicts (as in the
embedding, homomorphism and canonical-form searches), and numpy base-3
decoding with row sums (as in the exhaustive scan).  Its arrays stay small,
so it does not raise a round's peak memory.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Typical mean block time of a run on the 2-core reference machine (Python
# 3.11.7, numpy 2.4.6).  Only the scale of the reported seconds depends on
# it; any fixed value would do.
REF_BLOCK_S = 0.0396

# The sampler starts a block every INTERVAL_S seconds of wall time, so the
# blocks take about a tenth of a round.
INTERVAL_S = 0.35

PAIRS = 24
DECODE_CODES = 40_000
DECODE_REPEATS = 2
# Results of one block, checked so that a block that did other work fails.
EXPECTED = (8_103, 54_090)


def _weights(n: int, state: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A {0,1,2}-weighted graph on n vertices from a fixed linear congruential stream."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            rows[i][j] = rows[j][i] = (state >> 16) % 3
    return tuple(tuple(r) for r in rows), state


def _count_embeddings(pattern, host) -> int:
    """Injective maps of pattern into host with every host weight at least the pattern's."""
    k, n = len(pattern), len(host)
    degree = [sum(row) for row in pattern]
    order = sorted(range(k), key=lambda u: (-degree[u], u))
    count = 0

    def extend(depth: int, image: dict[int, int], used: int) -> None:
        nonlocal count
        if depth == k:
            count += 1
            return
        u = order[depth]
        want = pattern[u]
        for v in range(n):
            if used >> v & 1:
                continue
            row = host[v]
            if all(row[image[p]] >= want[p] for p in image):
                image[u] = v
                extend(depth + 1, image, used | 1 << v)
                del image[u]

    extend(0, {}, 0)
    return count


def _search() -> int:
    state, total = 7, 0
    for _ in range(PAIRS):
        host, state = _weights(9, state)
        pattern, state = _weights(4, state)
        total += _count_embeddings(pattern, host)
    return total


def _decode() -> int:
    total = 0
    for start in range(DECODE_REPEATS):
        rest = np.arange(start * DECODE_CODES, (start + 1) * DECODE_CODES, dtype=np.int64)
        digits = np.empty((rest.size, 10), dtype=np.int8)
        for place in range(10):
            digits[:, place] = rest % 3
            rest //= 3
        total += int((digits.sum(axis=1) >= 9).sum())
    return total


def block() -> float:
    """Run one calibration block and return its wall time in seconds."""
    start = time.perf_counter()
    got = (_search(), _decode())
    elapsed = time.perf_counter() - start
    if got != EXPECTED:
        raise RuntimeError("calibration block computed %r, expected %r" % (got, EXPECTED))
    return elapsed


class Sampler:
    """Runs a block every INTERVAL_S seconds from a SIGALRM handler, so the
    blocks interleave with whatever the main thread is doing.  ``spent`` and
    ``spent_cpu`` are the wall and CPU time taken by the handler, to be
    subtracted from the times of the code it interrupted."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            self.times.append(block())
        finally:
            self.spent += time.perf_counter() - start
            self.spent_cpu += time.process_time() - start_cpu
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


if __name__ == "__main__":
    import statistics

    times = [block() for _ in range(40)]
    print("block median %.4f s, min %.4f s, max %.4f s" % (statistics.median(times), min(times), max(times)))
