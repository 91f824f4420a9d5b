"""The host's speed during a run, from a fixed reference task.

The benchmark shares a few cores of a host with other tenants.  For
stretches of seconds to minutes the host runs Python 1.3-1.7x slower,
which no amount of repetition inside one run averages away.  So the
runner times a fixed pure-Python task, of the same kind of work as
minishift's (slicing, hashing and sorting many short strings, building
sets and dicts), once per ``EVERY_S`` seconds between operations, outside
the timed region.  Every end-to-end time is then reported at the
reference speed: measured time x ``REFERENCE_S`` / the median reference
time of its pass (of its set-up).  A change to minishift moves the op
times and not the reference, so it moves the reported times as it would
on a quiet host; the measured times and the reference samples are in the
result file.

Nothing here imports minishift, and the task never changes with the seed.
"""

from __future__ import annotations

import random
import statistics
import time

# A fixed unit: about the median time of reference_task() on the 2-core
# x86-64 VM (CPython 3.11) the benchmark was written on.
REFERENCE_S = 0.012
EVERY_S = 0.25
BURST = 4


def _word() -> str:
    rng = random.Random(1703)
    return "".join(rng.choice("abc") for _ in range(1200))


WORD = _word()


def reference_task() -> int:
    """Factors of a fixed 1200-letter word up to length 12, by length in shortlex order.

    Strings are not tracked by the garbage collector and the task makes
    only a few dozen containers, so its time does not depend on how large
    a heap the workload holds: no collection starts inside it.
    """
    factors: set[str] = set()
    for n in range(1, 13):
        for i in range(len(WORD) - n + 1):
            factors.add(WORD[i : i + n])
    right: dict[str, str] = {}
    for w in factors:
        right[w[:-1]] = right.get(w[:-1], "") + w[-1]
    by_length: dict[int, list[str]] = {}
    for w in factors:
        by_length.setdefault(len(w), []).append(w)
    return sum(len(sorted(ws)) for ws in by_length.values()) + len(right)


class Speedometer:
    """Reference-task samples, one per ``EVERY_S`` seconds of run time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            reference_task()
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    def maybe_sample(self) -> None:
        """One sample per ``EVERY_S`` since the last, up to ``BURST``.

        Samples are owed at a steady rate, so a pass of a few long ops is
        sampled as densely as one of many short ops.
        """
        owed = int((time.perf_counter() - self.last) / EVERY_S)
        if owed:
            self.sample(min(owed, BURST))

    def scale(self, since: int = 0) -> float:
        """Factor from measured time to time at the reference speed, from samples[since:]."""
        return REFERENCE_S / statistics.median(self.samples[since:])
