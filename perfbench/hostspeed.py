"""Host-speed sampling: the timed metrics in reference seconds.

The benchmark shares a few vCPUs with other tenants of its host, and the
host's speed drifts with their load: on a 2-vCPU x86-64 VM the same
pure-Python loop took 42 ms and 79 ms a few seconds apart, and slow
stretches lasted minutes, longer than one invocation. A median over one
invocation cannot average that out.

So while a run is timed, ``Clock`` samples the host: a timer signal
every ``INTERVAL_S`` runs a fixed pure-Python probe (a few ms) between
two of the program's bytecodes and records how long it took. A lap of
the run is then reported as

    (measured seconds - seconds spent in the probe)
        * REFERENCE_S / mean probe seconds over the run

that is, in seconds of a host on which the probe takes ``REFERENCE_S``.
The samples cover the whole run, so a slow stretch in its middle is
seen. A program change, which the probe does not execute, moves the
figure in full; what the probe leaves behind in the caches is part of
every run alike.

The probe imports nothing from the program. It does what the simulator
spends its time on: dict updates with short string keys and heap
pushes and pops of tuples, with the collector paused so that it never
triggers a collection of the program's objects.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

#: Seconds between samples.
INTERVAL_S = 0.1
#: The unit of reference seconds: a round figure just under the probe's
#: quickest mean on the 2-vCPU VM above (6 ms, CPython 3.11).
REFERENCE_S = 0.005


def _probe() -> int:
    rng = random.Random(5)
    counts: dict[str, int] = {}
    heap: list[tuple[float, int]] = []
    acc = 0
    for i in range(2500):
        key = f"a{rng.randrange(5000)}"
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 200:
            acc += heapq.heappop(heap)[1]
    return acc


class Clock:
    """Laps of a block of code, in reference seconds.

    ``with Clock() as clock:`` starts sampling and the first lap;
    ``clock.lap()`` ends a lap and starts the next, and leaving the
    block ends the last. Laps are converted on leaving the block, with
    the mean probe time over all of it, and read from ``clock.laps``;
    ``clock.factor`` is reference seconds per measured second. With
    ``sampling=False`` nothing is probed and laps are measured seconds.
    """

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self.samples: list[float] = []
        self._marks: list[tuple[float, float]] = []
        self._probed = 0.0
        self.laps: list[float] = []
        self.factor = float("nan")

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        _probe()
        spent = time.perf_counter() - began
        if collecting:
            gc.enable()
        self.samples.append(spent)
        self._probed += spent

    def lap(self) -> None:
        self._marks.append((time.perf_counter(), self._probed))

    def __enter__(self) -> "Clock":
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.lap()
        return self

    def __exit__(self, *exc) -> None:
        self.lap()
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        if exc[0] is not None:
            return
        if not self.sampling:
            self.factor = 1.0
        else:
            if not self.samples:  # too short to sample: probe once now
                self._sample(signal.SIGALRM, None)
            self.factor = REFERENCE_S / statistics.fmean(self.samples)
        self.laps = [
            ((end - start) - (probed_end - probed_start)) * self.factor
            for (start, probed_start), (end, probed_end) in zip(self._marks, self._marks[1:])
        ]
