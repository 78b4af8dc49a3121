"""Wall time rescaled to the host's full speed.

The benchmark runs on a few cores of a shared host whose speed changes
under it: for seconds to minutes at a time, the same pure-Python loop
runs 1.5 to 1.9 times slower than it does otherwise, and a pass's wall
time moves with it. A median over a run cannot remove a slow spell
that covers the whole run.

:class:`ScaledClock` therefore measures the host's speed while it times
a block of work. A ``SIGALRM`` timer interrupts the work every
``INTERVAL_S`` seconds to run :func:`probe`, a fixed pure-Python loop
that uses no code of the repository, so a change to ``repro`` cannot
move it. Each stretch of work between two probes is rescaled by
``NOMINAL_PROBE_S`` over the mean of the two probe times around it,
each the median of three neighbouring probes so that one probe slowed
by an interrupt does not count. The probes' own time is left out of
both the wall and the scaled time.

A scaled second is therefore a second on a host that runs the probe in
``NOMINAL_PROBE_S``, the probe's typical time on a 2-vCPU Intel Xeon VM
at 2.1 GHz when the host is not slowed; there the scaled time of a pass
is within a few percent of its wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between two probes.
INTERVAL_S = 0.2
#: Probe time of the host the scaled times are expressed on.
NOMINAL_PROBE_S = 0.0068


def probe() -> int:
    """A fixed amount of dict and integer work, about 7 ms."""
    table: dict[int, int] = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i * i % 7
    return total


class ScaledClock:
    """Time the work inside a ``with`` block, wall and rescaled.

    It must be entered in the main thread, which handles the signals.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        #: ``(start, duration)`` of every probe, in order.
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._probing = False

    def _sample(self, *_signal) -> None:
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))
        self._probing = False

    def start(self) -> "ScaledClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> "ScaledClock":
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return self

    def __enter__(self) -> "ScaledClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _stretches(self):
        """``(work seconds, probe seconds)`` between consecutive probes."""
        took = [duration for _, duration in self.samples]
        last_window = max(len(took) - 3, 0)
        smoothed = [statistics.median(took[min(max(i - 1, 0), last_window):][:3])
                    for i in range(len(took))]
        for i in range(len(self.samples) - 1):
            (start, duration), (end, _) = self.samples[i], self.samples[i + 1]
            yield end - start - duration, (smoothed[i] + smoothed[i + 1]) / 2

    @property
    def wall_s(self) -> float:
        """Wall time of the work, probes left out."""
        return sum(work for work, _ in self._stretches())

    @property
    def scaled_s(self) -> float:
        """Wall time of the work at the speed ``NOMINAL_PROBE_S`` stands for."""
        return sum(work * NOMINAL_PROBE_S / took for work, took in self._stretches())
