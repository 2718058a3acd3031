"""Host-speed calibration: a fixed pure-Python loop, timed while passes run.

The 2-vCPU shared virtual machine this benchmark was tuned on does not run
at one speed.  Every few hundred milliseconds it flips between a fast
state and one up to 1.8x slower, and the share of time spent slow drifts
over minutes.  The same fault-campaign pass had run medians from 0.65 s to
0.92 s within two minutes, so a raw wall time measures the neighbours as
much as the code.

This loop uses none of the program's code, so no change to the program
can speed it up.  It exercises the same interpreter paths as the program's
hot loops: generator switches, small objects, and dict, list and string
churn.  So the loop slows down when the program does.  A run samples it
about every 0.1 s while passes run, and divides its median pass time by
the mean sample.  Over 20- to 30-second windows this cut the spread of the
pass time from about 10% to 3% on the fault campaigns, and from about 30%
to 4-9% on the synthesis repair.
"""

from __future__ import annotations

import gc
import statistics
from contextlib import contextmanager
from time import perf_counter

from ledger import HOST_SAMPLE, span

#: Least seconds between two samples (one sample costs about 5 ms).
INTERVAL = 0.1

#: The loop's time, in seconds, on that host in its fast state.  Adjusted
#: times read as seconds on such a host.
REFERENCE_SECONDS = 0.005


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def _process(steps: int):
    total = 0
    for i in range(steps):
        total += yield i
    return total


def _work() -> int:
    # Generator switches, as a scheduler stepping its processes.
    ready = [_process(16) for __ in range(8)]
    for proc in ready:
        next(proc)
    switches = 0
    while switches < 2400:
        proc = ready.pop(0)
        try:
            proc.send(1)
        except StopIteration:
            proc = _process(16)
            next(proc)
        ready.append(proc)
        switches += 1
    # Small objects and dict churn.
    table = {}
    acc = 0
    for i in range(4800):
        point = _Point(i, i & 7)
        acc += point.total()
        table[(i & 255, point.b)] = acc
    # Dicts of strings and lists, looked up out of order.
    records = [{"id": i, "key": str(i), "seen": [i]} for i in range(3200)]
    index = {r["key"]: r for r in records}
    for i in range(3200):
        record = index[str((i * 7919) % 3200)]
        record["seen"].append(acc & 3)
        acc += record["id"] + len(record["seen"])
    return acc + switches


def sample() -> float:
    """Seconds one calibration loop takes now.  The collector is off
    during the loop, so its time does not depend on how many objects the
    program holds."""
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        gc.enable()


def adjust(seconds: float, samples) -> float:
    """``seconds`` rescaled to the reference host speed, by the mean of the
    calibration samples taken while it was measured.  The samples are
    bimodal (fast and slow state), and a long pass accrues time in
    proportion to the share spent slow, which the mean tracks and a median
    does not."""
    return seconds * REFERENCE_SECONDS / statistics.mean(samples)


class PartTimer:
    """Times the parts of one pass and samples the calibration loop at
    most every :data:`INTERVAL` seconds, at checkpoints: the start of each
    part, progress callbacks inside long parts, and the end of the pass,
    which always samples.  Sampling time is not counted in any part.  In a
    traced pass the samples are spans of their own."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.parts = {}
        self.samples = []
        self._excluded = 0.0
        self._last = None

    def _sample(self) -> None:
        start = perf_counter()
        with span(self.tracer, HOST_SAMPLE):
            self.samples.append(sample())
        self._last = perf_counter()
        self._excluded += self._last - start

    def checkpoint(self, *args) -> None:
        """Sample if :data:`INTERVAL` has passed since the last sample.
        Takes and ignores any arguments, so it can stand in for a progress
        callback."""
        if self._last is None or perf_counter() - self._last >= INTERVAL:
            self._sample()

    @contextmanager
    def part(self, name: str):
        self.checkpoint()
        self._excluded = 0.0
        start = perf_counter()
        try:
            yield
        finally:
            self.parts[name] = perf_counter() - start - self._excluded

    def close(self) -> None:
        self._sample()

    def seconds(self) -> float:
        """The pass's time: its parts, without the calibration loops."""
        return sum(self.parts.values())
