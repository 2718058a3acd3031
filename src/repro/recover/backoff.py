"""Deterministic backoff policies and the bounded-retry combinator.

Recovery pacing must be as replayable as everything else in the runtime, so
backoff here is a pure function of the attempt number — no wall clocks, no
jitter.  A :class:`BackoffPolicy` maps ``attempt`` (0-based count of failures
so far) to a delay in *virtual-time ticks*; the supervisor uses it to space
restarts, and :func:`retry_with_backoff` uses it to space retries of timed
blocking calls (``WaitTimeout`` → sleep → try again, within a bounded
budget).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Union

from ..runtime.errors import WaitTimeout


class BackoffPolicy:
    """Maps a 0-based attempt number to a delay in virtual-time ticks."""

    def delay(self, attempt: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class NoBackoff(BackoffPolicy):
    """Retry / restart immediately (delay 0)."""

    def delay(self, attempt: int) -> int:
        return 0

    def describe(self) -> str:
        return "none"


class FixedBackoff(BackoffPolicy):
    """A constant delay between attempts."""

    def __init__(self, ticks: int = 1) -> None:
        if ticks < 0:
            raise ValueError("backoff ticks must be >= 0")
        self.ticks = ticks

    def delay(self, attempt: int) -> int:
        return self.ticks

    def describe(self) -> str:
        return "fixed({})".format(self.ticks)


class ExponentialBackoff(BackoffPolicy):
    """``base * factor**attempt``, capped — deterministic exponential
    backoff (no jitter: replayability beats thundering-herd avoidance in a
    single-scheduler world)."""

    def __init__(self, base: int = 1, factor: int = 2,
                 cap: int = 64) -> None:
        if base < 1:
            raise ValueError("base must be >= 1")
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.base = base
        self.factor = factor
        self.cap = cap

    def delay(self, attempt: int) -> int:
        return min(self.base * self.factor ** attempt, self.cap)

    def describe(self) -> str:
        return "exponential(base={}, factor={}, cap={})".format(
            self.base, self.factor, self.cap
        )


#: A backoff argument: a policy object, a legacy ``attempt -> ticks``
#: callable, or ``None`` (no delay between attempts).
BackoffLike = Optional[Union[BackoffPolicy, Callable[[int], int]]]


def _delay_of(backoff: BackoffLike, attempt: int) -> int:
    if backoff is None:
        return 0
    if isinstance(backoff, BackoffPolicy):
        return backoff.delay(attempt)
    return backoff(attempt)


def retry_with_backoff(
    attempt: Callable[[int], Generator],
    attempts: int = 3,
    backoff: BackoffLike = None,
    sched=None,
) -> Generator:
    """Bounded retry around a timed blocking call, with deterministic
    backoff between tries.

    ``attempt(i)`` must return a generator performing the timed operation
    for try number ``i`` (0-based); a :class:`WaitTimeout` triggers the next
    try.  ``backoff`` (a :class:`BackoffPolicy` or a plain ``i -> ticks``
    callable) gives the virtual sleep separating tries — ``sched`` is
    required for a nonzero delay.  Exhausting ``attempts`` re-raises the
    last timeout.

    Example::

        value = yield from retry_with_backoff(
            lambda i: chan.receive(timeout=5),
            attempts=3, backoff=ExponentialBackoff(), sched=sched)
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    for i in range(attempts):
        try:
            result = yield from attempt(i)
            return result
        except WaitTimeout:
            # No local keeps the timeout: its traceback holds this frame.
            if i + 1 == attempts:
                raise
        ticks = _delay_of(backoff, i)
        if ticks > 0 and sched is not None:
            yield from sched.sleep(ticks)
