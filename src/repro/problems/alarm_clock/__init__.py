"""Alarm clock (footnote 2: a request-parameters problem, [13])."""

from typing import Callable, List, Sequence

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...verify import check_alarm_wakeups
from .impls import (
    MONITOR_ALARM_DESCRIPTION,
    MonitorAlarmClock,
    OPEN_PATH_ALARM_DESCRIPTION,
    OpenPathAlarmClock,
    SEMAPHORE_ALARM_DESCRIPTION,
    SemaphoreAlarmClock,
    SERIALIZER_ALARM_DESCRIPTION,
    SerializerAlarmClock,
)

#: Delays the sleepers request, in spawn order — deliberately NOT sorted so
#: wake order must come from the parameter, not arrival.
DEFAULT_DELAYS = (5, 2, 9, 2, 7, 1, 4)


def run_sleepers(factory, delays: Sequence[int] = DEFAULT_DELAYS,
                 sched=None):
    """Spawn one sleeper per delay plus the ticker; returns (result, wakes).

    The ticker ticks once per unit of virtual time until every sleeper's
    deadline has passed.  Wake order is recorded for assertions.  ``sched``
    injects a pre-built (e.g. instrumented) scheduler.
    """
    if sched is None:
        sched = Scheduler()
    impl = factory(sched)
    wakes: List[int] = []
    horizon = max(delays) + 1

    def sleeper(n: int):
        def body():
            yield from impl.wakeme(n)
            wakes.append(n)
        return body

    def ticker():
        for __ in range(horizon):
            yield from sched.sleep(1)
            yield from impl.tick()

    for n in delays:
        sched.spawn(sleeper(n), name="S{}".format(n))
    sched.spawn(ticker, name="ticker")
    result = sched.run(on_deadlock="return")
    return result, wakes


def make_verifier(factory, name: str = "alarm") -> Callable[[], List[str]]:
    """Oracle battery: every sleeper wakes exactly at its deadline."""

    def verify() -> List[str]:
        violations: List[str] = []
        for label, delays in (
            ("default", DEFAULT_DELAYS),
            ("reverse", tuple(sorted(DEFAULT_DELAYS, reverse=True))),
            ("duplicates", (3, 3, 1, 5, 1)),
        ):
            try:
                result, wakes = run_sleepers(factory, delays)
            except ProcessFailed as failure:
                violations.append("{}: {}".format(label, failure))
                continue
            for msg in check_alarm_wakeups(result.trace, name):
                violations.append("{}: {}".format(label, msg))
            if result.deadlocked:
                violations.append("{}: deadlock".format(label))
            if wakes != sorted(wakes):
                violations.append(
                    "{}: wake order {} not by deadline".format(label, wakes)
                )
        return violations

    return verify


__all__ = [
    "DEFAULT_DELAYS",
    "MONITOR_ALARM_DESCRIPTION",
    "MonitorAlarmClock",
    "OPEN_PATH_ALARM_DESCRIPTION",
    "OpenPathAlarmClock",
    "SEMAPHORE_ALARM_DESCRIPTION",
    "SemaphoreAlarmClock",
    "SERIALIZER_ALARM_DESCRIPTION",
    "SerializerAlarmClock",
    "make_verifier",
    "run_sleepers",
]

from .ext_impls import (
    CCR_ALARM_DESCRIPTION,
    CSP_ALARM_DESCRIPTION,
    CcrAlarmClock,
    CspAlarmClock,
)

__all__ += [
    "CCR_ALARM_DESCRIPTION",
    "CSP_ALARM_DESCRIPTION",
    "CcrAlarmClock",
    "CspAlarmClock",
]
