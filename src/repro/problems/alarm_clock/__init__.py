"""Alarm clock (footnote 2: a request-parameters problem, [13])."""

from typing import Callable, List, Sequence

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_alarm_wakeups
from ..base import catalog_cells
from . import ext_impls, impls
from .ext_impls import CcrAlarmClock, CspAlarmClock
from .impls import (
    MonitorAlarmClock,
    OpenPathAlarmClock,
    SemaphoreAlarmClock,
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


def _profile_run(factory, sched: Scheduler) -> RunResult:
    result, __ = run_sleepers(factory, sched=sched)
    return result


#: This package's cells of the solution catalog (see :func:`catalog_cells`).
CATALOG = catalog_cells(
    (MonitorAlarmClock, impls.MONITOR_ALARM_DESCRIPTION),
    (SerializerAlarmClock, impls.SERIALIZER_ALARM_DESCRIPTION),
    (OpenPathAlarmClock, impls.OPEN_PATH_ALARM_DESCRIPTION),
    (SemaphoreAlarmClock, impls.SEMAPHORE_ALARM_DESCRIPTION),
    (CspAlarmClock, ext_impls.CSP_ALARM_DESCRIPTION),
    (CcrAlarmClock, ext_impls.CCR_ALARM_DESCRIPTION),
    verifier=make_verifier,
    workload=_profile_run,
)

__all__ = [
    "CATALOG",
    "CcrAlarmClock",
    "CspAlarmClock",
    "DEFAULT_DELAYS",
    "MonitorAlarmClock",
    "OpenPathAlarmClock",
    "SemaphoreAlarmClock",
    "SerializerAlarmClock",
    "make_verifier",
    "run_sleepers",
]
