"""Alarm clock (footnote 2: a request-parameters problem, [13])."""

from typing import Callable, List, Sequence

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_alarm_wakeups
from ..base import ExploreWorkload, catalog_cells, explore_check
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


def trace_battery(run: RunResult) -> List[str]:
    """The alarm clock's trace properties: every sleeper wakes exactly at
    its deadline."""
    return check_alarm_wakeups(run.trace, "alarm")


def make_verifier(factory) -> Callable[[], List[str]]:
    """The trace battery, deadlock freedom and deadline wake order."""

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
            for msg in trace_battery(result):
                violations.append("{}: {}".format(label, msg))
            if result.deadlocked:
                violations.append("{}: deadlock".format(label))
            if wakes != sorted(wakes):
                violations.append(
                    "{}: wake order {} not by deadline".format(label, wakes)
                )
        return violations

    return verify


def run_explore(factory, sched: Scheduler) -> RunResult:
    """Explore workload: sleepers for 2, 2 and 1 ticks plus the ticker.
    Inlined (rather than :func:`run_sleepers`) so the wake list is a
    fingerprint provider *before* the run."""
    impl = factory(sched)
    delays = (2, 2, 1)
    wakes: List[int] = []
    sched.add_fingerprint_provider(lambda: wakes)
    horizon = max(delays) + 1

    def sleeper(n):
        def body():
            yield from impl.wakeme(n)
            wakes.append(n)
        return body

    def ticker():
        for __ in range(horizon):
            yield from sched.sleep(1)
            yield from impl.tick()

    for index, n in enumerate(delays):
        sched.spawn(sleeper(n), name="S{}_{}".format(index, n))
    sched.spawn(ticker, name="ticker")
    result = sched.run(on_deadlock="return", on_error="record")
    result.results["wakes"] = list(wakes)
    return result


def _wake_order(run: RunResult) -> List[str]:
    wakes = run.results.get("wakes", [])
    if not run.deadlocked and wakes != sorted(wakes):
        return ["wake order {!r} not by deadline".format(wakes)]
    return []


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

#: This package's exhaustible explore workload (see :class:`ExploreWorkload`).
EXPLORE = (ExploreWorkload("alarm_clock", "alarm_clock", run_explore,
                           explore_check(trace_battery, _wake_order)),)

__all__ = [
    "CATALOG",
    "CcrAlarmClock",
    "CspAlarmClock",
    "DEFAULT_DELAYS",
    "EXPLORE",
    "MonitorAlarmClock",
    "OpenPathAlarmClock",
    "SemaphoreAlarmClock",
    "SerializerAlarmClock",
    "make_verifier",
    "run_sleepers",
    "trace_battery",
]
