"""One-slot buffer (footnote 2: the history problem, from [7])."""

from typing import Callable, List

from ...runtime.errors import ProcessFailed
from ...runtime.policies import RandomPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_alternation
from .. import eventcount_impls
from ..base import (ExploreWorkload, catalog_cells, consumed_both,
                    explore_check, run_two_producers)
from . import ext_impls, impls
from .ext_impls import CcrOneSlotBuffer, CspOneSlotBuffer
from .impls import (
    MonitorOneSlotBuffer,
    PathOneSlotBuffer,
    SemaphoreOneSlotBuffer,
    SerializerOneSlotBuffer,
)


def run_ping_pong(factory, rounds: int = 6, producers: int = 2,
                  consumers: int = 2, policy=None, sched=None):
    """Contending producers and consumers over one slot.  ``sched`` injects
    a pre-built (e.g. instrumented) scheduler; ``policy`` is ignored then."""
    if sched is None:
        sched = Scheduler(policy=policy)
    impl = factory(sched)
    consumed: List[object] = []
    per_producer = rounds // producers
    per_consumer = rounds // consumers

    def producer(base):
        def body():
            for i in range(per_producer):
                yield from impl.put(base * 100 + i)
        return body

    def consumer():
        def body():
            for __ in range(per_consumer):
                item = yield from impl.get()
                consumed.append(item)
        return body

    for p in range(producers):
        sched.spawn(producer(p), name="prod{}".format(p))
    for c in range(consumers):
        sched.spawn(consumer(), name="cons{}".format(c))
    result = sched.run(on_deadlock="return")
    return result, consumed


def trace_battery(run: RunResult) -> List[str]:
    """The one-slot buffer's trace properties: ``put`` and ``get`` strictly
    alternate."""
    return check_alternation(run.trace, "slot")


def make_verifier(factory) -> Callable[[], List[str]]:
    """The trace battery and deadlock freedom across schedules."""

    def run_one(label, policy=None) -> List[str]:
        try:
            result, consumed = run_ping_pong(factory, policy=policy)
        except ProcessFailed as failure:
            return ["{}: {}".format(label, failure)]
        violations = [
            "{}: {}".format(label, msg) for msg in trace_battery(result)
        ]
        if result.deadlocked:
            violations.append(
                "{}: deadlock, blocked={}".format(label, result.blocked)
            )
        return violations

    def verify() -> List[str]:
        violations = run_one("fifo")
        for seed in (0, 1, 2):
            violations.extend(
                run_one("random{}".format(seed), RandomPolicy(seed))
            )
        return violations

    return verify


def _profile_run(factory, sched: Scheduler) -> RunResult:
    result, __ = run_ping_pong(factory, rounds=12, producers=3, consumers=3,
                               sched=sched)
    return result


#: This package's cells of the solution catalog (see :func:`catalog_cells`).
CATALOG = catalog_cells(
    (SemaphoreOneSlotBuffer, impls.SEMAPHORE_ONE_SLOT_DESCRIPTION),
    (MonitorOneSlotBuffer, impls.MONITOR_ONE_SLOT_DESCRIPTION),
    (SerializerOneSlotBuffer, impls.SERIALIZER_ONE_SLOT_DESCRIPTION),
    (PathOneSlotBuffer, impls.PATH_ONE_SLOT_DESCRIPTION),
    (CspOneSlotBuffer, ext_impls.CSP_ONE_SLOT_DESCRIPTION),
    (CcrOneSlotBuffer, ext_impls.CCR_ONE_SLOT_DESCRIPTION),
    (eventcount_impls.EventCountOneSlotBuffer,
     eventcount_impls.EVENTCOUNT_ONE_SLOT_DESCRIPTION),
    verifier=make_verifier,
    workload=_profile_run,
)

#: This package's exhaustible explore workload (see :class:`ExploreWorkload`).
EXPLORE = (ExploreWorkload(
    "one_slot_buffer", "one_slot_buffer",
    lambda factory, sched: run_two_producers(factory, sched, "Cons"),
    explore_check(trace_battery, consumed_both("slot"))),)

__all__ = [
    "CATALOG",
    "CcrOneSlotBuffer",
    "CspOneSlotBuffer",
    "EXPLORE",
    "MonitorOneSlotBuffer",
    "PathOneSlotBuffer",
    "SemaphoreOneSlotBuffer",
    "SerializerOneSlotBuffer",
    "make_verifier",
    "run_ping_pong",
    "trace_battery",
]
