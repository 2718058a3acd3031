"""One-slot buffer (footnote 2: the history problem, from [7])."""

from typing import Callable, List

from ...runtime.errors import ProcessFailed
from ...runtime.policies import RandomPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_alternation
from .. import eventcount_impls
from ..base import catalog_cells
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


def make_verifier(
    factory,
    name: str = "slot",
) -> Callable[[], List[str]]:
    """Oracle battery: strict put/get alternation across schedules."""

    def run_one(label, policy=None) -> List[str]:
        try:
            result, consumed = run_ping_pong(factory, policy=policy)
        except ProcessFailed as failure:
            return ["{}: {}".format(label, failure)]
        violations = [
            "{}: {}".format(label, msg)
            for msg in check_alternation(result.trace, name)
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

__all__ = [
    "CATALOG",
    "CcrOneSlotBuffer",
    "CspOneSlotBuffer",
    "MonitorOneSlotBuffer",
    "PathOneSlotBuffer",
    "SemaphoreOneSlotBuffer",
    "SerializerOneSlotBuffer",
    "make_verifier",
    "run_ping_pong",
]
