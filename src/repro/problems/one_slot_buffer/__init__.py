"""One-slot buffer (footnote 2: the history problem, from [7])."""

from typing import Callable, List

from ...runtime.errors import ProcessFailed
from ...runtime.policies import RandomPolicy
from ...runtime.scheduler import Scheduler
from ...verify import check_alternation
from .impls import (
    MONITOR_ONE_SLOT_DESCRIPTION,
    MonitorOneSlotBuffer,
    PATH_ONE_SLOT_DESCRIPTION,
    PathOneSlotBuffer,
    SEMAPHORE_ONE_SLOT_DESCRIPTION,
    SemaphoreOneSlotBuffer,
    SERIALIZER_ONE_SLOT_DESCRIPTION,
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


__all__ = [
    "MONITOR_ONE_SLOT_DESCRIPTION",
    "MonitorOneSlotBuffer",
    "PATH_ONE_SLOT_DESCRIPTION",
    "PathOneSlotBuffer",
    "SEMAPHORE_ONE_SLOT_DESCRIPTION",
    "SemaphoreOneSlotBuffer",
    "SERIALIZER_ONE_SLOT_DESCRIPTION",
    "SerializerOneSlotBuffer",
    "make_verifier",
    "run_ping_pong",
]

from .ext_impls import (
    CCR_ONE_SLOT_DESCRIPTION,
    CSP_ONE_SLOT_DESCRIPTION,
    CcrOneSlotBuffer,
    CspOneSlotBuffer,
)

__all__ += [
    "CCR_ONE_SLOT_DESCRIPTION",
    "CSP_ONE_SLOT_DESCRIPTION",
    "CcrOneSlotBuffer",
    "CspOneSlotBuffer",
]
