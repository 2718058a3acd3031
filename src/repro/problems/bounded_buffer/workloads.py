"""Workloads and verifier for the bounded buffer.

The correctness story is carried by the resource itself (overflow/underflow/
overlap raise :class:`ResourceIntegrityError`) plus two trace/data checks:
operations never overlap, and consumers drain exactly the produced items in
FIFO order.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ...runtime.errors import ProcessFailed
from ...runtime.policies import RandomPolicy, SchedulingPolicy
from ...runtime.scheduler import Scheduler
from ...verify import check_mutual_exclusion

Factory = Callable[[Scheduler], object]


def run_producers_consumers(
    factory: Factory,
    producers: int = 2,
    consumers: int = 2,
    items_each: int = 5,
    policy: Optional[SchedulingPolicy] = None,
    sched: Optional[Scheduler] = None,
):
    """Spawn producers/consumers; returns (result, produced, consumed).
    ``sched`` injects a pre-built (e.g. instrumented) scheduler; ``policy``
    is ignored then."""
    if sched is None:
        sched = Scheduler(policy=policy)
    impl = factory(sched)
    produced: List[int] = []
    consumed: List[int] = []
    total = producers * items_each

    def producer(base: int):
        def body():
            for i in range(items_each):
                item = base * 1000 + i
                yield from impl.put(item)
                produced.append(item)
        return body

    def consumer(count: int):
        def body():
            for __ in range(count):
                item = yield from impl.get()
                consumed.append(item)
        return body

    share, remainder = divmod(total, consumers)
    for p in range(producers):
        sched.spawn(producer(p), name="prod{}".format(p))
    for c in range(consumers):
        count = share + (1 if c < remainder else 0)
        sched.spawn(consumer(count), name="cons{}".format(c))
    result = sched.run(on_deadlock="return")
    return result, produced, consumed


def make_verifier(
    factory: Factory,
    name: str = "buf",
) -> Callable[[], List[str]]:
    """Oracle battery: integrity + no overlap + conservation, across FIFO
    and randomized schedules."""

    def run_one(label: str, policy=None) -> List[str]:
        try:
            result, produced, consumed = run_producers_consumers(
                factory, policy=policy
            )
        except ProcessFailed as failure:
            return ["{}: {}".format(label, failure)]
        violations = [
            "{}: {}".format(label, msg)
            for msg in check_mutual_exclusion(
                result.trace, name, exclusive_ops=["put", "get"]
            )
        ]
        if result.deadlocked:
            violations.append(
                "{}: deadlock, blocked={}".format(label, result.blocked)
            )
        elif sorted(consumed) != sorted(produced):
            violations.append(
                "{}: consumed items differ from produced".format(label)
            )
        return violations

    def verify() -> List[str]:
        violations = run_one("fifo")
        for seed in (0, 1, 2, 3):
            violations.extend(
                run_one("random{}".format(seed), RandomPolicy(seed))
            )
        return violations

    return verify
