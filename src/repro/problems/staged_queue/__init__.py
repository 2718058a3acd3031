"""Class priority + FCFS within class (the §5.2 T1+T2 combination)."""

from typing import Callable, List, Sequence, Tuple

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_class_priority_two_stage, check_single_occupancy
from ..base import ExploreWorkload, catalog_cells, explore_check
from . import ext_impls, impls
from .ext_impls import CcrStagedQueue, CspStagedQueue
from .impls import (
    MonitorSingleQueue,
    MonitorStagedQueue,
    OpenPathStagedQueue,
    SerializerStagedQueue,
)

#: (class, arrival delay).  Everyone arrives at once (virtual time does not
#: advance while processes are runnable), so a queue builds behind the first
#: B and both oracles have bite: a correct solution must serve the queued
#: A's before the queued B's, FCFS within each class.
DEFAULT_PLAN: Tuple[Tuple[str, int], ...] = (
    ("B", 0), ("B", 0), ("A", 0), ("B", 0),
    ("A", 0), ("A", 0), ("B", 0), ("A", 0),
)


def _spawn_classes(factory, sched: Scheduler,
                   plan: Sequence[Tuple[str, int]]) -> None:
    """Spawn one process per (class, delay) request on ``sched``."""
    impl = factory(sched)

    def requester(kind: str, delay: int):
        def body():
            if delay:
                yield from sched.sleep(delay)
            if kind == "A":
                yield from impl.use_a(work=3)
            else:
                yield from impl.use_b(work=3)
        return body

    for index, (kind, delay) in enumerate(plan):
        sched.spawn(requester(kind, delay), name="{}{}".format(kind, index))


def run_classes(factory, sched=None):
    """Run one process per :data:`DEFAULT_PLAN` request.  ``sched``
    injects a pre-built (e.g. instrumented) scheduler."""
    if sched is None:
        sched = Scheduler()
    _spawn_classes(factory, sched, DEFAULT_PLAN)
    return sched.run(on_deadlock="return")


def run_explore(factory, sched: Scheduler) -> RunResult:
    """Explore workload: one A between two B's.  A process that raises is
    recorded, for the checker to report, rather than raised."""
    _spawn_classes(factory, sched, (("B", 0), ("A", 0), ("B", 0)))
    return sched.run(on_deadlock="return", on_error="record")


def trace_battery(run: RunResult) -> List[str]:
    """The staged queue's trace properties: class A before class B, FCFS
    within each class, and single occupancy."""
    return (check_class_priority_two_stage(run.trace, "res", "acquire_a",
                                           "acquire_b")
            + check_single_occupancy(run.trace, "res",
                                     ["acquire_a", "acquire_b"]))


def make_verifier(factory) -> Callable[[], List[str]]:
    """The trace battery and deadlock freedom on :data:`DEFAULT_PLAN`."""

    def verify() -> List[str]:
        try:
            result = run_classes(factory)
        except ProcessFailed as failure:
            return [str(failure)]
        violations = trace_battery(result)
        if result.deadlocked:
            violations.append("deadlock")
        return violations

    return verify


#: This package's cells of the solution catalog (see :func:`catalog_cells`).
#: ``MonitorSingleQueue`` is experiment E8's naive contrast, not a cell.
CATALOG = catalog_cells(
    (MonitorStagedQueue, impls.MONITOR_STAGED_DESCRIPTION),
    (SerializerStagedQueue, impls.SERIALIZER_STAGED_DESCRIPTION),
    (OpenPathStagedQueue, impls.OPEN_PATH_STAGED_DESCRIPTION),
    (CspStagedQueue, ext_impls.CSP_STAGED_DESCRIPTION),
    (CcrStagedQueue, ext_impls.CCR_STAGED_DESCRIPTION),
    verifier=make_verifier,
    workload=lambda factory, sched: run_classes(factory, sched=sched),
)

#: This package's exhaustible explore workload (see :class:`ExploreWorkload`).
EXPLORE = (ExploreWorkload("staged_queue", "staged_queue", run_explore,
                           explore_check(trace_battery)),)

__all__ = [
    "CATALOG",
    "CcrStagedQueue",
    "CspStagedQueue",
    "DEFAULT_PLAN",
    "EXPLORE",
    "MonitorSingleQueue",
    "MonitorStagedQueue",
    "OpenPathStagedQueue",
    "SerializerStagedQueue",
    "make_verifier",
    "run_classes",
    "trace_battery",
]
