"""Class priority + FCFS within class (the §5.2 T1+T2 combination)."""

from typing import Callable, List, Sequence, Tuple

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...verify import check_class_priority_two_stage, check_single_occupancy
from ..base import catalog_cells
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


def run_classes(factory, plan: Sequence[Tuple[str, int]] = DEFAULT_PLAN,
                sched=None):
    """Spawn one process per (class, delay) request.  ``sched`` injects a
    pre-built (e.g. instrumented) scheduler."""
    if sched is None:
        sched = Scheduler()
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
    return sched.run(on_deadlock="return")


def make_verifier(factory, name: str = "res") -> Callable[[], List[str]]:
    """Oracle battery: single occupancy + class priority + FCFS per class."""

    def verify() -> List[str]:
        violations: List[str] = []
        try:
            result = run_classes(factory)
        except ProcessFailed as failure:
            return [str(failure)]
        violations.extend(
            check_single_occupancy(result.trace, name,
                                   ["acquire_a", "acquire_b"])
        )
        violations.extend(
            check_class_priority_two_stage(
                result.trace, name, "acquire_a", "acquire_b"
            )
        )
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

__all__ = [
    "CATALOG",
    "CcrStagedQueue",
    "CspStagedQueue",
    "DEFAULT_PLAN",
    "MonitorSingleQueue",
    "MonitorStagedQueue",
    "OpenPathStagedQueue",
    "SerializerStagedQueue",
    "make_verifier",
    "run_classes",
]
