"""First-come-first-served resource (footnote 2: the request-time problem)."""

from typing import Callable, List

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_fcfs, check_single_occupancy
from .. import eventcount_impls
from ..base import ExploreWorkload, catalog_cells, explore_check
from . import ext_impls, impls
from .ext_impls import CcrFcfsResource, CspFcfsResource
from .impls import (
    MonitorFcfsResource,
    PathFcfsResource,
    SemaphoreFcfsResource,
    SerializerFcfsResource,
)


def run_contenders(factory, contenders: int = 6, rounds: int = 2,
                   stagger: bool = True, sched=None):
    """``contenders`` processes each use the resource ``rounds`` times,
    arriving at staggered virtual times so arrival order is unambiguous.
    ``sched`` injects a pre-built (e.g. instrumented or randomly
    scheduled) scheduler."""
    if sched is None:
        sched = Scheduler()
    impl = factory(sched)

    def user(index):
        def body():
            if stagger:
                yield from sched.sleep(index)
            for __ in range(rounds):
                yield from impl.use(work=2)
        return body

    for i in range(contenders):
        sched.spawn(user(i), name="U{}".format(i))
    return sched.run(on_deadlock="return")


def trace_battery(run: RunResult) -> List[str]:
    """The FCFS resource's trace properties: strict arrival-order service
    and single occupancy."""
    return (check_fcfs(run.trace, "res", ["use"])
            + check_single_occupancy(run.trace, "res", ["use"]))


def make_verifier(factory) -> Callable[[], List[str]]:
    """The trace battery and deadlock freedom, staggered and burst."""

    def verify() -> List[str]:
        violations: List[str] = []
        for label, stagger in (("staggered", True), ("burst", False)):
            try:
                result = run_contenders(factory, stagger=stagger)
            except ProcessFailed as failure:
                violations.append("{}: {}".format(label, failure))
                continue
            for msg in trace_battery(result):
                violations.append("{}: {}".format(label, msg))
            if result.deadlocked:
                violations.append("{}: deadlock".format(label))
        return violations

    return verify


def run_explore(factory, sched: Scheduler) -> RunResult:
    """Explore workload: three contenders use the resource once each."""
    impl = factory(sched)

    def contender():
        yield from impl.use(work=2)

    for i in range(3):
        sched.spawn(contender, name="U{}".format(i))
    return sched.run(on_deadlock="return", on_error="record")


#: This package's cells of the solution catalog (see :func:`catalog_cells`).
CATALOG = catalog_cells(
    (SemaphoreFcfsResource, impls.SEMAPHORE_FCFS_DESCRIPTION),
    (MonitorFcfsResource, impls.MONITOR_FCFS_DESCRIPTION),
    (SerializerFcfsResource, impls.SERIALIZER_FCFS_DESCRIPTION),
    (PathFcfsResource, impls.PATH_FCFS_DESCRIPTION),
    (CspFcfsResource, ext_impls.CSP_FCFS_DESCRIPTION),
    (CcrFcfsResource, ext_impls.CCR_FCFS_DESCRIPTION),
    (eventcount_impls.EventCountFcfsResource,
     eventcount_impls.EVENTCOUNT_FCFS_DESCRIPTION),
    verifier=make_verifier,
    workload=lambda factory, sched: run_contenders(
        factory, contenders=6, rounds=2, sched=sched),
)

#: This package's exhaustible explore workload (see :class:`ExploreWorkload`).
EXPLORE = (ExploreWorkload("fcfs_resource", "fcfs_resource", run_explore,
                           explore_check(trace_battery)),)

__all__ = [
    "CATALOG",
    "CcrFcfsResource",
    "CspFcfsResource",
    "EXPLORE",
    "MonitorFcfsResource",
    "PathFcfsResource",
    "SemaphoreFcfsResource",
    "SerializerFcfsResource",
    "make_verifier",
    "run_contenders",
    "trace_battery",
]
