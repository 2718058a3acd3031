"""Disk head scheduler (footnote 2: a request-parameters problem, [13])."""

import random
from typing import Callable, List, Sequence, Tuple

from ...runtime.errors import ProcessFailed
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_scan_order, check_single_occupancy
from ..base import catalog_cells
from . import ext_impls, impls
from .ext_impls import CcrDiskScheduler, CspDiskScheduler
from .impls import (
    MonitorDiskScheduler,
    OpenPathDiskScheduler,
    SemaphoreDiskFcfs,
    SerializerDiskScheduler,
    scan_next,
)

#: (arrival delay, track) — distinct tracks, none equal to the start track.
DEFAULT_PLAN: List[Tuple[int, int]] = [
    (0, 53), (0, 18), (0, 91), (1, 37), (1, 122),
    (2, 14), (3, 70), (4, 147), (5, 9), (6, 101),
]


def random_plan(seed: int, requests: int = 12) -> List[Tuple[int, int]]:
    """Distinct random tracks in 1..199 (never the start track 0) with
    staggered arrivals."""
    rng = random.Random(seed)
    chosen = rng.sample(range(1, 200), requests)
    return [(rng.randrange(0, 8), track) for track in chosen]


def run_requests(factory, plan: Sequence[Tuple[int, int]] = tuple(DEFAULT_PLAN),
                 sched=None):
    """One process per (delay, track) request.  ``sched`` injects a
    pre-built (e.g. instrumented) scheduler."""
    if sched is None:
        sched = Scheduler()
    impl = factory(sched)

    def requester(delay: int, track: int):
        def body():
            if delay:
                yield from sched.sleep(delay)
            yield from impl.use(track, work=2)
        return body

    for index, (delay, track) in enumerate(plan):
        sched.spawn(requester(delay, track), name="D{}".format(index))
    result = sched.run(on_deadlock="return")
    return result, impl


def make_verifier(factory, name: str = "disk",
                  check_scan: bool = True) -> Callable[[], List[str]]:
    """Oracle battery: single occupancy always; SCAN order unless the
    solution is the FCFS baseline (``check_scan=False``)."""

    def verify() -> List[str]:
        violations: List[str] = []
        plans = [("default", DEFAULT_PLAN), ("random3", random_plan(3)),
                 ("random9", random_plan(9))]
        for label, plan in plans:
            try:
                result, __ = run_requests(factory, plan)
            except ProcessFailed as failure:
                violations.append("{}: {}".format(label, failure))
                continue
            for msg in check_single_occupancy(result.trace, name, ["use"]):
                violations.append("{}: {}".format(label, msg))
            if check_scan:
                for msg in check_scan_order(result.trace, name):
                    violations.append("{}: {}".format(label, msg))
            if result.deadlocked:
                violations.append("{}: deadlock".format(label))
        return violations

    return verify


def _profile_run(factory, sched: Scheduler) -> RunResult:
    result, __ = run_requests(factory, sched=sched)
    return result


#: This package's cells of the solution catalog (see :func:`catalog_cells`).
#: The semaphore solution is the FCFS baseline: no SCAN order to check.
CATALOG = catalog_cells(
    (MonitorDiskScheduler, impls.MONITOR_DISK_DESCRIPTION),
    (SerializerDiskScheduler, impls.SERIALIZER_DISK_DESCRIPTION),
    (OpenPathDiskScheduler, impls.OPEN_PATH_DISK_DESCRIPTION),
    (SemaphoreDiskFcfs, impls.SEMAPHORE_DISK_DESCRIPTION,
     "FCFS baseline, no elevator"),
    (CspDiskScheduler, ext_impls.CSP_DISK_DESCRIPTION),
    (CcrDiskScheduler, ext_impls.CCR_DISK_DESCRIPTION),
    verifier=lambda cls: make_verifier(
        cls, check_scan=cls is not SemaphoreDiskFcfs),
    workload=_profile_run,
)

#: No explore workload: the disk scheduler is judged by its verifier alone.
EXPLORE = ()

__all__ = [
    "CATALOG",
    "CcrDiskScheduler",
    "CspDiskScheduler",
    "DEFAULT_PLAN",
    "EXPLORE",
    "MonitorDiskScheduler",
    "OpenPathDiskScheduler",
    "SemaphoreDiskFcfs",
    "SerializerDiskScheduler",
    "make_verifier",
    "random_plan",
    "run_requests",
    "scan_next",
]
