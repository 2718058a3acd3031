"""The solution registry: every (problem × mechanism) implementation, its
machine-readable description, and its oracle battery — the input to the
evaluation engine and the benchmarks.

``build_evaluator()`` assembles the complete §5-style evaluation in one
call::

    from repro.problems.registry import build_evaluator
    report = build_evaluator().evaluate()
    print(report.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core import Evaluator, SolutionDescription
from ..runtime.scheduler import Scheduler
from . import alarm_clock, bounded_buffer, disk_scheduler, eventcount_impls, fcfs_resource
from . import one_slot_buffer, staged_queue
from . import readers_writers as rw
from .infeasibility import INFEASIBILITY_RECORDS

Factory = Callable[[Scheduler], object]


@dataclass(frozen=True)
class RegisteredSolution:
    """One catalog entry: how to build, describe, and verify a solution."""

    problem: str
    mechanism: str
    factory: Factory
    description: SolutionDescription
    verifier: Callable[[], List[str]]
    notes: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.problem, self.mechanism)


def _rw_entry(cls, description, problem) -> RegisteredSolution:
    factory = lambda sched: cls(sched)  # noqa: E731
    return RegisteredSolution(
        problem=problem,
        mechanism=cls.mechanism,
        factory=factory,
        description=description,
        verifier=rw.make_verifier(factory, problem),
    )


def _build_registry() -> Dict[Tuple[str, str], RegisteredSolution]:
    entries: List[RegisteredSolution] = []

    # Readers/writers family -------------------------------------------
    entries += [
        _rw_entry(rw.SemaphoreReadersPriority,
                  rw.SEMAPHORE_READERS_PRIORITY_DESCRIPTION,
                  "readers_priority"),
        _rw_entry(rw.MonitorReadersPriority,
                  rw.MONITOR_READERS_PRIORITY_DESCRIPTION,
                  "readers_priority"),
        _rw_entry(rw.SerializerReadersPriority,
                  rw.SERIALIZER_READERS_PRIORITY_DESCRIPTION,
                  "readers_priority"),
        _rw_entry(rw.PathReadersPriority,
                  rw.PATH_READERS_PRIORITY_DESCRIPTION,
                  "readers_priority"),
        _rw_entry(rw.SemaphoreWritersPriority,
                  rw.SEMAPHORE_WRITERS_PRIORITY_DESCRIPTION,
                  "writers_priority"),
        _rw_entry(rw.MonitorWritersPriority,
                  rw.MONITOR_WRITERS_PRIORITY_DESCRIPTION,
                  "writers_priority"),
        _rw_entry(rw.SerializerWritersPriority,
                  rw.SERIALIZER_WRITERS_PRIORITY_DESCRIPTION,
                  "writers_priority"),
        _rw_entry(rw.PathWritersPriority,
                  rw.PATH_WRITERS_PRIORITY_DESCRIPTION,
                  "writers_priority"),
        _rw_entry(rw.MonitorRWFcfs, rw.MONITOR_RW_FCFS_DESCRIPTION,
                  "rw_fcfs"),
        _rw_entry(rw.SerializerRWFcfs, rw.SERIALIZER_RW_FCFS_DESCRIPTION,
                  "rw_fcfs"),
        _rw_entry(rw.PathRWFcfs, rw.PATH_RW_FCFS_DESCRIPTION, "rw_fcfs"),
        # §6 extension mechanisms (experiment E11):
        _rw_entry(rw.CspReadersPriority,
                  rw.CSP_READERS_PRIORITY_DESCRIPTION, "readers_priority"),
        _rw_entry(rw.CspWritersPriority,
                  rw.CSP_WRITERS_PRIORITY_DESCRIPTION, "writers_priority"),
        _rw_entry(rw.CspRWFcfs, rw.CSP_RW_FCFS_DESCRIPTION, "rw_fcfs"),
        _rw_entry(rw.CcrReadersPriority,
                  rw.CCR_READERS_PRIORITY_DESCRIPTION, "readers_priority"),
        _rw_entry(rw.CcrWritersPriority,
                  rw.CCR_WRITERS_PRIORITY_DESCRIPTION, "writers_priority"),
        _rw_entry(rw.CcrRWFcfs, rw.CCR_RW_FCFS_DESCRIPTION, "rw_fcfs"),
    ]

    # Bounded buffer ----------------------------------------------------
    for cls, description in (
        (bounded_buffer.SemaphoreBoundedBuffer,
         bounded_buffer.SEMAPHORE_BOUNDED_BUFFER_DESCRIPTION),
        (bounded_buffer.MonitorBoundedBuffer,
         bounded_buffer.MONITOR_BOUNDED_BUFFER_DESCRIPTION),
        (bounded_buffer.SerializerBoundedBuffer,
         bounded_buffer.SERIALIZER_BOUNDED_BUFFER_DESCRIPTION),
        (bounded_buffer.OpenPathBoundedBuffer,
         bounded_buffer.OPEN_PATH_BOUNDED_BUFFER_DESCRIPTION),
        (bounded_buffer.CspBoundedBuffer,
         bounded_buffer.CSP_BOUNDED_BUFFER_DESCRIPTION),
        (bounded_buffer.CcrBoundedBuffer,
         bounded_buffer.CCR_BOUNDED_BUFFER_DESCRIPTION),
        (eventcount_impls.EventCountBoundedBuffer,
         eventcount_impls.EVENTCOUNT_BOUNDED_BUFFER_DESCRIPTION),
    ):
        factory = (lambda c: lambda sched: c(sched))(cls)
        entries.append(RegisteredSolution(
            problem="bounded_buffer",
            mechanism=cls.mechanism,
            factory=factory,
            description=description,
            verifier=bounded_buffer.make_verifier(factory),
        ))

    # One-slot buffer ----------------------------------------------------
    for cls, description in (
        (one_slot_buffer.SemaphoreOneSlotBuffer,
         one_slot_buffer.SEMAPHORE_ONE_SLOT_DESCRIPTION),
        (one_slot_buffer.MonitorOneSlotBuffer,
         one_slot_buffer.MONITOR_ONE_SLOT_DESCRIPTION),
        (one_slot_buffer.SerializerOneSlotBuffer,
         one_slot_buffer.SERIALIZER_ONE_SLOT_DESCRIPTION),
        (one_slot_buffer.PathOneSlotBuffer,
         one_slot_buffer.PATH_ONE_SLOT_DESCRIPTION),
        (one_slot_buffer.CspOneSlotBuffer,
         one_slot_buffer.CSP_ONE_SLOT_DESCRIPTION),
        (one_slot_buffer.CcrOneSlotBuffer,
         one_slot_buffer.CCR_ONE_SLOT_DESCRIPTION),
        (eventcount_impls.EventCountOneSlotBuffer,
         eventcount_impls.EVENTCOUNT_ONE_SLOT_DESCRIPTION),
    ):
        factory = (lambda c: lambda sched: c(sched))(cls)
        entries.append(RegisteredSolution(
            problem="one_slot_buffer",
            mechanism=cls.mechanism,
            factory=factory,
            description=description,
            verifier=one_slot_buffer.make_verifier(factory),
        ))

    # FCFS resource -------------------------------------------------------
    for cls, description in (
        (fcfs_resource.SemaphoreFcfsResource,
         fcfs_resource.SEMAPHORE_FCFS_DESCRIPTION),
        (fcfs_resource.MonitorFcfsResource,
         fcfs_resource.MONITOR_FCFS_DESCRIPTION),
        (fcfs_resource.SerializerFcfsResource,
         fcfs_resource.SERIALIZER_FCFS_DESCRIPTION),
        (fcfs_resource.PathFcfsResource,
         fcfs_resource.PATH_FCFS_DESCRIPTION),
        (fcfs_resource.CspFcfsResource,
         fcfs_resource.CSP_FCFS_DESCRIPTION),
        (fcfs_resource.CcrFcfsResource,
         fcfs_resource.CCR_FCFS_DESCRIPTION),
        (eventcount_impls.EventCountFcfsResource,
         eventcount_impls.EVENTCOUNT_FCFS_DESCRIPTION),
    ):
        factory = (lambda c: lambda sched: c(sched))(cls)
        entries.append(RegisteredSolution(
            problem="fcfs_resource",
            mechanism=cls.mechanism,
            factory=factory,
            description=description,
            verifier=fcfs_resource.make_verifier(factory),
        ))

    # Disk scheduler -------------------------------------------------------
    for cls, description, check_scan in (
        (disk_scheduler.MonitorDiskScheduler,
         disk_scheduler.MONITOR_DISK_DESCRIPTION, True),
        (disk_scheduler.SerializerDiskScheduler,
         disk_scheduler.SERIALIZER_DISK_DESCRIPTION, True),
        (disk_scheduler.OpenPathDiskScheduler,
         disk_scheduler.OPEN_PATH_DISK_DESCRIPTION, True),
        (disk_scheduler.SemaphoreDiskFcfs,
         disk_scheduler.SEMAPHORE_DISK_DESCRIPTION, False),
        (disk_scheduler.CspDiskScheduler,
         disk_scheduler.CSP_DISK_DESCRIPTION, True),
        (disk_scheduler.CcrDiskScheduler,
         disk_scheduler.CCR_DISK_DESCRIPTION, True),
    ):
        factory = (lambda c: lambda sched: c(sched))(cls)
        entries.append(RegisteredSolution(
            problem="disk_scheduler",
            mechanism=cls.mechanism,
            factory=factory,
            description=description,
            verifier=disk_scheduler.make_verifier(factory,
                                                  check_scan=check_scan),
            notes="" if check_scan else "FCFS baseline, no elevator",
        ))

    # Alarm clock -----------------------------------------------------------
    for cls, description in (
        (alarm_clock.MonitorAlarmClock, alarm_clock.MONITOR_ALARM_DESCRIPTION),
        (alarm_clock.SerializerAlarmClock,
         alarm_clock.SERIALIZER_ALARM_DESCRIPTION),
        (alarm_clock.OpenPathAlarmClock,
         alarm_clock.OPEN_PATH_ALARM_DESCRIPTION),
        (alarm_clock.SemaphoreAlarmClock,
         alarm_clock.SEMAPHORE_ALARM_DESCRIPTION),
        (alarm_clock.CspAlarmClock, alarm_clock.CSP_ALARM_DESCRIPTION),
        (alarm_clock.CcrAlarmClock, alarm_clock.CCR_ALARM_DESCRIPTION),
    ):
        factory = (lambda c: lambda sched: c(sched))(cls)
        entries.append(RegisteredSolution(
            problem="alarm_clock",
            mechanism=cls.mechanism,
            factory=factory,
            description=description,
            verifier=alarm_clock.make_verifier(factory),
        ))

    # Staged queue ------------------------------------------------------------
    for cls, description in (
        (staged_queue.MonitorStagedQueue,
         staged_queue.MONITOR_STAGED_DESCRIPTION),
        (staged_queue.SerializerStagedQueue,
         staged_queue.SERIALIZER_STAGED_DESCRIPTION),
        (staged_queue.OpenPathStagedQueue,
         staged_queue.OPEN_PATH_STAGED_DESCRIPTION),
        (staged_queue.CspStagedQueue, staged_queue.CSP_STAGED_DESCRIPTION),
        (staged_queue.CcrStagedQueue, staged_queue.CCR_STAGED_DESCRIPTION),
    ):
        factory = (lambda c: lambda sched: c(sched))(cls)
        entries.append(RegisteredSolution(
            problem="staged_queue",
            mechanism=cls.mechanism,
            factory=factory,
            description=description,
            verifier=staged_queue.make_verifier(factory),
        ))

    return {entry.key: entry for entry in entries}


#: Every registered solution, keyed by (problem, mechanism).
REGISTRY: Dict[Tuple[str, str], RegisteredSolution] = _build_registry()


def all_solutions() -> List[RegisteredSolution]:
    """Every entry, ordered by problem then mechanism."""
    return sorted(REGISTRY.values(), key=lambda e: e.key)


def get_solution(problem: str, mechanism: str) -> RegisteredSolution:
    """Look up one entry (raises ``KeyError``)."""
    return REGISTRY[(problem, mechanism)]


def solutions_for(problem: Optional[str] = None,
                  mechanism: Optional[str] = None) -> List[RegisteredSolution]:
    """Filter the registry by problem and/or mechanism."""
    return [
        entry for entry in all_solutions()
        if (problem is None or entry.problem == problem)
        and (mechanism is None or entry.mechanism == mechanism)
    ]


def build_evaluator() -> Evaluator:
    """An :class:`Evaluator` pre-loaded with the entire registry.

    It also loads the negative results of
    :mod:`repro.problems.infeasibility`, so the paper's "no way to express"
    findings surface as NONE cells in the expressive-power matrix.
    """
    evaluator = Evaluator()
    for entry in all_solutions():
        evaluator.add(entry.description, entry.verifier)
    for record in INFEASIBILITY_RECORDS:
        evaluator.add(record, verifier=None)
    return evaluator
