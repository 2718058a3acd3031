"""The canonical test-problem catalog.

Footnote 2 of the paper fixes the suite used in the original evaluations:

    "the bounded buffer problem to represent use of local state information,
    a first come first serve scheme for request time, a readers_priority
    database [8] for request type and synchronization state, the disk
    scheduler problem and alarmclock problem [13] to make use of parameters
    passed, and the one-slot buffer [7] for history information."

Section 4.2 adds the writers-priority and FCFS readers-writers variants as
modification probes, and Section 5.2 adds the hierarchical-resource and
two-stage-queuing situations.  This module defines all of them as
:class:`ProblemSpec` values and verifies the coverage claim programmatically
(:func:`coverage_matrix`, :func:`uncovered_types`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from .constraints import Constraint
from .information import ALL_INFORMATION_TYPES, InformationType
from .problems import ProblemSpec

T1 = InformationType.REQUEST_TYPE
T2 = InformationType.REQUEST_TIME
T3 = InformationType.PARAMETERS
T4 = InformationType.SYNC_STATE
T5 = InformationType.LOCAL_STATE
T6 = InformationType.HISTORY

# ----------------------------------------------------------------------
# Shared constraint definitions.  Constraints reused across problems carry
# the SAME id — the ease-of-use analysis keys on this (§4.2).
# ----------------------------------------------------------------------

#: Readers share; a writer excludes readers and other writers.
RW_EXCLUSION = Constraint.exclusion(
    "rw_exclusion",
    {T1, T4},
    "readers may proceed concurrently; a writer excludes all other users",
)

READERS_PRIORITY = Constraint.priority(
    "readers_priority",
    {T1},
    "when both readers and writers wait, readers enter first",
)

WRITERS_PRIORITY = Constraint.priority(
    "writers_priority",
    {T1},
    "when both readers and writers wait, writers enter first",
)

ARRIVAL_ORDER = Constraint.priority(
    "arrival_order",
    {T2},
    "requests are granted in strict order of arrival",
)

BUFFER_BOUNDS = Constraint.exclusion(
    "buffer_bounds",
    {T5},
    "no get when the buffer is empty; no put when the buffer is full",
)

BUFFER_MUTEX = Constraint.exclusion(
    "buffer_mutex",
    {T4},
    "buffer operations do not overlap",
)

SLOT_ALTERNATION = Constraint.exclusion(
    "slot_alternation",
    {T6},
    "put and get strictly alternate, starting with put",
)

RESOURCE_MUTEX = Constraint.exclusion(
    "resource_mutex",
    {T4},
    "at most one process uses the resource at a time",
)

ELEVATOR_ORDER = Constraint.priority(
    "elevator_order",
    {T3},
    "pending requests are served in elevator (SCAN) order of track number",
)

DEADLINE_ORDER = Constraint.priority(
    "deadline_order",
    {T3},
    "sleeping processes wake when the clock reaches their requested time, "
    "earliest deadline first",
)

CLASS_PRIORITY = Constraint.priority(
    "class_priority",
    {T1},
    "class-A requests have priority over class-B requests",
)

FCFS_WITHIN_CLASS = Constraint.priority(
    "fcfs_within_class",
    {T2},
    "within each request class, requests are served in arrival order",
)

# ----------------------------------------------------------------------
# The problems
# ----------------------------------------------------------------------

BOUNDED_BUFFER = ProblemSpec(
    name="bounded_buffer",
    title="Bounded buffer",
    operations=("put", "get"),
    constraints=(BUFFER_BOUNDS, BUFFER_MUTEX),
    source="Dijkstra [9]; chosen for local state information",
    covers=frozenset({T5}),
)

FCFS_RESOURCE = ProblemSpec(
    name="fcfs_resource",
    title="First-come-first-served resource",
    operations=("acquire", "release"),
    constraints=(RESOURCE_MUTEX, ARRIVAL_ORDER),
    source="paper footnote 2; chosen for request time information",
    covers=frozenset({T2}),
)

READERS_PRIORITY_DB = ProblemSpec(
    name="readers_priority",
    title="Readers-priority database",
    operations=("read", "write"),
    constraints=(RW_EXCLUSION, READERS_PRIORITY),
    source="Courtois, Heymans, Parnas [8]; chosen for request type and "
    "synchronization state",
    covers=frozenset({T1, T4}),
)

WRITERS_PRIORITY_DB = ProblemSpec(
    name="writers_priority",
    title="Writers-priority database",
    operations=("read", "write"),
    constraints=(RW_EXCLUSION, WRITERS_PRIORITY),
    source="Courtois, Heymans, Parnas [8]; §4.2 modification probe",
    covers=frozenset({T1, T4}),
)

RW_FCFS_DB = ProblemSpec(
    name="rw_fcfs",
    title="Readers-writers, first-come-first-served",
    operations=("read", "write"),
    constraints=(RW_EXCLUSION, ARRIVAL_ORDER),
    source="§4.2 modification probe (same exclusion, request-time priority)",
    covers=frozenset({T1, T2, T4}),
)

DISK_SCHEDULER = ProblemSpec(
    name="disk_scheduler",
    title="Disk head scheduler",
    operations=("request", "release"),
    constraints=(RESOURCE_MUTEX, ELEVATOR_ORDER),
    source="Hoare [13]; chosen for request parameters",
    covers=frozenset({T3}),
)

ALARM_CLOCK = ProblemSpec(
    name="alarm_clock",
    title="Alarm clock",
    operations=("wakeme", "tick"),
    constraints=(DEADLINE_ORDER,),
    source="Hoare [13]; chosen for request parameters",
    covers=frozenset({T3}),
)

ONE_SLOT_BUFFER = ProblemSpec(
    name="one_slot_buffer",
    title="One-slot buffer",
    operations=("put", "get"),
    constraints=(SLOT_ALTERNATION,),
    source="Campbell, Habermann [7]; chosen for history information",
    covers=frozenset({T6}),
)

STAGED_QUEUE = ProblemSpec(
    name="staged_queue",
    title="Class priority with FCFS within class",
    operations=("acquire_a", "acquire_b", "release"),
    constraints=(RESOURCE_MUTEX, CLASS_PRIORITY, FCFS_WITHIN_CLASS),
    source="§5.2 two-stage queuing: request type and request time together",
    covers=frozenset({T1, T2}),
)

#: Every problem in the suite, in the paper's presentation order.
PROBLEM_CATALOG: Dict[str, ProblemSpec] = {
    spec.name: spec
    for spec in (
        BOUNDED_BUFFER,
        FCFS_RESOURCE,
        READERS_PRIORITY_DB,
        WRITERS_PRIORITY_DB,
        RW_FCFS_DB,
        DISK_SCHEDULER,
        ALARM_CLOCK,
        ONE_SLOT_BUFFER,
        STAGED_QUEUE,
    )
}

#: The minimal footnote-2 suite (the paper's own evaluation set).
FOOTNOTE2_SUITE: Tuple[str, ...] = (
    "bounded_buffer",
    "fcfs_resource",
    "readers_priority",
    "disk_scheduler",
    "alarm_clock",
    "one_slot_buffer",
)

#: The §4.2 modification probes: (from, to, shared constraint ids).
MODIFICATION_PROBES: Tuple[Tuple[str, str], ...] = (
    ("readers_priority", "writers_priority"),
    ("readers_priority", "rw_fcfs"),
)


def coverage_matrix() -> Dict[str, FrozenSet[InformationType]]:
    """Which information types each footnote-2 suite problem covers."""
    return {name: PROBLEM_CATALOG[name].covers for name in FOOTNOTE2_SUITE}


def uncovered_types() -> List[InformationType]:
    """Information types the footnote-2 suite does not cover (empty — the
    completeness claim the methodology rests on)."""
    covered: FrozenSet[InformationType] = frozenset()
    for name in FOOTNOTE2_SUITE:
        covered |= PROBLEM_CATALOG[name].covers
    return [t for t in ALL_INFORMATION_TYPES if t not in covered]
