"""Deterministic cooperative concurrency runtime (substrates S1–S2).

The runtime replaces OS threads with generator-based processes scheduled by a
single deterministic loop (see DESIGN.md §6 for why).  Public surface:

* :class:`Scheduler` / :func:`run_processes` — spawn and run processes.
* :class:`SimProcess`, :class:`ProcessState` — process handles.
* Policies — :class:`FIFOPolicy`, :class:`RandomPolicy`,
  :class:`ScriptedPolicy`, :class:`NamedOrderPolicy`, :class:`PriorityPolicy`.
* Primitives — :class:`Semaphore`, :class:`Mutex`, :class:`BroadcastEvent`.
* Traces — :class:`Trace`, :class:`Event`, :class:`RunResult`.
* Errors — :class:`DeadlockError` and friends.
"""

from .errors import (
    DeadlockError,
    IllegalOperationError,
    PeerFailed,
    ProcessFailed,
    ProcessKilled,
    RuntimeBaseError,
    SchedulerStateError,
    StepLimitExceeded,
    WaitTimeout,
)
from .faults import Fault, FaultPlan, WaitForGraph, deliver
from .policies import (
    FIFOPolicy,
    NamedOrderPolicy,
    PriorityPolicy,
    RandomPolicy,
    SchedulingPolicy,
    ScriptedPolicy,
)
from .primitives import BroadcastEvent, Mutex, Semaphore
from .process import ProcessState, SimProcess
from .scheduler import Scheduler, run_processes
from .timeline import render_timeline
from .trace import Event, Op, OpFold, RunResult, Trace

__all__ = [
    "BroadcastEvent",
    "DeadlockError",
    "Event",
    "FIFOPolicy",
    "Fault",
    "FaultPlan",
    "IllegalOperationError",
    "Mutex",
    "NamedOrderPolicy",
    "Op",
    "OpFold",
    "PeerFailed",
    "PriorityPolicy",
    "ProcessFailed",
    "ProcessKilled",
    "ProcessState",
    "RandomPolicy",
    "RunResult",
    "RuntimeBaseError",
    "Scheduler",
    "SchedulerStateError",
    "SchedulingPolicy",
    "ScriptedPolicy",
    "Semaphore",
    "SimProcess",
    "StepLimitExceeded",
    "Trace",
    "WaitForGraph",
    "WaitTimeout",
    "deliver",
    "render_timeline",
    "run_processes",
]
