"""Executable candidate synchronizers and the synthesis workloads.

Every grammar candidate (:class:`~repro.synth.grammar.Candidate`) runs on
one substrate: :class:`SynthGuardedRW`, a readers/writers solution whose
path program *and* per-operation guard predicates come from the candidate.
Guard atoms evaluate over three counter families:

* ``active(op)`` — path-level occupancy (``PathResource.active``);
* ``pending(op)`` — demand: requests announced (``req`` counters bumped at
  request-log time, before any blocking) minus starts — exactly the
  quantity the strict priority oracle is stated over;
* ``waiting(op)`` — parked entries in the guard gate (the serializer
  queue-depth view).

The request counters and gate composition are registered as scheduler
fingerprint providers, so equivalence pruning stays sound for guarded
candidates (two states that differ in demand or queue order never merge).

Workloads:

* :func:`run_candidate_footnote3` — the paper's footnote-3 arrival pattern
  (writer working, second writer arrives, then a reader) on the candidate;
  the schedule space where the priority anomaly lives.
* :func:`run_candidate_two_readers` — two readers, no writers;
  :func:`reads_overlap` detects schedules where both are simultaneously
  active.  A correct repair must *admit* such a schedule — this is the
  check that rejects trivially-serial candidates which satisfy safety by
  destroying the reader concurrency the paper's burst construct exists
  to provide.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Tuple

from ..mechanisms.pathexpr.extended import GuardedPathResource
from ..problems.base import SolutionBase
from ..resources import Database
from ..runtime.policies import SchedulingPolicy
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from .grammar import Candidate

#: Atom name -> evaluator over the solution instance.
AtomEval = Callable[["SynthGuardedRW"], bool]

ATOM_EVALS: Dict[str, AtomEval] = {
    "pending(read)==0": lambda s: s.pending("read") == 0,
    "pending(write)==0": lambda s: s.pending("write") == 0,
    "active(read)==0": lambda s: s.paths.active("read") == 0,
    "active(write)==0": lambda s: s.paths.active("write") == 0,
    "waiting(read)==0": lambda s: s.waiting("read") == 0,
    "waiting(write)==0": lambda s: s.waiting("write") == 0,
}


class SynthGuardedRW(SolutionBase):
    """Readers/writers on a guarded path resource, shaped by a candidate.

    The operation bodies are the standard database read/write (identical
    to the hand-written solutions, so traces feed the same oracles); the
    entire synchronization discipline — path program and guards — is the
    candidate's.
    """

    problem = "readers_priority"
    mechanism = "synth"

    def __init__(
        self,
        sched: Scheduler,
        candidate: Candidate,
        name: str = "db",
        wake_policy: str = "fifo",
        seed: int = 0,
    ) -> None:
        super().__init__(sched, name)
        self.candidate = candidate
        self.db = Database()
        #: Requests announced per op (bumped before any blocking point).
        self.req: Dict[str, int] = {"read": 0, "write": 0}
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def conjunction(atoms: Tuple[str, ...]):
            evals = tuple(ATOM_EVALS[a] for a in atoms)

            def predicate(res, args) -> bool:
                return all(ev(solution) for ev in evals)

            return predicate

        guards = {}
        if candidate.read_guard:
            guards["read"] = conjunction(candidate.read_guard)
        if candidate.write_guard:
            guards["write"] = conjunction(candidate.write_guard)

        self.paths = GuardedPathResource(
            sched,
            candidate.paths_text,
            guards=guards,
            name=name + ".paths",
            wake_policy=wake_policy,
            seed=seed,
        )

        def read_body(res, work: int):
            solution._start("read")
            value = yield from solution.db.read()
            yield from solution._work(work)
            solution._finish("read")
            return value

        def write_body(res, value, work: int):
            solution._start("write")
            yield from solution.db.write(value)
            yield from solution._work(work)
            solution._finish("write")

        self.paths.define("read", read_body)
        self.paths.define("write", write_body)
        sched.add_fingerprint_provider(self._fingerprint_state)

    # ------------------------------------------------------------------
    def pending(self, op: str) -> int:
        """Requests announced but not yet started at the path level."""
        return self.req[op] - self.paths.started(op)

    def waiting(self, op: str) -> int:
        """Parked guard-gate entries for ``op``."""
        return sum(1 for entry in self.paths._gate if entry[3] == op)

    def _fingerprint_state(self):
        # Demand counters and gate composition drive guard truth values,
        # so they must distinguish canonical states.  Gate entries are
        # reduced to (pid, op) in queue order: absolute arrival stamps are
        # monotone within a run and never affect relative admission order.
        gate = tuple((entry[2].pid, entry[3])
                     for entry in self.paths._gate)
        return (
            self.req["read"], self.req["write"],
            self.paths.started("read"), self.paths.started("write"),
            self.paths.completed("read"), self.paths.completed("write"),
            gate,
        )

    # ------------------------------------------------------------------
    def read(self, work: int = 1):
        """Perform one read; returns the database value."""
        self._request("read")
        self.req["read"] += 1
        value = yield from self.paths.invoke("read", work)
        return value

    def write(self, value, work: int = 1):
        """Perform one write."""
        self._request("write")
        self.req["write"] += 1
        yield from self.paths.invoke("write", value, work)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
#: Identifies the workload+battery a cached verdict was computed against.
FOOTNOTE3_WORKLOAD = "footnote3_rw_v1"
CONCURRENCY_WORKLOAD = "two_readers_v1"


def run_candidate_footnote3(
    candidate: Candidate,
    policy: SchedulingPolicy,
) -> RunResult:
    """The paper's footnote-3 arrival pattern on ``candidate``: W1 starts
    a long write, W2's write and R1's read arrive while it runs.  The
    broken Figure-1 program lets W2 overtake R1 here."""
    sched = Scheduler(policy=policy)
    impl = SynthGuardedRW(sched, candidate)

    def first_writer():
        yield from impl.write(1, work=3)

    def second_writer():
        yield
        yield from impl.write(2, work=1)

    def reader():
        yield
        yield
        yield from impl.read(work=1)

    sched.spawn(first_writer, name="W1")
    sched.spawn(second_writer, name="W2")
    sched.spawn(reader, name="R1")
    return sched.run(on_deadlock="return", on_error="record")


def run_candidate_two_readers(
    candidate: Candidate,
    policy: SchedulingPolicy,
) -> RunResult:
    """Two readers, no writers — the reader-concurrency probe."""
    sched = Scheduler(policy=policy)
    impl = SynthGuardedRW(sched, candidate)

    def reader(name):
        def body():
            yield from impl.read(work=2)
        return body

    sched.spawn(reader("Ra"), name="Ra")
    sched.spawn(reader("Rb"), name="Rb")
    return sched.run(on_deadlock="return", on_error="record")


def reads_overlap(run: RunResult) -> List[str]:
    """Non-empty iff two reads were simultaneously active on ``db`` —
    checker-shaped so a stop-at-first ``ExplorationEngine.explore`` hunts
    for a schedule with non-empty messages."""
    active = 0
    for event in run.trace.filter(obj="db.read"):
        if event.kind == "op_start":
            active += 1
            if active >= 2:
                return ["two reads active simultaneously"]
        elif event.kind == "op_end":
            active -= 1
    return []
