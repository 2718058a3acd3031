"""The run-checker contract, two pluggable detectors — race
(conflicting-access) and lost-wakeup detection over explored schedules —
and the fault campaigns' critical-region exclusion oracle.

A :data:`Checker` is ``check(run) -> List[str]`` (empty = ok), the
contract every trace oracle satisfies — so detectors, oracles, and ad-hoc
lambdas compose freely via :func:`compose_checkers` and plug into
:class:`~repro.explore.engine.ExplorationEngine` and the fault campaigns'
classifiers alike.

Unlike the problem oracles (which check a discipline: FCFS, alternation,
priority), these two detect *mechanism-level* pathologies that any problem
can exhibit:

* :class:`ConflictingAccessChecker` — two operations active on the same
  resource at once where at least one is a declared writer: the
  schedule-level analogue of a data race.
* :class:`LostWakeupChecker` — a run ends with a process parked forever
  even though a wakeup-capable event on what it waits for happened *after*
  it blocked: the classic missed-signal bug (signal consumed by nobody,
  V dropped, notify before wait).

:func:`exclusion_oracle` checks the ``cs`` critical-section intervals
that the fault campaigns' lock rows and Lamport mutex log, closing a dead
holder's interval at its death.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

from ..runtime.trace import RunResult
from .oracles import check_mutual_exclusion

#: The one run-checker contract: messages for a run, empty when it passed.
Checker = Callable[[RunResult], List[str]]

#: Event kinds that (re-)enable a waiter on the object they name.  Mechanism
#: vocabulary: semaphore V, condition signal/notify, monitor/serializer
#: possession transfer, channel completion.
WAKE_KINDS = ("v", "signal", "notify", "release", "exit", "leave",
              "unblocked", "op_end")


def compose_checkers(*checkers: Checker) -> Checker:
    """One checker that concatenates the messages of many."""

    def check(run: RunResult) -> List[str]:
        messages: List[str] = []
        for checker in checkers:
            messages.extend(checker(run))
        return messages

    return check


class ConflictingAccessChecker:
    """Race detector: flags overlapping operations on one resource where at
    least one side is a writer.

    Args:
        resource: the resource name operations are logged under
            (``<resource>.<op>`` objects).
        writes: op names that conflict with everything.
        reads: op names that conflict only with writes (may overlap each
            other).  Ops outside both sets are ignored.
    """

    def __init__(
        self,
        resource: str,
        writes: Sequence[str],
        reads: Sequence[str] = (),
    ) -> None:
        self.resource = resource
        self.writes = tuple(writes)
        self.reads = tuple(reads)

    def __call__(self, run: RunResult) -> List[str]:
        return [
            "conflicting access: " + message
            for message in check_mutual_exclusion(
                run.trace, self.resource,
                exclusive_ops=self.writes, shared_ops=self.reads,
            )
        ]

    def __repr__(self) -> str:
        return "ConflictingAccessChecker({!r}, writes={!r}, reads={!r})".format(
            self.resource, self.writes, self.reads
        )


class LostWakeupChecker:
    """Flags processes parked forever whose block the wait-for graph cannot
    explain — the missed-signal signature.

    A run that ends with blocked survivors is either a genuine deadlock
    (what the waiter needs is held by another blocked process, a cycle, or
    a dead process — the wait-for graph has an edge out of the waiter) or a
    *lost wakeup*: nobody holds what it waits for, yet wake-capable traffic
    (:data:`WAKE_KINDS`) on that object shows the signal existed and landed
    nowhere — dropped, misrouted, or fired before the waiter parked.  A
    blocked process with neither an explaining edge nor any wake traffic is
    plain starvation (never signalled), which the liveness oracles own, so
    it is not reported here.

    Args:
        ignore: process names to exempt (e.g. a server meant to idle).
    """

    def __init__(self, ignore: Iterable[str] = ()) -> None:
        self.ignore = frozenset(ignore)

    def __call__(self, run: RunResult) -> List[str]:
        messages: List[str] = []
        graph = run.graph
        for name in run.blocked:
            if name in self.ignore:
                continue
            if graph is not None and graph.edges_from(name):
                continue  # held by someone (alive or dead): a deadlock
            parked = run.trace.last(kind="blocked", pname=name)
            if parked is None or not parked.obj:
                continue
            waited_on = parked.obj
            wake_traffic = [
                ev for ev in run.trace
                if ev.kind in WAKE_KINDS
                and ev.pname != name
                and (waited_on in ev.obj or (ev.obj and ev.obj in waited_on))
            ]
            if wake_traffic:
                last = wake_traffic[-1]
                messages.append(
                    "lost wakeup: {} parked on {!r} (seq {}) with no holder "
                    "to wait out, but {} wake-capable event(s) on it exist "
                    "(last: seq {} {} by {})".format(
                        name, waited_on, parked.seq, len(wake_traffic),
                        last.seq, last.kind, last.pname,
                    )
                )
        return messages

    def __repr__(self) -> str:
        return "LostWakeupChecker(ignore={!r})".format(sorted(self.ignore))


def exclusion_oracle(obj: str) -> Checker:
    """A mutual-exclusion checker that survives restarts.

    Holders bracket their pass through region ``obj`` with
    ``log("cs", obj, "enter")`` and then ``"exit"`` (or ``"abort"``, when
    fencing themselves out).  The oracle scans the trace once keeping the
    set of *open* intervals keyed by pid; a second concurrent open is a
    violation.  A process that dies inside the region never logs its exit —
    its ``killed``/``failed`` event closes the interval instead (the
    corpse is no longer *in* the region; whether its possession was safely
    reclaimed is exactly what the overlap check then verifies against the
    next entrant).
    """

    def check(run: RunResult) -> List[str]:
        open_by_pid: Dict[int, str] = {}
        messages: List[str] = []
        for ev in run.trace:
            if ev.kind in ("killed", "failed"):
                for pid in [
                    pid for pid, name in open_by_pid.items()
                    if pid == ev.pid or name == ev.obj
                ]:
                    del open_by_pid[pid]
                continue
            if ev.kind != "cs" or ev.obj != obj:
                continue
            if ev.detail == "enter":
                if open_by_pid and ev.pid not in open_by_pid:
                    inside = ", ".join(sorted(open_by_pid.values()))
                    messages.append(
                        "{} entered {} while {} inside".format(
                            ev.pname, obj, inside
                        )
                    )
                open_by_pid[ev.pid] = ev.pname
            elif ev.detail in ("exit", "abort"):
                open_by_pid.pop(ev.pid, None)
        return messages

    return check
