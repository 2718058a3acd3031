"""Pluggable run checkers: race (conflicting-access) and lost-wakeup
detection over explored schedules.

A ``Checker`` is anything callable as ``check(run) -> List[str]`` (empty =
ok), the same contract the trace oracles satisfy — so detectors, oracles,
and ad-hoc lambdas compose freely via :func:`compose_checkers` and plug
into :class:`~repro.explore.engine.ExplorationEngine` and the fault
campaigns' classifiers alike.

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
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..runtime.trace import RunResult
from ..verify.oracles import check_mutual_exclusion

Checker = object  # documented protocol: __call__(RunResult) -> List[str]

#: Event kinds that (re-)enable a waiter on the object they name.  Mechanism
#: vocabulary: semaphore V, condition signal/notify, monitor/serializer
#: possession transfer, channel completion.
WAKE_KINDS = ("v", "signal", "notify", "release", "exit", "leave",
              "unblocked", "op_end")


def compose_checkers(*checkers) -> "Checker":
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


class SplitBrainChecker:
    """Distributed-safety detector: flags runs where the dist layer's
    exclusivity invariants broke — two overlapping quorum-lease holders
    (``no-two-holders-across-partition``) or two ``leader_elected`` events
    in one term (``at-most-one-leader-per-term``).

    A thin composition of the partition oracles
    (:mod:`repro.verify.partition`) into the checker protocol, so split
    brain plugs into :class:`~repro.explore.engine.ExplorationEngine` and
    the fault campaigns' classifiers like any other detector.
    Runs without dist-layer events trivially pass.
    """

    def __call__(self, run: RunResult) -> List[str]:
        from ..verify.partition import (check_at_most_one_leader,
                                        check_lease_exclusion)

        return [
            "split brain: " + message
            for message in (check_lease_exclusion(run)
                            + check_at_most_one_leader(run))
        ]

    def __repr__(self) -> str:
        return "SplitBrainChecker()"


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
