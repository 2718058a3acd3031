"""Scheduling policies.

A policy answers one question: *given the runnable processes, which runs
next?*  All nondeterminism in a run flows through this single choice point,
which is what lets the exploration engine (:mod:`repro.explore.engine`)
enumerate interleavings and lets experiments script the exact schedules the
paper describes (e.g. the footnote-3 anomaly, experiment E5).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .process import SimProcess


class SchedulingPolicy:
    """Interface: choose the index of the next process to run."""

    def choose(self, ready: Sequence[SimProcess]) -> int:
        """Return an index into ``ready`` (never empty)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any internal state before a fresh run (optional)."""


class FIFOPolicy(SchedulingPolicy):
    """Round-robin: always run the process that has been ready longest.

    This is the default; combined with FIFO wait queues in every primitive it
    yields fully deterministic runs.
    """

    def choose(self, ready: Sequence[SimProcess]) -> int:
        return 0


class RandomPolicy(SchedulingPolicy):
    """Seeded uniform choice — deterministic for a fixed seed, but explores
    many interleavings across seeds.  Used by the property-based tests."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, ready: Sequence[SimProcess]) -> int:
        return self._rng.randrange(len(ready))

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class ScriptedPolicy(SchedulingPolicy):
    """Replay a fixed decision sequence; record branching for the explorer.

    Each decision is an index into the ready list at that step.  Once the
    script is exhausted the policy defaults to index 0 (FIFO), while
    :attr:`branch_log` records how many alternatives existed at every step so
    a depth-first explorer can backtrack and enumerate siblings.

    Decisions are clamped to the number of ready processes, so a stale script
    never raises.
    """

    def __init__(self, decisions: Optional[Sequence[int]] = None) -> None:
        self.decisions: List[int] = list(decisions or [])
        self.branch_log: List[int] = []
        self.taken: List[int] = []
        self._cursor = 0

    def choose(self, ready: Sequence[SimProcess]) -> int:
        n = len(ready)
        if self._cursor < len(self.decisions):
            pick = min(self.decisions[self._cursor], n - 1)
        else:
            pick = 0
        self._cursor += 1
        self.branch_log.append(n)
        self.taken.append(pick)
        return pick

    def reset(self) -> None:
        self.branch_log = []
        self.taken = []
        self._cursor = 0


class NamedOrderPolicy(SchedulingPolicy):
    """Run processes following a scripted sequence of *names*.

    Each entry in ``order`` names the process that should run for the next
    step.  When the named process is not ready (blocked or finished) the
    entry is skipped; when the script runs out, falls back to FIFO.  This is
    the most readable way to pin down the paper's described interleavings::

        policy = NamedOrderPolicy(["W1", "W1", "R1", "W2", ...])
    """

    def __init__(self, order: Sequence[str]) -> None:
        self.order: List[str] = list(order)
        self._cursor = 0

    def choose(self, ready: Sequence[SimProcess]) -> int:
        while self._cursor < len(self.order):
            wanted = self.order[self._cursor]
            for index, proc in enumerate(ready):
                if proc.name == wanted:
                    self._cursor += 1
                    return index
            # Named process not ready: drop the entry and try the next one.
            self._cursor += 1
        return 0

    def reset(self) -> None:
        self._cursor = 0


class PriorityPolicy(SchedulingPolicy):
    """Pick the ready process with the highest static priority.

    Priorities are assigned per process name; unnamed processes default to
    priority 0.  Ties break in FIFO order.
    """

    def __init__(self, priorities: Optional[dict] = None, default: int = 0) -> None:
        self.priorities = dict(priorities or {})
        self.default = default

    def choose(self, ready: Sequence[SimProcess]) -> int:
        best_index = 0
        best_prio = self.priorities.get(ready[0].name, self.default)
        for index in range(1, len(ready)):
            prio = self.priorities.get(ready[index].name, self.default)
            if prio > best_prio:
                best_index, best_prio = index, prio
        return best_index
