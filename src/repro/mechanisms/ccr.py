"""Conditional critical regions (Brinch Hansen / Hoare, ~1972).

The paper's reference [6] (Brinch Hansen, *Operating System Principles*)
popularized the construct this module implements::

    region v when B do S

A process enters the region when no other process is inside **and** the
boolean guard ``B`` holds; guards are re-evaluated automatically whenever
the region is released (no signalling).  CCRs sit historically between
semaphores and monitors, and extending the paper's evaluation to them
(experiment E11) shows exactly where they land:

* local state (T5) and history-as-state (T6): **direct** — that is what the
  ``when`` clause is for;
* request time (T2): not expressible in a guard; only recoverable by a
  hand-rolled ticket protocol (indirect);
* priority constraints: guards can encode them only through extra shared
  variables (indirect) — the same weakness the paper's methodology exposes
  in base path expressions.

Usage::

    cell = SharedRegion(sched, {"count": 0}, name="v")
    yield from cell.enter(lambda v: v["count"] > 0)   # region v when ...
    cell.vars["count"] -= 1
    cell.leave()
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..runtime.errors import IllegalOperationError
from ..runtime.process import SimProcess
from ..runtime.scheduler import Scheduler

Guard = Optional[Callable[[Dict[str, Any]], bool]]


class SharedRegion:
    """A shared variable bundle with ``region … when …`` access.

    Args:
        sched: owning scheduler.
        variables: initial contents of the shared variable (a dict the
            guard receives and region bodies may mutate).
        name: trace label.

    Waiters are served in arrival order among those whose guards hold when
    the region frees up (FIFO re-evaluation, the common fair semantics).
    """

    def __init__(
        self,
        sched: Scheduler,
        variables: Optional[Dict[str, Any]] = None,
        name: str = "region",
    ) -> None:
        self._sched = sched
        self.name = name
        self.vars: Dict[str, Any] = dict(variables or {})
        self._label = "region {}".format(name)
        self._occ_key = ("region_occ", id(self))
        self._wait_key = ("region_wait", id(self))
        self._occupant: Optional[SimProcess] = None
        self._arrivals = 0
        # (arrival, proc, guard)
        self._waiters: List[Tuple[int, SimProcess, Guard]] = []

    # ------------------------------------------------------------------
    @property
    def occupied(self) -> bool:
        """True while some process is inside the region."""
        return self._occupant is not None

    @property
    def waiting(self) -> int:
        """Number of processes blocked on entry."""
        return len(self._waiters)

    def _guard_holds(self, guard: Guard) -> bool:
        return guard is None or bool(guard(self.vars))

    # ------------------------------------------------------------------
    def enter(self, guard: Guard = None) -> Generator:
        """``region v when guard(v) do …`` — blocks until free and true.

        Guards must be side-effect-free; they are re-evaluated every time
        the region is released.
        """
        yield from self._sched.checkpoint()
        me = self._sched.current
        if self._occupant is me:
            raise IllegalOperationError(
                "{} re-entered region {}".format(me.name, self.name)
            )
        self._arrivals += 1
        self._waiters.append((self._arrivals, me, guard))
        self._waiters.sort(key=lambda item: item[0])
        self._sched.probe("region", self._label, len(self._waiters))
        self._sched.register_cleanup(self._wait_key, self._on_waiter_death)
        if self._occupant is None:
            winner = self._pick_eligible()
            if winner is me:
                self._sched.unregister_cleanup(self._wait_key, me)
                self._take(me)
                self._sched.log("enter", self.name)
                return
            if winner is not None:
                # An earlier-arrived eligible waiter outranks us; hand the
                # region to it and park ourselves.
                self._take(winner)
                self._sched.unpark(winner)
        try:
            yield from self._sched.park(
                "region({})".format(self.name), self.name,
                resource=self._label,
            )
        except BaseException:
            # Closed while waiting (the run ended): leave no waiter behind,
            # since its guard may close over the solution.
            self._on_waiter_death(me)
            raise
        finally:
            self._sched.unregister_cleanup(self._wait_key, me)
        # Woken as the region's occupant: the guard held at dispatch time,
        # and occupancy was assigned before anyone else could run, so no
        # other region body can have invalidated it (vars are only mutated
        # inside regions).
        self._sched.log("enter", self.name, "handoff")

    def leave(self) -> None:
        """Exit the region; wakes the earliest waiter whose guard holds."""
        me = self._sched.current
        if self._occupant is not me:
            raise IllegalOperationError(
                "{} left region {} occupied by {}".format(
                    me.name if me else "<sched>",
                    self.name,
                    self._occupant.name if self._occupant else None,
                )
            )
        self._sched.log("leave", self.name)
        self._release(me)
        self._dispatch()

    def _pick_eligible(self) -> Optional[SimProcess]:
        """Remove and return the earliest-arrived waiter whose guard holds
        (``None`` when nobody is eligible).  Dead waiters are discarded on
        the way (their crash cleanup normally removes them already)."""
        for position, (__, proc, guard) in enumerate(list(self._waiters)):
            if not proc.alive:
                continue
            if self._guard_holds(guard):
                self._waiters.remove((__, proc, guard))
                self._sched.probe("region", self._label, len(self._waiters))
                return proc
        return None

    def _dispatch(self) -> None:
        winner = self._pick_eligible()
        if winner is not None:
            self._take(winner)
            self._sched.unpark(winner)

    # ------------------------------------------------------------------
    # Occupancy bookkeeping (crash semantics live here)
    # ------------------------------------------------------------------
    def _take(self, proc: SimProcess) -> None:
        """Assign occupancy (possibly to a still-parked waiter: handoff),
        recording the hold and a crash cleanup so a dead occupant can never
        wedge the region."""
        self._occupant = proc
        self._sched.note_hold(self._label, proc)
        self._sched.register_cleanup(
            self._occ_key, self._on_occupant_death, proc=proc
        )

    def _release(self, proc: SimProcess) -> None:
        self._sched.unregister_cleanup(self._occ_key, proc)
        self._sched.note_release(self._label, proc)
        self._occupant = None

    def _on_waiter_death(self, proc: SimProcess) -> None:
        """A dead entry waiter is dequeued — no dispatch ever targets it."""
        for entry in self._waiters:
            if entry[1] is proc:
                self._waiters.remove(entry)
                self._sched.probe("region", self._label, len(self._waiters))
                return

    def _on_occupant_death(self, proc: SimProcess) -> None:
        """A dead occupant releases the region — survivors re-evaluate
        guards and proceed (the region is fault-containing)."""
        if self._occupant is not proc:
            return
        self._sched.log("leave", self.name, "crash_release", proc=proc)
        self._sched.note_release(self._label, proc)
        self._occupant = None
        self._dispatch()

    # ------------------------------------------------------------------
    # Recovery hook (lease reclamation)
    # ------------------------------------------------------------------
    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation: defensive sweep mirroring the crash cleanups
        (release a dead occupant, dequeue a dead waiter)."""
        if self._occupant is proc:
            self._on_occupant_death(proc)
            return "released"
        if any(entry[1] is proc for entry in self._waiters):
            self._on_waiter_death(proc)
            return "dequeued"
        return None

    # ------------------------------------------------------------------
    def region(self, guard: Guard, body: Callable[[Dict[str, Any]], Any]) -> Generator:
        """One-shot form: enter, run ``body(vars)``, leave.

        ``body`` is a plain function (regions should be short); its return
        value is passed through.
        """
        yield from self.enter(guard)
        try:
            result = body(self.vars)
        finally:
            self.leave()
        return result
