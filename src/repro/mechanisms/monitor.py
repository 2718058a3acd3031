"""Hoare monitors (substrate S3).

Implements the monitor construct of Hoare's "Monitors: An Operating System
Structuring Concept" (CACM 1974), the mechanism evaluated in §5.2 of the
paper, with:

* a FIFO **entry queue**;
* **condition variables** with FIFO queues and Hoare's *priority wait*
  (``wait(priority=p)`` — smallest ``p`` woken first), the feature the disk
  scheduler and alarm clock examples rely on (information type T3);
* **Hoare signal semantics** by default: ``signal`` hands possession of the
  monitor directly to the longest-waiting (or highest-priority) waiter, and
  the signaller is suspended on the *urgent stack*, resuming with priority
  over the entry queue when the monitor next becomes free;
* optional **Mesa semantics** (``signal_semantics="mesa"``): ``signal`` moves
  one waiter to the entry queue and the signaller continues — waiters must
  re-check their predicate in a loop.

Monitor procedures are written as generator functions bracketed by
``yield from mon.enter()`` / ``mon.exit()``; the :meth:`Monitor.procedure`
helper removes the boilerplate.

Crash semantics (DESIGN.md "Fault model"): the monitor is **fault-
containing**.  A dead occupant releases possession to the next rightful
process; dead entry, urgent, or condition waiters are dequeued.  Entry
and condition waits are untimed.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..runtime.errors import IllegalOperationError
from ..runtime.process import SimProcess
from ..runtime.scheduler import Scheduler

HOARE = "hoare"
MESA = "mesa"


class Monitor:
    """A monitor: mutual exclusion plus condition variables.

    Args:
        sched: owning scheduler.
        name: trace label.
        signal_semantics: ``"hoare"`` (default) or ``"mesa"``.
    """

    def __init__(
        self,
        sched: Scheduler,
        name: str = "monitor",
        signal_semantics: str = HOARE,
    ) -> None:
        if signal_semantics not in (HOARE, MESA):
            raise ValueError(
                "unknown signal semantics {!r}".format(signal_semantics)
            )
        self._sched = sched
        self.name = name
        self.signal_semantics = signal_semantics
        self._label = "monitor {}".format(name)
        self._active_key = ("mon_active", id(self))
        self._entry_key = ("mon_entrant", id(self))
        self._urgent_key = ("mon_urgent", id(self))
        self._active: Optional[SimProcess] = None
        self._entry: List[SimProcess] = []
        self._urgent: List[SimProcess] = []  # LIFO stack of signallers
        self._degraded = False  # conditions ignore priority when set

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_name(self) -> Optional[str]:
        """Name of the process currently inside the monitor, if any."""
        return self._active.name if self._active else None

    def _probe_entry(self) -> None:
        self._sched.probe("monitor", "{}.entry".format(self._label),
                          len(self._entry))

    def _probe_urgent(self) -> None:
        self._sched.probe("monitor", "{}.urgent".format(self._label),
                          len(self._urgent))

    def _require_active(self, what: str) -> SimProcess:
        me = self._sched.current
        if me is None or self._active is not me:
            raise IllegalOperationError(
                "{} called outside monitor {} (active={})".format(
                    what, self.name, self.active_name
                )
            )
        return me

    # ------------------------------------------------------------------
    # Possession transfer
    # ------------------------------------------------------------------
    def enter(self) -> Generator:
        """Gain exclusive possession of the monitor (FIFO entry queue)."""
        yield from self._sched.checkpoint()
        me = self._sched.current
        if self._active is me:
            raise IllegalOperationError(
                "{} re-entered monitor {}".format(me.name, self.name)
            )
        if self._active is None and not self._entry and not self._urgent:
            self._set_active(me)
            self._sched.log("enter", self.name)
            return
        self._entry.append(me)
        self._probe_entry()
        self._sched.register_cleanup(self._entry_key, self._on_entrant_death)
        try:
            yield from self._sched.park(
                "enter({})".format(self.name), self.name,
                resource=self._label,
            )
        finally:
            self._sched.unregister_cleanup(self._entry_key, me)
        self._sched.log("enter", self.name, "handoff")

    def exit(self) -> None:
        """Release the monitor; wakes the urgent stack first, then entry."""
        me = self._require_active("exit")
        self._sched.log("leave", self.name)
        self._release_possession(me)
        self._pass_possession()

    # ------------------------------------------------------------------
    # Possession bookkeeping (crash semantics live here)
    # ------------------------------------------------------------------
    def _set_active(self, proc: SimProcess) -> None:
        self._active = proc
        self._sched.note_hold(self._label, proc)
        self._sched.register_cleanup(
            self._active_key, self._on_active_death, proc=proc
        )

    def _release_possession(self, proc: SimProcess) -> None:
        self._sched.unregister_cleanup(self._active_key, proc)
        self._sched.note_release(self._label, proc)
        self._active = None

    def _pass_possession(self) -> None:
        """Hand the monitor to the next rightful process, if any."""
        if self._urgent:
            nxt = self._urgent.pop()  # LIFO, per Hoare
            self._probe_urgent()
        elif self._entry:
            nxt = self._entry.pop(0)
            self._probe_entry()
        else:
            return
        self._set_active(nxt)
        self._sched.unpark(nxt)

    def _discard_entry(self, proc: SimProcess) -> None:
        if proc in self._entry:
            self._entry.remove(proc)
            self._probe_entry()

    def _on_entrant_death(self, proc: SimProcess) -> None:
        self._discard_entry(proc)

    def _on_urgent_death(self, proc: SimProcess) -> None:
        if proc in self._urgent:
            self._urgent.remove(proc)
            self._probe_urgent()

    def _on_active_death(self, proc: SimProcess) -> None:
        """A dead occupant releases the monitor — survivors proceed."""
        if self._active is not proc:
            return
        self._sched.log("leave", self.name, "crash_release", proc=proc)
        self._sched.note_release(self._label, proc)
        self._active = None
        self._pass_possession()

    # ------------------------------------------------------------------
    # Recovery hooks (lease reclamation / graceful degradation)
    # ------------------------------------------------------------------
    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation.  The monitor is already fault-containing (a
        dead occupant's cleanup releases possession), so this is a
        defensive sweep for the supervisor's uniform reclaim pass."""
        if self._active is proc:
            self._on_active_death(proc)
            return "released"
        if proc in self._entry:
            self._discard_entry(proc)
            return "dequeued"
        if proc in self._urgent:
            self._on_urgent_death(proc)
            return "dequeued"
        return None

    def degrade(self) -> Optional[str]:
        """Graceful degradation: condition queues stop honouring priority
        waits and serve strictly FIFO.  Mutual exclusion (possession) is
        untouched — only the paper's *priority* constraints are relaxed."""
        if self._degraded:
            return None
        self._degraded = True
        return "priority waits -> fifo"

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def condition(self, name: str) -> "Condition":
        """Create a condition variable attached to this monitor."""
        return Condition(self, name)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def procedure(self, body: Generator) -> Generator:
        """Run ``body`` (a generator) as a monitor procedure: enter, delegate,
        exit — with exit guaranteed even if the body raises."""
        yield from self.enter()
        try:
            result = yield from body
        finally:
            if self._active is self._sched.current:
                self.exit()
        return result


class Condition:
    """A condition variable inside a :class:`Monitor`.

    Waiters queue in FIFO order, or by ascending ``priority`` when the
    priority-wait form is used (Hoare §"priority wait"; ties break FIFO).
    """

    def __init__(self, monitor: Monitor, name: str) -> None:
        self._monitor = monitor
        self._sched = monitor._sched
        self.name = name
        self._label = "condition {}.{}".format(monitor.name, name)
        self._wait_key = ("cond_wait", id(self))
        # Each entry: (priority, enqueue_seq, process).
        self._waiters: List[Tuple[int, int, SimProcess]] = []
        self._counter = 0

    def _probe(self) -> None:
        self._sched.probe("condition", self._label, len(self._waiters))

    # ------------------------------------------------------------------
    @property
    def queue(self) -> bool:
        """Hoare's ``condition.queue``: True when at least one process waits.

        This is the canonical way a monitor solution reads synchronization
        state (information type T4) about *waiting* processes.
        """
        return bool(self._waiters)

    def __len__(self) -> int:
        return len(self._waiters)

    def minrank(self) -> Optional[int]:
        """Priority of the next process to be woken (Hoare's ``minrank``),
        or ``None`` when nobody waits.  Used by the alarm-clock solution."""
        if not self._waiters:
            return None
        return min(self._waiters)[0]

    # ------------------------------------------------------------------
    def wait(self, priority: int = 0) -> Generator:
        """Release the monitor and wait on this condition.

        On Hoare semantics the waiter owns the monitor again when ``wait``
        returns (handed over by the signaller); on Mesa semantics the waiter
        re-entered through the entry queue and must re-check its predicate.
        """
        me = self._monitor._require_active("wait({})".format(self.name))
        self._counter += 1
        if self._monitor._degraded:
            priority = 0  # degraded mode: arrival order only
        self._waiters.append((priority, self._counter, me))
        self._waiters.sort(key=lambda item: (item[0], item[1]))
        self._probe()
        self._sched.log("wait", self.name, priority)
        self._monitor._release_possession(me)
        self._monitor._pass_possession()
        self._sched.register_cleanup(self._wait_key, self._on_waiter_death)
        try:
            yield from self._sched.park(
                "wait({}.{})".format(self._monitor.name, self.name), self.name,
                resource=self._label,
            )
        finally:
            self._sched.unregister_cleanup(self._wait_key, me)

    def _discard_waiter(self, proc: SimProcess) -> None:
        for index, (__, __, waiter) in enumerate(self._waiters):
            if waiter is proc:
                del self._waiters[index]
                self._probe()
                return

    def _on_waiter_death(self, proc: SimProcess) -> None:
        """A dead waiter is dequeued wherever it sits — the condition queue,
        or the entry queue a Mesa signal moved it to."""
        self._discard_waiter(proc)
        self._monitor._discard_entry(proc)

    def signal(self) -> Generator:
        """Wake the first waiter (by priority, then FIFO); no-op if none.

        Hoare semantics: possession passes to the woken process immediately
        and the signaller blocks on the urgent stack — so this is a
        *generator* and must be invoked as ``yield from cond.signal()``.
        Mesa semantics: the waiter is moved to the entry queue and the
        signaller keeps running (still invoked with ``yield from`` for a
        uniform call shape).
        """
        me = self._monitor._require_active("signal({})".format(self.name))
        if not self._waiters:
            self._sched.log("signal", self.name, "empty")
            return
        __, __, waiter = self._waiters.pop(0)
        self._probe()
        self._sched.log("signal", self.name, "wake:{}".format(waiter.name))
        if self._monitor.signal_semantics == MESA:
            # Signal-and-continue: waiter re-queues for entry.
            self._monitor._entry.append(waiter)
            self._monitor._probe_entry()
            return
        # Hoare signal-and-urgent-wait: direct possession handoff.
        self._monitor._release_possession(me)
        self._monitor._urgent.append(me)
        self._monitor._probe_urgent()
        self._monitor._set_active(waiter)
        self._sched.unpark(waiter)
        self._sched.register_cleanup(
            self._monitor._urgent_key, self._monitor._on_urgent_death
        )
        try:
            yield from self._sched.park(
                "urgent({})".format(self._monitor.name), self._monitor.name,
                resource=self._monitor._label,
            )
        finally:
            self._sched.unregister_cleanup(self._monitor._urgent_key, me)

    def signal_and_exit(self) -> None:
        """Hoare's optimized form: signal then immediately leave the monitor
        (the signaller does not return to the monitor).  Non-blocking."""
        me = self._monitor._require_active(
            "signal_and_exit({})".format(self.name)
        )
        self._sched.log("signal", self.name, "and_exit")
        self._monitor._release_possession(me)
        if self._waiters:
            __, __, waiter = self._waiters.pop(0)
            self._probe()
            self._monitor._set_active(waiter)
            self._sched.unpark(waiter)
        else:
            self._monitor._pass_possession()

    def broadcast(self) -> Generator:
        """Wake every waiter (Mesa idiom).  Under Hoare semantics this
        signals repeatedly, handing possession around until the queue drains."""
        while self._waiters:
            yield from self.signal()
