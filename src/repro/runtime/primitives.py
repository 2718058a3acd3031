"""Low-level synchronization primitives (substrate S2).

These are the Dijkstra-era building blocks every higher mechanism in the
library is compiled down to: counting semaphores with an explicit wait queue,
a mutex with holder tracking, and a broadcast event.

Two properties matter for the reproduction:

* **FIFO wakeup.**  The paper's analysis of path expressions assumes "the
  selection operator always chooses the process that has been waiting
  longest" (§5.1).  Our semaphores grant permits in strict arrival order by
  default, which realizes that assumption.  Experiment E9 ablates it via the
  ``wake_policy`` knob (``"fifo"``, ``"lifo"``, ``"random"``).
* **Direct handoff.**  ``V`` on a semaphore with waiters transfers the permit
  straight to the woken process instead of incrementing the counter, so a
  late-arriving process can never barge past a queued one.

Crash semantics (see DESIGN.md "Fault model"):

* A process killed while *waiting* is dequeued — a later ``V``/``release``
  never targets a corpse.
* A :class:`Mutex` holder that dies releases the lock to the next waiter
  automatically (robust-mutex semantics): the mutex is **fault-containing**.
* A counting :class:`Semaphore` has no intrinsic ownership, so a permit held
  by a dead process is *lost* by default and survivors deadlock — with the
  dead holder named in the wait-for graph.  Opt-in ``crash_release=True``
  enables lock-style ownership tracking (each un-V'd ``P`` is returned on
  death); only sound when the acquiring process is the one that releases,
  i.e. *not* for token-passing protocols.

Waits here are untimed: Bloom's constraints are exclusion and priority, not
deadlines.  A bounded wait is a channel's ``receive(timeout=...)``.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

from .errors import IllegalOperationError
from .process import SimProcess
from .scheduler import Scheduler


class Semaphore:
    """A counting semaphore with configurable wake order.

    Args:
        sched: owning scheduler.
        initial: initial permit count (>= 0).
        name: trace label.
        wake_policy: ``"fifo"`` (default, longest-waiting first), ``"lifo"``,
            or ``"random"`` (seeded by ``seed``).
        crash_release: return un-V'd permits when their acquirer dies
            (lock-style usage only; see module docstring).
    """

    def __init__(
        self,
        sched: Scheduler,
        initial: int = 0,
        name: str = "sem",
        wake_policy: str = "fifo",
        seed: int = 0,
        crash_release: bool = False,
    ) -> None:
        if initial < 0:
            raise ValueError("semaphore initial value must be >= 0")
        if wake_policy not in ("fifo", "lifo", "random"):
            raise ValueError("unknown wake policy {!r}".format(wake_policy))
        self._sched = sched
        self._value = initial
        self.name = name
        self._label = "semaphore {}".format(name)
        self._wait_key = ("sem_wait", id(self))
        self._hold_key = ("sem_hold", id(self))
        self._grant_key = ("sem_grant", id(self))
        self._wake_policy = wake_policy
        self._rng = random.Random(seed)
        self._crash_release = crash_release
        self._waiters: List[SimProcess] = []

    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """Current permit count (0 while processes wait)."""
        return self._value

    @property
    def waiters(self) -> int:
        """Number of processes blocked in :meth:`p`."""
        return len(self._waiters)

    # ------------------------------------------------------------------
    def p(self) -> Generator:
        """Dijkstra's P (wait/acquire).  ``yield from sem.p()``."""
        yield from self._sched.checkpoint()
        me = self._sched.current
        if self._value > 0 and not self._waiters:
            self._value -= 1
            self._sched.log("sem_p", self.name, self._value)
            self._note_acquired(me)
            return
        self._waiters.append(me)
        self._sched.probe("semaphore", self._label, len(self._waiters))
        self._sched.register_cleanup(self._wait_key, self._on_waiter_death)
        try:
            yield from self._sched.park(
                "P({})".format(self.name), self.name,
                resource=self._label,
            )
        finally:
            self._sched.unregister_cleanup(self._wait_key, me)
            self._sched.unregister_cleanup(self._grant_key, me)
        # Permit was handed to us directly by V (and recorded then).
        self._sched.log("sem_p", self.name, "handoff")

    # Alias matching the threading module vocabulary.
    acquire = p

    def v(self) -> None:
        """Dijkstra's V (signal/release).  Non-blocking."""
        self._note_released()
        if self._waiters:
            proc = self._pick_waiter()
            self._sched.log("sem_v", self.name, "wake:{}".format(proc.name))
            self._grant_to(proc)
            self._sched.unpark(proc)
        else:
            self._value += 1
            self._sched.log("sem_v", self.name, self._value)

    release = v

    def try_p(self) -> bool:
        """Non-blocking P: take a permit if immediately available."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            self._sched.log("sem_p", self.name, self._value)
            self._note_acquired(self._sched.current)
            return True
        return False

    def _pick_waiter(self) -> SimProcess:
        if self._wake_policy == "fifo":
            proc = self._waiters.pop(0)
        elif self._wake_policy == "lifo":
            proc = self._waiters.pop()
        else:
            proc = self._waiters.pop(self._rng.randrange(len(self._waiters)))
        self._sched.probe("semaphore", self._label, len(self._waiters))
        return proc

    # ------------------------------------------------------------------
    # Crash-semantics bookkeeping
    # ------------------------------------------------------------------
    def _note_acquired(self, proc: Optional[SimProcess]) -> None:
        if proc is None:
            return
        self._sched.note_hold(self._label, proc)
        if self._crash_release:
            self._sched.register_cleanup(
                self._hold_key, self._on_holder_death, proc=proc
            )

    def _note_released(self) -> None:
        # Token-passing V-ers never P'd this semaphore: attribute the
        # release to the longest-standing holder instead.
        self._sched.note_release(self._label, fallback_oldest=True)
        if self._crash_release:
            self._sched.unregister_cleanup(self._hold_key)

    def _grant_to(self, proc: SimProcess) -> None:
        """Record a direct handoff *at V time*, so a grantee killed before
        it ever resumes still shows as the permit holder.

        The handoff window (granted but not yet resumed) is scheduler
        machinery, not user code, so a death inside it returns the permit
        *regardless* of ``crash_release`` — otherwise every V would gamble
        the permit on its grantee surviving one more step."""
        self._note_acquired(proc)
        self._sched.register_cleanup(
            self._grant_key, self._on_grantee_death, proc=proc
        )

    def _on_grantee_death(self, proc: SimProcess) -> None:
        """The in-flight permit of a grantee that died before resuming is
        re-granted (or banked) instead of vanishing with the corpse."""
        self._sched.note_release(self._label, proc=proc)
        if self._crash_release:
            # The hold cleanup would return this same permit again.
            self._sched.unregister_cleanup(self._hold_key, proc)
        self._sched.log(
            "sem_v", self.name,
            "handoff_return:{}".format(proc.name), proc=proc,
        )
        if self._waiters:
            nxt = self._pick_waiter()
            self._grant_to(nxt)
            self._sched.unpark(nxt)
        else:
            self._value += 1

    def _discard_waiter(self, proc: SimProcess) -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)
            self._sched.probe("semaphore", self._label, len(self._waiters))

    def _on_waiter_death(self, proc: SimProcess) -> None:
        self._discard_waiter(proc)

    def _on_holder_death(self, proc: SimProcess) -> None:
        self._sched.note_release(self._label, proc=proc)
        self._sched.log(
            "sem_v", self.name, "crash_release:{}".format(proc.name), proc=proc
        )
        if self._waiters:
            nxt = self._pick_waiter()
            self._grant_to(nxt)
            self._sched.unpark(nxt)
        else:
            self._value += 1

    # ------------------------------------------------------------------
    # Recovery hooks (lease reclamation / graceful degradation)
    # ------------------------------------------------------------------
    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation: return every permit still attributed to the
        dead ``proc``.  This is what makes a *raw* semaphore recoverable —
        without ``crash_release`` a lost permit normally dies with its
        holder; under lease management the supervisor revokes it and the
        next waiter is granted (or the counter is restored)."""
        count = self._sched.hold_count(self._label, proc)
        if count == 0:
            if self._discard_waiter_if(proc):
                return "dequeued"
            return None
        for __ in range(count):
            self._sched.note_release(self._label, proc=proc)
            self._sched.log(
                "sem_v", self.name,
                "reclaim:{}".format(proc.name), proc=proc,
            )
            if self._waiters:
                nxt = self._pick_waiter()
                self._grant_to(nxt)
                self._sched.unpark(nxt)
            else:
                self._value += 1
        self._discard_waiter_if(proc)
        return "released {} permit{}".format(count, "" if count == 1 else "s")

    def _discard_waiter_if(self, proc: SimProcess) -> bool:
        if proc in self._waiters:
            self._discard_waiter(proc)
            return True
        return False

    def degrade(self) -> Optional[str]:
        """Graceful degradation: fall back to FIFO wakeup.  Arrival order
        needs no cross-crash bookkeeping; permit exclusion (the counter) is
        untouched."""
        if self._wake_policy == "fifo":
            return None
        old = self._wake_policy
        self._wake_policy = "fifo"
        return "wake policy {} -> fifo".format(old)


class Mutex:
    """A non-reentrant binary lock with holder tracking.

    Unlike a plain ``Semaphore(initial=1)``, a mutex knows its holder and
    refuses release by anyone else — protocol violations surface as
    :class:`IllegalOperationError` instead of silent corruption.  The same
    ownership makes it *robust*: a holder that dies releases the lock to the
    next waiter automatically (logged as ``crash_release``), so one crash
    never wedges the survivors.
    """

    def __init__(self, sched: Scheduler, name: str = "mutex") -> None:
        self._sched = sched
        self.name = name
        self._label = "mutex {}".format(name)
        self._wait_key = ("mutex_wait", id(self))
        self._hold_key = ("mutex_hold", id(self))
        self._holder: Optional[SimProcess] = None
        self._waiters: List[SimProcess] = []

    @property
    def held(self) -> bool:
        """True while some process holds the lock."""
        return self._holder is not None

    @property
    def holder_name(self) -> Optional[str]:
        """Name of the holding process, or ``None``."""
        return self._holder.name if self._holder else None

    def acquire(self) -> Generator:
        """Block until the lock is free, then take it."""
        yield from self._sched.checkpoint()
        me = self._sched.current
        if self._holder is me:
            raise IllegalOperationError(
                "{} attempted reentrant acquire of {}".format(me.name, self.name)
            )
        if self._holder is None and not self._waiters:
            self._take(me)
            self._sched.log("acquire", self.name)
            return
        self._waiters.append(me)
        self._sched.probe("mutex", self._label, len(self._waiters))
        self._sched.register_cleanup(self._wait_key, self._on_waiter_death)
        try:
            yield from self._sched.park(
                "lock({})".format(self.name), self.name,
                resource=self._label,
            )
        finally:
            self._sched.unregister_cleanup(self._wait_key, me)
        # Ownership was handed to us by release() (and recorded then).
        self._sched.log("acquire", self.name, "handoff")

    def release(self) -> None:
        """Release the lock; hands it directly to the longest waiter."""
        me = self._sched.current
        if self._holder is not me:
            raise IllegalOperationError(
                "{} released {} held by {}".format(
                    me.name if me else "<sched>", self.name, self.holder_name
                )
            )
        self._sched.unregister_cleanup(self._hold_key, me)
        self._sched.note_release(self._label, me)
        if self._waiters:
            nxt = self._waiters.pop(0)
            self._sched.probe("mutex", self._label, len(self._waiters))
            self._take(nxt)
            self._sched.log("release", self.name, "handoff:{}".format(nxt.name))
            self._sched.unpark(nxt)
        else:
            self._holder = None
            self._sched.log("release", self.name)

    # ------------------------------------------------------------------
    def _take(self, proc: SimProcess) -> None:
        self._holder = proc
        self._sched.note_hold(self._label, proc)
        self._sched.register_cleanup(
            self._hold_key, self._on_holder_death, proc=proc
        )

    def _discard_waiter(self, proc: SimProcess) -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)
            self._sched.probe("mutex", self._label, len(self._waiters))

    def _on_waiter_death(self, proc: SimProcess) -> None:
        self._discard_waiter(proc)

    def _on_holder_death(self, proc: SimProcess) -> None:
        if self._holder is not proc:
            return
        self._sched.note_release(self._label, proc)
        if self._waiters:
            nxt = self._waiters.pop(0)
            self._sched.probe("mutex", self._label, len(self._waiters))
            self._take(nxt)
            self._sched.log(
                "release", self.name,
                "crash_release:{}".format(nxt.name), proc=proc,
            )
            self._sched.unpark(nxt)
        else:
            self._holder = None
            self._sched.log("release", self.name, "crash_release", proc=proc)

    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation.  The mutex is already robust (its holder-death
        cleanup hands the lock over), so this is a defensive sweep: release
        if the corpse somehow still holds, dequeue it if it still waits."""
        if self._holder is proc:
            self._on_holder_death(proc)
            return "released"
        if proc in self._waiters:
            self._discard_waiter(proc)
            return "dequeued"
        return None


class BroadcastEvent:
    """A one-shot gate: processes wait until some process sets it.

    Once set, the event stays set and :meth:`wait` returns immediately.
    A waiter that dies is dequeued.
    """

    def __init__(self, sched: Scheduler, name: str = "event") -> None:
        self._sched = sched
        self.name = name
        self._label = "event {}".format(name)
        self._wait_key = ("event_wait", id(self))
        self._set = False
        self._waiters: List[SimProcess] = []

    @property
    def is_set(self) -> bool:
        """True once :meth:`set` has been called."""
        return self._set

    def wait(self) -> Generator:
        """Block until the event is set (immediate if already set)."""
        yield from self._sched.checkpoint()
        if self._set:
            return
        me = self._sched.current
        self._waiters.append(me)
        self._sched.probe("event", self._label, len(self._waiters))
        self._sched.register_cleanup(self._wait_key, self._discard_waiter)
        try:
            yield from self._sched.park(
                "event({})".format(self.name), self.name,
                resource=self._label,
            )
        finally:
            self._sched.unregister_cleanup(self._wait_key, me)

    def set(self) -> None:
        """Set the event, waking every waiter in FIFO order."""
        if self._set:
            return
        self._set = True
        self._sched.log("event_set", self.name, len(self._waiters))
        waiters, self._waiters = self._waiters, []
        self._sched.probe("event", self._label, 0)
        for proc in waiters:
            self._sched.unpark(proc)

    def _discard_waiter(self, proc: SimProcess) -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)
            self._sched.probe("event", self._label, len(self._waiters))
