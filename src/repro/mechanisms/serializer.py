"""Serializers (substrate S4).

Implements the serializer construct of Atkinson & Hewitt, "Synchronization
and Proof Techniques for Serializers" (IEEE TSE 1979) — the third mechanism
evaluated in §5.2 of the paper.  The construct's distinguishing features, all
reproduced here:

* **Possession** — at most one process executes serializer code at a time,
  like a monitor, but possession is released *automatically* at every wait
  point (no explicit ``signal``).
* **Queues with guarantees** — ``enqueue(q, guarantee)`` releases possession
  and parks the caller in FIFO queue ``q``; it resumes (with possession) once
  it is at the *head* of its queue and its guarantee predicate evaluates
  true.  Guarantees are re-evaluated automatically whenever possession is
  released: this is the *automatic signalling* that, per the paper, separates
  request-time from request-type information (§5.2).
* **Crowds** — ``join_crowd(c)`` records the caller as *using the resource*
  and releases possession; ``leave_crowd(c)`` re-acquires possession and
  removes the caller.  Crowds hold synchronization-state information (T4)
  without user-maintained counts, and the join/leave pattern is what avoids
  the nested-monitor-call problem (experiment E7).

Dispatch order when possession frees up: processes re-entering from a crowd
first, then queue heads with true guarantees (queues in creation order), then
the entry queue — all FIFO within a class.

Crash semantics (DESIGN.md "Fault model"): the serializer is **fault-
containing**.  A dead possessor releases possession and dispatch continues;
dead entry/queue/rejoin waiters are dequeued; a dead crowd member leaves the
crowd, so guarantees like ``crowd.empty`` become true again.  Entry and
queue waits are untimed.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from ..runtime.errors import IllegalOperationError
from ..runtime.process import SimProcess
from ..runtime.scheduler import Scheduler

Guarantee = Optional[Callable[[], bool]]


class SerializerQueue:
    """A FIFO queue inside a serializer; each waiter carries a guarantee.

    A queue keeps its serializer's scheduler and name, not the serializer:
    the serializer lists its queues, and a back-reference would make every
    serializer a cycle that only the collector frees."""

    def __init__(self, serializer: "Serializer", name: str) -> None:
        self._sched = serializer._sched
        self.name = name
        self._label = "queue {}.{}".format(serializer.name, name)
        self._waiters: List[Tuple[SimProcess, Guarantee]] = []

    def __len__(self) -> int:
        return len(self._waiters)

    def _probe(self) -> None:
        self._sched.probe("queue", self._label, len(self._waiters))

    @property
    def empty(self) -> bool:
        """True when no process waits here (usable inside guarantees)."""
        return not self._waiters

    def head_eligible(self) -> bool:
        """True when the queue head exists and its guarantee holds."""
        if not self._waiters:
            return False
        __, guarantee = self._waiters[0]
        return guarantee is None or bool(guarantee())

    def _push(self, proc: SimProcess, guarantee: Guarantee) -> None:
        self._waiters.append((proc, guarantee))
        self._probe()

    def _pop(self) -> SimProcess:
        proc, __ = self._waiters.pop(0)
        self._probe()
        return proc

    def _discard(self, proc: SimProcess) -> None:
        """Drop ``proc`` wherever it waits (crash dequeue)."""
        for index, (waiter, __) in enumerate(self._waiters):
            if waiter is proc:
                del self._waiters[index]
                self._probe()
                return


class SerializerPriorityQueue(SerializerQueue):
    """A queue ordered by caller-supplied rank instead of arrival.

    §5.2 records that the first serializer version "had essentially been
    created around the readers-writers problems" and that "local variables
    and priority queues had to be added later" for parameter-based problems
    (disk scheduler, alarm clock).  This class is that later addition: pass
    ``priority`` to :meth:`Serializer.enqueue`; the *head* is the waiter
    with the smallest rank (ties break by arrival).
    """

    def __init__(self, serializer: "Serializer", name: str) -> None:
        super().__init__(serializer, name)
        self._arrivals = 0

    def _push(self, proc: SimProcess, guarantee: Guarantee,
              priority: int = 0) -> None:
        self._arrivals += 1
        self._waiters.append((priority, self._arrivals, proc, guarantee))
        self._waiters.sort(key=lambda item: (item[0], item[1]))
        self._probe()

    def _pop(self) -> SimProcess:
        __, __, proc, __ = self._waiters.pop(0)
        self._probe()
        return proc

    def _discard(self, proc: SimProcess) -> None:
        for index, (__, __, waiter, __) in enumerate(self._waiters):
            if waiter is proc:
                del self._waiters[index]
                self._probe()
                return

    def head_eligible(self) -> bool:
        if not self._waiters:
            return False
        __, __, __, guarantee = self._waiters[0]
        return guarantee is None or bool(guarantee())

    def head_priority(self) -> Optional[int]:
        """Rank of the next waiter to be released, or ``None`` if empty."""
        if not self._waiters:
            return None
        return self._waiters[0][0]


class GuaranteeOrderQueue(SerializerQueue):
    """A queue released in *guarantee* order rather than strict FIFO: the
    earliest-arrived waiter whose guarantee holds is eligible, even if a
    waiter ahead of it is still blocked.

    Used for disciplines whose service order is computed dynamically from
    request parameters (the disk elevator), where exactly one waiter's
    guarantee is true at a time.  Like :class:`SerializerPriorityQueue`,
    this is a later-version extension: the original construct's strict-FIFO
    queues cannot reorder by parameter (§5.2's observation that parameter
    handling "had to be added later").
    """

    def head_eligible(self) -> bool:
        return self._find_eligible() is not None

    def _find_eligible(self) -> Optional[int]:
        for index, (__, guarantee) in enumerate(self._waiters):
            if guarantee is None or bool(guarantee()):
                return index
        return None

    def _pop(self) -> SimProcess:
        index = self._find_eligible()
        if index is None:  # pragma: no cover - dispatch checks eligibility
            raise IllegalOperationError("pop from ineligible queue")
        proc, __ = self._waiters.pop(index)
        self._probe()
        return proc


class Crowd:
    """The set of processes currently using the resource.

    A crowd is the serializer's built-in representation of synchronization
    state (information type T4): ``crowd.empty`` replaces the explicit
    occupancy counters a monitor solution must maintain.
    """

    def __init__(self, serializer: "Serializer", name: str) -> None:
        self.name = name
        self._label = "crowd {}.{}".format(serializer.name, name)
        self._members: List[SimProcess] = []

    def __len__(self) -> int:
        return len(self._members)

    @property
    def empty(self) -> bool:
        """True when no process is in the crowd (usable inside guarantees)."""
        return not self._members

    def member_names(self) -> List[str]:
        """Names of current members, in join order."""
        return [p.name for p in self._members]


class Serializer:
    """The serializer construct: automatic-signalling protected access.

    Args:
        sched: owning scheduler.
        name: trace label.
    """

    def __init__(self, sched: Scheduler, name: str = "serializer") -> None:
        self._sched = sched
        self.name = name
        self._label = "serializer {}".format(name)
        self._poss_key = ("ser_poss", id(self))
        self._entry_key = ("ser_entry", id(self))
        self._rejoin_key = ("ser_rejoin", id(self))
        self._possessor: Optional[SimProcess] = None
        self._entry: List[SimProcess] = []
        self._rejoin: List[SimProcess] = []  # leave_crowd waiters (top priority)
        self._queues: List[SerializerQueue] = []
        self._crowds: List[Crowd] = []
        self._degraded = False  # priority queues serve FIFO when set

    # ------------------------------------------------------------------
    # Construction of sub-objects
    # ------------------------------------------------------------------
    def queue(self, name: str) -> SerializerQueue:
        """Declare a queue; earlier-declared queues have dispatch priority."""
        q = SerializerQueue(self, name)
        self._queues.append(q)
        return q

    def priority_queue(self, name: str) -> SerializerPriorityQueue:
        """Declare a rank-ordered queue (the later-version extension §5.2
        mentions; see :class:`SerializerPriorityQueue`)."""
        q = SerializerPriorityQueue(self, name)
        self._queues.append(q)
        return q

    def guarantee_order_queue(self, name: str) -> GuaranteeOrderQueue:
        """Declare a guarantee-order queue (see
        :class:`GuaranteeOrderQueue`)."""
        q = GuaranteeOrderQueue(self, name)
        self._queues.append(q)
        return q

    def crowd(self, name: str) -> Crowd:
        """Declare a crowd."""
        c = Crowd(self, name)
        self._crowds.append(c)
        return c

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def possessor_name(self) -> Optional[str]:
        """Name of the process holding possession, if any."""
        return self._possessor.name if self._possessor else None

    def _probe_entry(self) -> None:
        self._sched.probe("serializer", "{}.entry".format(self._label),
                          len(self._entry))

    def _probe_rejoin(self) -> None:
        self._sched.probe("serializer", "{}.rejoin".format(self._label),
                          len(self._rejoin))

    def _probe_crowd(self, crowd: "Crowd") -> None:
        self._sched.probe("crowd", crowd._label, len(crowd._members))

    def _require_possession(self, what: str) -> SimProcess:
        me = self._sched.current
        if me is None or self._possessor is not me:
            raise IllegalOperationError(
                "{} called without possession of {} (possessor={})".format(
                    what, self.name, self.possessor_name
                )
            )
        return me

    # ------------------------------------------------------------------
    # Possession bookkeeping (crash semantics live here)
    # ------------------------------------------------------------------
    def _set_possessor(self, proc: SimProcess) -> None:
        self._possessor = proc
        self._sched.note_hold(self._label, proc)
        self._sched.register_cleanup(
            self._poss_key, self._on_possessor_death, proc=proc
        )

    def _release_possession(self, proc: SimProcess) -> None:
        self._sched.unregister_cleanup(self._poss_key, proc)
        self._sched.note_release(self._label, proc)
        self._possessor = None

    def _on_possessor_death(self, proc: SimProcess) -> None:
        """A dead possessor releases the serializer — dispatch continues."""
        if self._possessor is not proc:
            return
        self._sched.log("leave", self.name, "crash_release", proc=proc)
        self._sched.note_release(self._label, proc)
        self._possessor = None
        self._dispatch()

    def _on_entrant_death(self, proc: SimProcess) -> None:
        if proc in self._entry:
            self._entry.remove(proc)
            self._probe_entry()

    def _on_rejoin_death(self, proc: SimProcess) -> None:
        if proc in self._rejoin:
            self._rejoin.remove(proc)
            self._probe_rejoin()

    def _on_crowd_death(self, crowd: Crowd, proc: SimProcess) -> None:
        """A dead crowd member leaves the crowd, so guarantees such as
        ``crowd.empty`` can become true again; re-dispatch if idle."""
        if proc not in crowd._members:
            return
        crowd._members.remove(proc)
        self._probe_crowd(crowd)
        self._sched.note_release(crowd._label, proc)
        self._sched.log("leave_crowd", crowd.name, "crash", proc=proc)
        if self._possessor is None:
            self._dispatch()

    # ------------------------------------------------------------------
    # Recovery hooks (lease reclamation / graceful degradation)
    # ------------------------------------------------------------------
    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation.  The serializer is already fault-containing
        (possessor death releases, dead waiters and crowd members are
        dequeued), so this is a defensive sweep plus a crowd check for the
        supervisor's uniform reclaim pass."""
        if self._possessor is proc:
            self._on_possessor_death(proc)
            return "released"
        if proc in self._entry:
            self._on_entrant_death(proc)
            return "dequeued"
        if proc in self._rejoin:
            self._on_rejoin_death(proc)
            return "dequeued"
        for crowd in self._crowds:
            if proc in crowd._members:
                self._on_crowd_death(crowd, proc)
                return "left crowd {}".format(crowd.name)
        return None

    def degrade(self) -> Optional[str]:
        """Graceful degradation: priority queues stop honouring ranks and
        release waiters in arrival order.  Possession exclusion and
        guarantee evaluation are untouched."""
        if self._degraded:
            return None
        self._degraded = True
        return "priority queues -> fifo"

    # ------------------------------------------------------------------
    # Possession protocol
    # ------------------------------------------------------------------
    def enter(self) -> Generator:
        """Gain possession of the serializer (entry has lowest priority)."""
        yield from self._sched.checkpoint()
        me = self._sched.current
        if self._possessor is me:
            raise IllegalOperationError(
                "{} re-entered serializer {}".format(me.name, self.name)
            )
        self._entry.append(me)
        self._probe_entry()
        if self._possessor is None and self._grant_next(me):
            self._sched.log("enter", self.name)
            return
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
        """Release possession and leave; triggers automatic dispatch."""
        me = self._require_possession("exit")
        self._sched.log("leave", self.name)
        self._release_possession(me)
        self._dispatch()

    def enqueue(
        self,
        q: SerializerQueue,
        guarantee: Guarantee = None,
        priority: int = 0,
    ) -> Generator:
        """Release possession; wait until head of ``q`` with a true guarantee.

        Returns holding possession again.  ``guarantee`` is a zero-argument
        predicate evaluated by the serializer's automatic dispatcher; it may
        read crowds, queues, and any user state, but must not block.
        ``priority`` is honoured only by :class:`SerializerPriorityQueue`
        (smaller ranks released first); plain queues ignore it.
        """
        me = self._require_possession("enqueue({})".format(q.name))
        self._sched.log("wait", q.name)
        if isinstance(q, SerializerPriorityQueue):
            if self._degraded:
                priority = 0  # degraded mode: arrival order only
            q._push(me, guarantee, priority)
        else:
            q._push(me, guarantee)
        self._release_possession(me)
        if self._grant_next(me):
            # Our own guarantee already held and nobody outranked us.
            self._sched.log("proceed", q.name, "immediate")
            return
        queue_key = ("ser_q", id(q))
        self._sched.register_cleanup(queue_key, q._discard)
        try:
            yield from self._sched.park(
                "enqueue({}.{})".format(self.name, q.name), q.name,
                resource=q._label,
            )
        except BaseException:
            # Closed while waiting (the run ended): leave no waiter behind,
            # since its guarantee usually closes over the solution.
            q._discard(me)
            raise
        finally:
            self._sched.unregister_cleanup(queue_key, me)
        self._sched.log("proceed", q.name, "handoff")

    def join_crowd(self, crowd: Crowd) -> Generator:
        """Join ``crowd`` and release possession (resource access begins).

        The body between ``join_crowd`` and ``leave_crowd`` runs *outside*
        the serializer, so other processes may enter meanwhile — this is the
        concurrency (and nested-resource safety) monitors lack.
        """
        me = self._require_possession("join_crowd({})".format(crowd.name))
        crowd._members.append(me)
        self._probe_crowd(crowd)
        self._sched.note_hold(crowd._label, me)
        self._sched.register_cleanup(
            ("ser_crowd", id(crowd)),
            lambda proc: self._on_crowd_death(crowd, proc),
        )
        self._sched.log("join_crowd", crowd.name)
        self._release_possession(me)
        self._dispatch()
        # Joining never blocks; the caller continues outside possession.
        yield from self._sched.checkpoint()

    def leave_crowd(self, crowd: Crowd) -> Generator:
        """Re-acquire possession, then leave ``crowd``.

        Re-joining processes outrank every queue: they hold resource results
        and must be able to update state and depart promptly.
        """
        me = self._sched.current
        if me not in crowd._members:
            raise IllegalOperationError(
                "{} left crowd {} it never joined".format(me.name, crowd.name)
            )
        self._rejoin.append(me)
        self._probe_rejoin()
        if self._possessor is None and self._grant_next(me):
            pass  # possession granted synchronously
        else:
            self._sched.register_cleanup(
                self._rejoin_key, self._on_rejoin_death
            )
            try:
                yield from self._sched.park(
                    "rejoin({})".format(self.name), crowd.name,
                    resource=self._label,
                )
            finally:
                self._sched.unregister_cleanup(self._rejoin_key, me)
        crowd._members.remove(me)
        self._probe_crowd(crowd)
        self._sched.note_release(crowd._label, me)
        self._sched.unregister_cleanup(("ser_crowd", id(crowd)), me)
        self._sched.log("leave_crowd", crowd.name)

    # ------------------------------------------------------------------
    # Automatic dispatch
    # ------------------------------------------------------------------
    def _select_next(self) -> Optional[SimProcess]:
        """Pick who gets possession next; ``None`` when nobody is eligible."""
        if self._rejoin:
            nxt = self._rejoin.pop(0)
            self._probe_rejoin()
            return nxt
        for q in self._queues:
            if q.head_eligible():
                return q._pop()
        if self._entry:
            nxt = self._entry.pop(0)
            self._probe_entry()
            return nxt
        return None

    def _grant_next(self, me: SimProcess) -> bool:
        """Run one dispatch round; return True when ``me`` won possession
        synchronously (so the caller must not park)."""
        nxt = self._select_next()
        if nxt is None:
            return False
        self._set_possessor(nxt)
        if nxt is me:
            return True
        self._sched.unpark(nxt)
        return False

    def _dispatch(self) -> None:
        """Grant possession to the next eligible process, if any."""
        nxt = self._select_next()
        if nxt is None:
            return
        self._set_possessor(nxt)
        self._sched.unpark(nxt)
