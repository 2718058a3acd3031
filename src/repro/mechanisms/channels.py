"""Synchronous message passing — CSP channels with guarded alternative.

§6 of the paper: "We have not looked extensively at message-passing models,
or more recent mechanisms, such as guarded commands [19] and the mechanism
proposed by Hoare in 'Communicating Sequential Processes' [20] … it is
important to be able to evaluate and compare them.  The techniques presented
in this paper may prove useful in these evaluations."

This module supplies that mechanism so the methodology can be applied to it
(experiment E11): rendezvous channels in the style of CSP '78, plus the
guarded alternative (``select``) that corresponds to Dijkstra's guarded
commands.

* :class:`Channel` — rendezvous by default: ``send`` and ``receive``
  complete together; waiters queue FIFO, so a channel doubles as an
  arrival-order record (information type T2).  ``capacity > 0`` turns it
  into an asynchronous mailbox (sends complete while the buffer has room).
* :func:`select` — wait on several send/receive alternatives at once, each
  optionally guarded by a boolean; the first matchable alternative fires.
  Immediate matches resolve in alternative order (deterministic, like a
  textually-ordered guarded command).

Synchronization schemes in this model are *server processes*: clients send
requests (parameters ride in the message — T3 is trivially accessible) and
the server's select loop encodes the constraints.

Crash semantics (DESIGN.md "Fault model"): channels are **fault-
propagating**, in the Erlang-link tradition.  Every process that touches a
channel becomes a *user*; when a user dies abnormally the channel *breaks*:
every parked counterpart is woken with :class:`PeerFailed`, and later
operations raise it immediately.  A rendezvous partner cannot silently wait
forever for a dead peer — the failure travels.  Construct with
``peer_fault="ignore"`` for bare CSP semantics (survivors block forever;
the deadlock detector's wait-for graph then names the dead peer instead).
``send``/``receive`` accept ``timeout=`` and raise :class:`WaitTimeout`
after withdrawing their offer: the library's one bounded wait, which the
dist layer's request/retry protocol and the recovery campaign build on.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Set, Union

from ..runtime.errors import IllegalOperationError, PeerFailed
from ..runtime.faults import deliver
from ..runtime.process import ProcessState, SimProcess
from ..runtime.scheduler import Scheduler


class _Offer:
    """One parked communication attempt (possibly one arm of a select)."""

    __slots__ = ("proc", "kind", "value", "group", "index")

    def __init__(self, proc: SimProcess, kind: str, value: Any,
                 group: Optional["_SelectGroup"], index: int) -> None:
        self.proc = proc
        self.kind = kind  # 'send' | 'recv'
        self.value = value
        self.group = group
        self.index = index

    def claimable(self) -> bool:
        # A claim ends in unpark, so the offer's process must still be
        # parked.  A corpse's offer can linger when nothing breaks the
        # channel on death (``peer_fault="ignore"``, e.g. a network
        # mailbox whose receiver was crash-injected): claiming it would
        # blow up the *deliverer*.  Dead peers mean silence, not poison.
        if self.proc.state is not ProcessState.BLOCKED:
            return False
        return self.group is None or not self.group.resolved


class _SelectGroup:
    """Shared state linking the arms of one select call."""

    __slots__ = ("resolved",)

    def __init__(self) -> None:
        self.resolved = False


class Channel:
    """A channel: rendezvous by default, optionally buffered.

    ``capacity == 0`` (the CSP '78 default): ``send`` blocks until a
    receiver takes the value, ``receive`` blocks until a sender offers one.
    ``capacity > 0`` (asynchronous mailbox): ``send`` completes immediately
    while the buffer has room and blocks only when full; ``receive`` drains
    the buffer in FIFO order.  All queues are FIFO.

    ``peer_fault`` selects the crash semantics: ``"break"`` (default)
    propagates a user's abnormal death to its partners as
    :class:`PeerFailed`; ``"ignore"`` keeps bare CSP semantics where a dead
    peer simply never communicates.
    """

    def __init__(self, sched: Scheduler, name: str = "chan",
                 capacity: int = 0, peer_fault: str = "break") -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if peer_fault not in ("break", "ignore"):
            raise ValueError("unknown peer_fault {!r}".format(peer_fault))
        self._sched = sched
        self.name = name
        self.capacity = capacity
        self.peer_fault = peer_fault
        self._label = "channel {}".format(name)
        self._senders_label = self._label + ".senders"
        self._receivers_label = self._label + ".receivers"
        self._buffer: List[Any] = []
        self._senders: List[_Offer] = []
        self._receivers: List[_Offer] = []
        self._users: Set[int] = set()  # pids that ever touched the channel
        self.broken = False
        self.broken_by: Optional[str] = None

    @property
    def buffered(self) -> int:
        """Messages sitting in the buffer (0 for rendezvous channels)."""
        return len(self._buffer)

    def _has_space(self) -> bool:
        return len(self._buffer) < self.capacity

    # ------------------------------------------------------------------
    # Peer-failure propagation
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        """Record the current process as a channel user; its abnormal death
        will break the channel (``peer_fault="break"`` only)."""
        if self.peer_fault != "break":
            return
        me = self._sched._current
        if me is None or me.pid in self._users:
            return
        self._users.add(me.pid)
        # Death-only cleanup, never unregistered: it fires solely on
        # abnormal termination, where "user died" is exactly the trigger.
        self._sched.register_cleanup(
            ("chan_user", id(self)), self._on_user_death, proc=me
        )

    def link(self, proc: SimProcess) -> None:
        """Explicitly register ``proc`` as a channel user (Erlang's
        ``spawn_link``): its abnormal death breaks the channel even if it
        dies *before* its first send/receive — which implicit attachment on
        first touch cannot see.  No-op under ``peer_fault="ignore"``."""
        if self.peer_fault != "break" or proc.pid in self._users:
            return
        self._users.add(proc.pid)
        self._sched.register_cleanup(
            ("chan_user", id(self)), self._on_user_death, proc=proc
        )

    def _on_user_death(self, proc: SimProcess) -> None:
        """Break the channel: fail every parked counterpart with
        :class:`PeerFailed` so nobody rendezvouses with the dead."""
        if self.broken:
            return
        self.broken = True
        self.broken_by = proc.name
        self._sched.log("chan_break", self.name, proc.name, proc=proc)
        for offer in self._senders + self._receivers:
            if not offer.claimable() or offer.proc is proc:
                continue
            if offer.proc.state is not ProcessState.BLOCKED:
                continue
            if offer.group is not None:
                offer.group.resolved = True
            self._sched.unpark(
                offer.proc, deliver(PeerFailed(self.name, proc.name))
            )
        self._senders.clear()
        self._receivers.clear()
        self._probe_offers()

    def _check_broken(self) -> None:
        if self.broken:
            raise PeerFailed(self.name, self.broken_by or "?")

    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation: lift the quarantine a dead user caused.

        A broken channel is *quarantined* — every later operation raises
        :class:`PeerFailed`.  Once a supervisor has reclaimed the dead
        user's other holds and is about to restart it, that quarantine must
        lift or the restarted incarnation (and its partners) could never
        rendezvous again: the broken flag is reset, the corpse is dropped
        from the user set, and any stale offers are cleared.  Buffered
        messages survive — they were sent before the crash and remain
        deliverable."""
        was_user = proc.pid in self._users
        self._users.discard(proc.pid)
        if not self.broken or not was_user:
            return None
        self.broken = False
        self.broken_by = None
        self._senders = [
            o for o in self._senders
            if o.claimable() and o.proc.alive
        ]
        self._receivers = [
            o for o in self._receivers
            if o.claimable() and o.proc.alive
        ]
        self._probe_offers()
        self._sched.log("chan_reset", self.name, proc.name, proc=proc)
        return "reset"

    # ------------------------------------------------------------------
    def _first_claimable(self, offers: List[_Offer]) -> Optional[_Offer]:
        for offer in offers:
            if offer.claimable():
                return offer
        return None

    def _probe_offers(self) -> None:
        self._sched.probe("channel", self._senders_label, len(self._senders))
        self._sched.probe("channel", self._receivers_label,
                          len(self._receivers))

    def _discard_dead(self) -> None:
        if self._senders:
            self._senders = [o for o in self._senders if o.claimable()]
        if self._receivers:
            self._receivers = [o for o in self._receivers if o.claimable()]

    def _withdraw(self, offer: _Offer) -> None:
        """Remove a timed-out offer so no later match targets a quitter."""
        if offer in self._senders:
            self._senders.remove(offer)
        if offer in self._receivers:
            self._receivers.remove(offer)
        self._probe_offers()

    @property
    def senders_waiting(self) -> int:
        """Parked senders (live offers only)."""
        return sum(1 for o in self._senders if o.claimable())

    @property
    def receivers_waiting(self) -> int:
        """Parked receivers (live offers only)."""
        return sum(1 for o in self._receivers if o.claimable())

    # ------------------------------------------------------------------
    def send(self, value: Any, timeout: Optional[int] = None) -> Generator:
        """Offer ``value``; returns once a receiver has taken it (rendezvous)
        or once it is buffered (buffered channel with room).

        ``timeout`` bounds the wait in virtual time; expiry withdraws the
        offer and raises :class:`WaitTimeout`."""
        self._check_broken()
        self._attach()
        self._discard_dead()
        match = self._first_claimable(self._receivers)
        if match is not None:
            self._claim(match, deliver=value)
            self._sched.log("send", self.name, value)
            return
        if self._has_space():
            self._buffer.append(value)
            self._sched.log("send", self.name, value)
            return
        me = self._sched.current
        offer = _Offer(me, "send", value, None, 0)
        self._senders.append(offer)
        self._probe_offers()
        yield from self._sched.park(
            "send({})".format(self.name), self.name,
            timeout=timeout,
            on_timeout=lambda: self._withdraw(offer),
            resource=self._label,
        )
        self._sched.log("send", self.name, value)

    def receive(self, timeout: Optional[int] = None) -> Generator:
        """Take the next value; returns it.

        ``timeout`` bounds the wait in virtual time; expiry withdraws the
        offer and raises :class:`WaitTimeout`."""
        self._check_broken()
        self._attach()
        self._discard_dead()
        if self._buffer:
            value = self._buffer.pop(0)
            self._refill_from_senders()
            self._sched.log("recv", self.name, value)
            return value
        match = self._first_claimable(self._senders)
        if match is not None:
            value = match.value
            self._claim(match)
            self._sched.log("recv", self.name, value)
            return value
        me = self._sched.current
        offer = _Offer(me, "recv", None, None, 0)
        self._receivers.append(offer)
        self._probe_offers()
        value = yield from self._sched.park(
            "recv({})".format(self.name), self.name,
            timeout=timeout,
            on_timeout=lambda: self._withdraw(offer),
            resource=self._label,
        )
        self._sched.log("recv", self.name, value)
        return value

    # ------------------------------------------------------------------
    def _refill_from_senders(self) -> None:
        """After a buffered receive frees a slot, move the oldest parked
        sender's value into the buffer and release the sender."""
        while self._has_space():
            offer = self._first_claimable(self._senders)
            if offer is None:
                return
            self._buffer.append(offer.value)
            self._claim(offer)

    def _deposit(self, value: Any) -> None:
        """Non-blocking delivery, bypassing the capacity limit: hand
        ``value`` to the oldest parked receiver, or append it to the
        buffer.  Used by the dist network layer, which owns its own
        delivery discipline (drops, delays, duplicates) and models the
        mailbox as unbounded."""
        self._check_broken()
        self._discard_dead()
        match = self._first_claimable(self._receivers)
        if match is not None:
            self._claim(match, deliver=value)
        else:
            self._buffer.append(value)

    def _claim(self, offer: _Offer, deliver: Any = None) -> None:
        """Complete a rendezvous with a parked counterpart."""
        if offer in self._senders:
            self._senders.remove(offer)
        if offer in self._receivers:
            self._receivers.remove(offer)
        self._probe_offers()
        if offer.group is not None:
            offer.group.resolved = True
            wake_value = (offer.index, deliver if offer.kind == "recv" else None)
        else:
            wake_value = deliver if offer.kind == "recv" else None
        self._sched.unpark(offer.proc, wake_value)


class SendOp:
    """A ``select`` arm offering ``value`` on ``channel``."""

    __slots__ = ("channel", "value", "guard")

    def __init__(self, channel: Channel, value: Any, guard: bool = True) -> None:
        self.channel = channel
        self.value = value
        self.guard = guard


class ReceiveOp:
    """A ``select`` arm taking a value from ``channel``."""

    __slots__ = ("channel", "guard")

    def __init__(self, channel: Channel, guard: bool = True) -> None:
        self.channel = channel
        self.guard = guard


SelectArm = Union[SendOp, ReceiveOp]


def select(sched: Scheduler, arms: Sequence[SelectArm]) -> Generator:
    """Guarded alternative: wait until one enabled arm can communicate.

    Returns ``(index, value)`` — ``value`` is the received message for a
    :class:`ReceiveOp` arm and ``None`` for a :class:`SendOp` arm.  Guards
    are evaluated once, on entry (re-issue the select to re-evaluate, as a
    CSP repetitive command would).  Raises if every guard is false — the
    guarded-command failure case.  An enabled arm on a broken channel
    raises :class:`PeerFailed` immediately.
    """
    enabled = [(i, arm) for i, arm in enumerate(arms) if arm.guard]
    if not enabled:
        raise IllegalOperationError("select with all guards false")
    # Immediate pass: first arm that can communicate right now wins
    # (buffered content / space counts as communicable).
    for index, arm in enabled:
        chan = arm.channel
        chan._check_broken()
        chan._attach()
        chan._discard_dead()
        if isinstance(arm, ReceiveOp):
            if chan._buffer:
                value = chan._buffer.pop(0)
                chan._refill_from_senders()
                sched.log("recv", chan.name, value)
                return (index, value)
            match = chan._first_claimable(chan._senders)
            if match is not None:
                value = match.value
                chan._claim(match)
                sched.log("recv", chan.name, value)
                return (index, value)
        else:
            match = chan._first_claimable(chan._receivers)
            if match is not None:
                chan._claim(match, deliver=arm.value)
                sched.log("send", chan.name, arm.value)
                return (index, None)
            if chan._has_space():
                chan._buffer.append(arm.value)
                sched.log("send", chan.name, arm.value)
                return (index, None)
    # Park one offer per enabled arm, linked through a select group.
    me = sched.current
    group = _SelectGroup()
    for index, arm in enabled:
        offer = _Offer(
            me,
            "recv" if isinstance(arm, ReceiveOp) else "send",
            None if isinstance(arm, ReceiveOp) else arm.value,
            group,
            index,
        )
        if isinstance(arm, ReceiveOp):
            arm.channel._receivers.append(offer)
        else:
            arm.channel._senders.append(offer)
        arm.channel._probe_offers()
    result = yield from sched.park("select", "select", resource="select")
    index, value = result
    arm = arms[index]
    sched.log(
        "recv" if isinstance(arm, ReceiveOp) else "send",
        arm.channel.name,
        value,
    )
    return (index, value)
