"""The network: per-node mailboxes with NetPlan interposition.

A :class:`Network` turns the channels mechanism into a message-passing
substrate: every *node* (named process group) owns one :class:`NetChannel`
inbox — a buffered :class:`~repro.mechanisms.channels.Channel` whose
``send`` is interposed by a :class:`~repro.dist.netplan.NetPlan`.  Sends
never block (the mailbox is unbounded, delivery is the network's job);
receives are the ordinary channel receive, ``timeout=`` included, so the
protocol runtime's retry/backoff machinery applies unchanged.

Fault application is entirely trace-visible:

=================  =====================================================
event kind         meaning
=================  =====================================================
``msg_send``       a process handed a message to the network
``msg_deliver``    the network deposited it in the destination inbox
``msg_drop``       the plan discarded it (detail says why: a link rule
                   or an active ``partition``)
``msg_dup``        a duplicate copy was deposited
``msg_delay``      delivery was deferred (detail carries the due tick)
``msg_hold``       a reorder rule holds it until the next link message
``net_partition``  a scripted partition became active
``net_heal``       a scripted partition healed
=================  =====================================================

Delayed deliveries and partition announcements are driven by a daemon
*pump* process that sleeps on the virtual clock — everything stays a
deterministic function of the (policy, plan) pair, and the heal tick is a
real trace event the MTTR analysis in :mod:`repro.obs.recovery` anchors
on.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..mechanisms.channels import Channel
from ..runtime.process import ProcessState, SimProcess
from ..runtime.scheduler import Scheduler
from .netplan import DELAY, DROP, DUPLICATE, NetPlan, REORDER

#: Mailboxes are modelled as unbounded: delivery discipline (including
#: loss) belongs to the plan, not to buffer backpressure.
_UNBOUNDED = 1 << 30


class NetChannel(Channel):
    """One node's inbox.  ``send`` consults the network's plan; ``receive``
    is the plain buffered-channel receive (with ``timeout=`` support).

    Constructed through :meth:`Network.node`, never directly.
    """

    def __init__(self, network: "Network", node: str) -> None:
        super().__init__(network.sched, name="inbox.{}".format(node),
                         capacity=_UNBOUNDED, peer_fault="ignore")
        # The network keeps its inboxes: a strong reference back would
        # close a cycle that only the collector frees.
        self._network = weakref.proxy(network)
        self.node = node

    def send(self, value: Any) -> Generator:
        """Hand ``value`` to the network addressed to this inbox's node.

        Never blocks; yields one checkpoint so preemptive exploration can
        branch around the send.
        """
        self._network._transmit(self, value)
        yield from self._sched.checkpoint()

    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """A node's inbox never quarantines (``peer_fault="ignore"``):
        crash means silence, detected by timeouts — so reclamation only
        drops the corpse from the user set."""
        self._users.discard(proc.pid)
        return None

    def drain(self) -> int:
        """Discard every queued-but-undelivered message; returns how many
        were dropped.  The rejoin *quarantine* discipline: a restarted
        node's first incarnation may have left half-consumed conversation
        in its inbox, and replaying it to the fresh incarnation would hand
        volatile protocol state across the restart boundary."""
        dropped = len(self._buffer)
        if dropped:
            self._buffer.clear()
        return dropped


class Network:
    """Per-node mailboxes, a sender→node map, and the fault interposer.

    Args:
        sched: owning scheduler.
        plan: the :class:`NetPlan` to interpose (default: a clean network).
        name: label used for the pump process and trace events.
        latency: baseline per-hop delivery latency in virtual ticks.  The
            default 0 delivers within the sender's step (handy for unit
            tests); the scenarios use ``latency=1`` so protocol exchanges
            consume virtual time and a partition can cut a conversation
            mid-flight.  A message whose delivery tick lands inside a
            partition is lost at the boundary.

    Message accounting (``sent`` / ``delivered`` / ``dropped`` /
    ``duplicated`` / ``delayed``) is kept as plain counters so benches can
    report message overhead without re-scanning the trace.
    """

    def __init__(self, sched: Scheduler, plan: Optional[NetPlan] = None,
                 name: str = "net", latency: int = 0) -> None:
        self.sched = sched
        self.plan = plan or NetPlan()
        self.name = name
        self.latency = latency
        self.plan.begin()
        self._endpoints: Dict[str, NetChannel] = {}
        self._groups: Dict[str, str] = {}          # process name -> node
        self._in_flight: list = []                 # heap of (due, seq, chan, value, link)
        self._held: Dict[Tuple[str, str], List[Tuple[NetChannel, Any]]] = {}
        self._seq = 0
        self._pump: Optional[SimProcess] = None
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        #: node -> peak inbox depth ever observed right after a deposit —
        #: the backlog a slow or partitioned-off node accumulates.
        self.inbox_peak: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> NetChannel:
        """The inbox of ``node_id`` (created on first use)."""
        chan = self._endpoints.get(node_id)
        if chan is None:
            chan = NetChannel(self, node_id)
            self._endpoints[node_id] = chan
        return chan

    def assign(self, pname: str, node_id: str) -> None:
        """Place process ``pname`` in node ``node_id`` — the identity the
        plan's ``src`` matching uses.  Unassigned processes are their own
        node (process name == node name)."""
        self._groups[pname] = node_id

    def group_of(self, pname: str) -> str:
        return self._groups.get(pname, pname)

    def _current_group(self) -> str:
        me = self.sched.current
        return self.group_of(me.name) if me is not None else "<sched>"

    def start(self) -> None:
        """Spawn the pump daemon.  Needed whenever the plan delays
        messages or schedules partitions/heals; harmless otherwise.
        Idempotent."""
        if self._pump is None:
            self._pump = self.sched.spawn(
                self._pump_body, name="{}.pump".format(self.name),
                daemon=True,
            )

    # ------------------------------------------------------------------
    # The send path (called from NetChannel.send)
    # ------------------------------------------------------------------
    def _transmit(self, chan: NetChannel, value: Any) -> None:
        src = self._current_group()
        dst = chan.node
        link = "{}->{}".format(src, dst)
        now = self.sched.now
        self.sent += 1
        self.sched.log("msg_send", link, value)
        action, arg = self.plan.verdict(src, dst, now)
        if action == DROP:
            reason = ("partition" if self.plan.partitioned(src, dst, now)
                      else "drop rule")
            self.dropped += 1
            self.sched.log("msg_drop", link, reason)
            return
        if action == DELAY:
            self.delayed += 1
            due = now + arg
            self.sched.log("msg_delay", link, due)
            self._schedule(due, chan, value, link)
            return
        if action == REORDER:
            self.sched.log("msg_hold", link, value)
            self._held.setdefault((src, dst), []).append((chan, value))
            return
        if self.latency > 0:
            self._schedule(now + self.latency, chan, value, link)
            if action == DUPLICATE:
                self.duplicated += 1
                self.sched.log("msg_dup", link, value)
                self._schedule(now + self.latency, chan, value, link)
            return
        self._deliver(chan, value, link)
        if action == DUPLICATE:
            self.duplicated += 1
            self.sched.log("msg_dup", link, value)
            self._deliver(chan, value, link)
        self._flush_held(src, dst)

    def _deliver(self, chan: NetChannel, value: Any, link: str) -> None:
        self.delivered += 1
        self.sched.log("msg_deliver", link, value)
        chan._deposit(value)
        depth = chan.buffered
        if depth > self.inbox_peak.get(chan.node, 0):
            self.inbox_peak[chan.node] = depth
        self.sched.probe("inbox", chan.node, depth)

    def _flush_held(self, src: str, dst: str) -> None:
        """Release reorder-held messages on a link right after a younger
        message got through — the pairwise swap the reorder rule models."""
        held = self._held.pop((src, dst), None)
        if not held:
            return
        for chan, value in held:
            self._deliver(chan, value, "{}->{}".format(src, dst))

    # ------------------------------------------------------------------
    # Delayed delivery + partition announcements (the pump)
    # ------------------------------------------------------------------
    def _schedule(self, due: int, chan: NetChannel, value: Any,
                  link: str) -> None:
        self._seq += 1
        heapq.heappush(self._in_flight, (due, self._seq, chan, value, link))
        self.start()
        self._kick()

    def _kick(self) -> None:
        pump = self._pump
        if pump is not None and pump.state is ProcessState.BLOCKED:
            self.sched.unpark(pump)

    def _announce_due(self, now: int) -> None:
        for p in self.plan.partitions:
            if not p.announced and p.at <= now:
                p.announced = True
                self.sched.log("net_partition", self.name, p.describe())
            if (p.heal_at is not None and not p.healed
                    and p.heal_at <= now):
                p.healed = True
                self.sched.log("net_heal", self.name, p.describe())

    def _next_due(self, now: int) -> Optional[int]:
        dues = []
        if self._in_flight:
            dues.append(self._in_flight[0][0])
        for tick in self.plan.schedule_ticks():
            if tick > now:
                dues.append(tick)
                break
        return min(dues) if dues else None

    def _pump_body(self) -> Generator:
        sched = self.sched
        while True:
            now = sched.now
            self._announce_due(now)
            while self._in_flight and self._in_flight[0][0] <= now:
                __, __, chan, value, link = heapq.heappop(self._in_flight)
                src, __, dst = link.partition("->")
                if self.plan.partitioned(src, dst, now):
                    # The partition closed while the message was in
                    # flight: it is lost at the boundary.
                    self.dropped += 1
                    sched.log("msg_drop", link, "partition")
                    continue
                self._deliver(chan, value, link)
                self._flush_held(src, dst)
            due = self._next_due(now)
            if due is None:
                yield from sched.park(
                    "net_pump", self.name,
                    resource="network {}".format(self.name),
                )
            else:
                yield from sched.sleep(due - now)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Message-overhead counters for benches and reports.  All values
        are ints except ``inbox_peak``, a per-node gauge dict — aggregators
        sum the counters and max-merge the gauges."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "inbox_peak": dict(self.inbox_peak),
        }
