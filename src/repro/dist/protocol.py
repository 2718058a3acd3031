"""Protocol runtime: stamped messages, dedup, timeout/retry request-reply.

The network (:mod:`repro.dist.network`) gives at-most-once, unordered-ish
delivery under a :class:`~repro.dist.netplan.NetPlan`; this module layers
the machinery real distributed protocols assume on top of it:

* :class:`Msg` — a stamped message: ``(src, seq)`` is the dedup key,
  ``term`` carries a protocol epoch, ``reply_to`` threads request/reply.
* :class:`Node` — one protocol participant: an inbox, a monotone sequence
  stamp, **sequence-number dedup** of network-duplicated copies (logged as
  ``msg_dedup``), and a pending buffer so replies awaited out of band
  never swallow unrelated traffic.
* :meth:`Node.request` — per-message timeout/retry built on the recovery
  runtime's deterministic :class:`~repro.recover.backoff.BackoffPolicy`
  family (:func:`~repro.recover.backoff.retry_with_backoff`): each retry
  is a *fresh* transmission answered by an idempotent handler, while the
  dedup layer suppresses copies the network itself duplicated.

Everything stays deterministic on the virtual clock: timeouts are virtual
ticks, backoff is a pure function of the attempt number, and there is no
randomness anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence, Set, Tuple

from ..runtime.errors import WaitTimeout
from ..recover.backoff import BackoffLike, retry_with_backoff
from .network import Network

#: A request identity: (requesting node, sequence stamp).  Stable across
#: retransmissions of the same logical request.
ReqId = Tuple[str, int]


@dataclass(frozen=True)
class Msg:
    """One protocol message.

    Attributes:
        src: sending node.
        dst: receiving node.
        kind: protocol vocabulary word (``acquire``, ``grant``, ``vote``…).
        seq: per-sender monotone stamp; ``(src, seq)`` dedups duplicates.
        term: protocol epoch (election term, lease generation); 0 when the
            protocol has no epochs.
        payload: free-form content.
        reply_to: the :data:`ReqId` this message answers, if any.
    """

    src: str
    dst: str
    kind: str
    seq: int
    term: int = 0
    payload: Any = None
    reply_to: Optional[ReqId] = None

    def describe(self) -> str:
        base = "{} {}->{} #{}".format(self.kind, self.src, self.dst,
                                      self.seq)
        if self.term:
            base += " t{}".format(self.term)
        return base


class Node:
    """One protocol participant bound to a network node.

    Args:
        network: the message substrate.
        node_id: this participant's node name (also its inbox address).
        peers: the other nodes it talks to (used by :meth:`broadcast`).
        store: optional :class:`~repro.resilience.durable.
            DurableNamespace`.  When given, the sequence stamp is
            *durable*: a restarted incarnation resumes stamping past its
            predecessor's last stamp, so peers' ``(src, seq)`` dedup keys
            never collide across a restart.  The dedup set and pending
            buffer stay volatile — in-flight protocol state dies with the
            process, which is the restart semantics the resilience layer
            studies.

    The owning process should be assigned to ``node_id`` via
    :meth:`Network.assign` (done automatically by :meth:`bind`).
    """

    def __init__(self, network: Network, node_id: str,
                 peers: Sequence[str] = (),
                 store: Optional[Any] = None) -> None:
        self.net = network
        self.id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.inbox = network.node(node_id)
        self.store = store
        self._seq = 0 if store is None else int(store.get("node.seq", 0))
        self._seen: Set[Tuple[str, int]] = set()
        self._pending: List[Msg] = []
        self.duplicates = 0

    def bind(self, pname: str) -> "Node":
        """Register ``pname`` as living on this node (plan ``src``/``dst``
        matching and partition sides use node names)."""
        self.net.assign(pname, self.id)
        return self

    @property
    def sched(self):
        return self.net.sched

    def stamp(self) -> int:
        """A fresh per-sender sequence number (persisted when a durable
        store is attached, so stamps stay monotone across restarts)."""
        self._seq += 1
        if self.store is not None:
            self.store.put("node.seq", self._seq)
        return self._seq

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: str,
        kind: str,
        payload: Any = None,
        term: int = 0,
        seq: Optional[int] = None,
        reply_to: Optional[ReqId] = None,
    ) -> Generator:
        """Fire-and-forget one message (never blocks; the network may
        still drop/delay/duplicate it).  Returns the :class:`Msg` sent."""
        msg = Msg(self.id, dst, kind, seq if seq is not None
                  else self.stamp(), term, payload, reply_to)
        yield from self.net.node(dst).send(msg)
        return msg

    def broadcast(self, kind: str, payload: Any = None,
                  term: int = 0) -> Generator:
        """Send one logical message to every peer (one shared stamp, so a
        duplicated copy dedups no matter which link doubled it)."""
        seq = self.stamp()
        for dst in self.peers:
            yield from self.send(dst, kind, payload, term=term, seq=seq)
        return seq

    def reply(self, to: Msg, kind: str, payload: Any = None) -> Generator:
        """Answer ``to``, threading its ``reply_to`` (or its ``(src,
        seq)`` identity when it carried none)."""
        req_id = to.reply_to or (to.src, to.seq)
        yield from self.send(to.src, kind, payload, reply_to=req_id)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _recv_fresh(self, timeout: Optional[int]) -> Generator:
        """One not-seen-before message straight from the inbox.  Network
        duplicates are dropped here (``msg_dedup``), which is exactly the
        sequence-number dedup guarantee: a duplicated grant or vote is
        counted once."""
        while True:
            msg = yield from self.inbox.receive(timeout=timeout)
            key = (msg.src, msg.seq)
            if key in self._seen:
                self.duplicates += 1
                self.sched.log("msg_dedup", self.id, msg.describe())
                continue
            self._seen.add(key)
            return msg

    def receive(self, timeout: Optional[int] = None) -> Generator:
        """The next message for this node: buffered traffic first (set
        aside while a :meth:`request` was awaiting its reply), then fresh
        deduped inbox messages.  ``timeout`` bounds the wait in virtual
        time and raises :class:`WaitTimeout` on expiry."""
        if self._pending:
            return self._pending.pop(0)
        msg = yield from self._recv_fresh(timeout)
        return msg

    # ------------------------------------------------------------------
    # Request / reply with retry
    # ------------------------------------------------------------------
    def request(
        self,
        dst: str,
        kind: str,
        payload: Any = None,
        term: int = 0,
        timeout: int = 8,
        attempts: int = 3,
        backoff: BackoffLike = None,
    ) -> Generator:
        """Send ``kind`` to ``dst`` and wait for the matching reply.

        The request identity ``(self.id, stamp)`` stays fixed across
        retries, so responders can recognise a retransmission; each retry
        is a fresh message (new ``seq``) answered by an idempotent
        handler.  Unrelated messages arriving while waiting are buffered
        for :meth:`receive`.  Exhausting ``attempts`` re-raises the last
        :class:`WaitTimeout`.
        """
        req_id: ReqId = (self.id, self.stamp())

        def attempt(i: int) -> Generator:
            yield from self.send(dst, kind, payload, term=term,
                                 reply_to=req_id)
            while True:
                msg = yield from self._recv_fresh(timeout)
                if msg.reply_to == req_id:
                    return msg
                self._pending.append(msg)

        reply = yield from retry_with_backoff(
            attempt, attempts=attempts, backoff=backoff, sched=self.sched)
        return reply

    def try_request(self, *args, **kwargs) -> Generator:
        """:meth:`request`, but returning ``None`` instead of raising when
        every attempt times out — the shape quorum collection wants."""
        try:
            reply = yield from self.request(*args, **kwargs)
            return reply
        except WaitTimeout:
            return None
