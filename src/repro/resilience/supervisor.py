"""NodeSupervisor: crash-restart for distributed nodes.

:class:`~repro.recover.supervisor.Supervisor` restarts dead *processes*;
this adapter restarts dead *nodes* — processes bound to a
:class:`~repro.dist.network.Network` address with durable state in a
:class:`~repro.resilience.durable.DurableStore`.  Three things distinguish
a node restart from a plain process restart:

* **State split** — the new incarnation receives the node's
  :class:`~repro.resilience.durable.DurableNamespace` (what the old
  incarnation explicitly persisted: sequence stamps, grant epochs, term
  and application records) and *nothing else*: dedup sets, pending
  replies, and every in-scope local are gone.  The factory is called with
  ``(incarnation, namespace)`` so the body can tell a cold boot from a
  rejoin.
* **Inbox rejoin semantics** — messages that arrived while the node was
  down (and half-consumed conversation from before the crash) are sitting
  in its network inbox.  Policy ``"quarantine"`` (default) drains them on
  rejoin (logged ``inbox_quarantine`` with the count) — the conservative
  discipline: a fresh incarnation must not consume replies addressed to
  its predecessor's volatile requests.  Policy ``"replay"`` leaves the
  backlog for the new incarnation, modelling mailbox hardware that
  survives the crash.
* **Name reuse** — the restarted process reuses the node's process name,
  so the network's sender→node mapping, plan ``src``/``dst`` matching,
  and partition sides keep applying across incarnations (and fault-plan
  kills, which fire once, never re-kill the replacement).

Everything else — backoff, max-restart intensity, escalation, death
detection via crash cleanups — is the recovery runtime's, unchanged and
deterministic.  Trace vocabulary added here: ``node_rejoin`` (obj = node,
detail = ``{"incarnation": n}``) and ``inbox_quarantine`` (detail =
``{"dropped": n}``).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Generator, Optional

from ..dist.network import Network
from ..recover.supervisor import RestartPolicy, Supervisor, _ChildSpec
from ..runtime.process import SimProcess
from ..runtime.scheduler import Scheduler
from .durable import DurableNamespace, DurableStore

__all__ = ["NodeSupervisor", "QUARANTINE", "REPLAY"]

QUARANTINE = "quarantine"
REPLAY = "replay"

#: A node body factory: called once per incarnation with the incarnation
#: number (1 = first boot) and the node's durable namespace.
NodeFactory = Callable[[int, DurableNamespace], Generator]


class NodeSupervisor:
    """Restart killed network nodes with durable state and rejoin rules.

    Usage::

        store = DurableStore()
        nsup = NodeSupervisor(sched, net, store,
                              RestartPolicy(backoff=FixedBackoff(2)))
        nsup.node("c0", client_body)    # client_body(incarnation, ns)
        nsup.start()

    The supervisor process itself is an ordinary supervised loop (named
    ``name``, default ``"nodesup"``) — fault plans may kill *it* too,
    which the joint fault search exploits.
    """

    def __init__(
        self,
        sched: Scheduler,
        net: Network,
        store: Optional[DurableStore] = None,
        policy: Optional[RestartPolicy] = None,
        name: str = "nodesup",
        rejoin: str = QUARANTINE,
    ) -> None:
        if rejoin not in (QUARANTINE, REPLAY):
            raise ValueError("unknown rejoin policy {!r}".format(rejoin))
        self.sched = sched
        self.net = net
        self.store = store if store is not None else DurableStore()
        self.rejoin = rejoin
        self.name = name
        self._sup = Supervisor(sched, policy, name=name)
        self._specs: Dict[str, _ChildSpec] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def node(self, node_id: str, factory: NodeFactory) -> None:
        """Declare a supervised node: ``factory(incarnation, ns)`` must
        return a fresh generator each call.  The process name is the node
        name, so the network keeps routing across incarnations."""
        ns = self.store.namespace(node_id)
        # The restart supervisor keeps this body: a strong ``self`` would
        # close a cycle that only the collector frees.
        supervisor = weakref.proxy(self)

        def wrapped() -> Generator:
            spec = supervisor._specs[node_id]
            incarnation = spec.incarnations
            if incarnation > 1:
                supervisor._on_rejoin(node_id, incarnation)
            result = yield from factory(incarnation, ns)
            return result

        self._specs[node_id] = self._sup.child(node_id, wrapped)

    def start(self) -> SimProcess:
        """Spawn every node plus the supervisor process."""
        return self._sup.start()

    # ------------------------------------------------------------------
    # Rejoin plumbing
    # ------------------------------------------------------------------
    def _on_rejoin(self, node_id: str, incarnation: int) -> None:
        self.sched.log("node_rejoin", node_id,
                       {"incarnation": incarnation})
        if self.rejoin == QUARANTINE:
            dropped = self.net.node(node_id).drain()
            self.sched.log("inbox_quarantine", node_id,
                           {"dropped": dropped})

    # ------------------------------------------------------------------
    def incarnations(self, node_id: str) -> int:
        return self._specs[node_id].incarnations

    def report(self) -> Dict[str, object]:
        """The underlying supervisor's restart summary."""
        return self._sup.report()
