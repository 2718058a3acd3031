"""Lamport-style message-passing mutual exclusion.

The classic logical-clock algorithm (Lamport 1978, via Aspnes' notes):
each node timestamps its request, broadcasts it, and enters the critical
section once (a) its request is the smallest in its local queue and (b)
every peer has acknowledged with a later timestamp.  Release broadcasts
remove the request from peer queues.

The textbook algorithm assumes reliable FIFO channels; under a
:class:`~repro.dist.netplan.NetPlan` it gets neither, so the scenario adds
the minimal loss tolerance the protocol runtime affords: requests and
releases are **retransmitted** on receive timeout (peers treat both
idempotently), and a node that already released re-sends its release when
it sees a stale request.  Under an unhealed partition the algorithm is
*safe but not live* — requesters on either side simply never assemble the
full acknowledgement set — which is exactly the behaviour the partition
report classifies as ``wedged`` rather than ``split-brain``.

Trace vocabulary: each node brackets its pass with ``cs`` events on
:data:`LAMPORT_REGION`, detail ``enter`` / ``exit`` (the holder is the
logging process), judged by
:func:`repro.verify.detectors.exclusion_oracle`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...dist import NetPlan, Network, Node
from ...runtime.errors import WaitTimeout
from ...runtime.faults import FaultPlan
from ...runtime.policies import ScriptedPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult

#: The participating nodes (process name == node name).
LAMPORT_NODES = ["n0", "n1", "n2"]
#: The critical region every node's ``cs`` events name.
LAMPORT_REGION = "mutex"


def build_lamport_mutex(
    policy: ScriptedPolicy,
    netplan: Optional[NetPlan] = None,
    fault_plan: Optional[FaultPlan] = None,
    deadline: int = 80,
    nodes: Optional[Sequence[str]] = None,
) -> RunResult:
    """Every node requests the critical section exactly once.

    ``nodes`` overrides the membership (the resilience report runs five
    nodes); the default stays the 3-node :data:`LAMPORT_NODES`.
    Returns the finished run; each node's result records whether it got
    in and out (``{"entered": bool, "exited": bool}``).
    """
    sched = Scheduler(policy=policy, preemptive=True, fault_plan=fault_plan)
    net = Network(sched, netplan, latency=1)
    net.start()
    nodes = list(LAMPORT_NODES if nodes is None else nodes)

    def member(idx: int, me: str):
        def body():
            node = Node(net, me, peers=nodes).bind(me)
            clock = idx + 1
            my_ts = (clock, me)
            queue = {me: my_ts}          # node -> request timestamp
            acks = {me}
            done = set()                 # nodes whose release we have seen
            entered = exited = False
            yield from node.broadcast("req", payload=my_ts)
            while sched.now < deadline:
                if (not entered and acks >= set(nodes)
                        and min(queue.values()) == my_ts):
                    entered = True
                    sched.log("cs", LAMPORT_REGION, "enter")
                    yield from sched.checkpoint()
                    sched.log("cs", LAMPORT_REGION, "exit")
                    exited = True
                    del queue[me]
                    done.add(me)
                    yield from node.broadcast("rel", payload=my_ts)
                if exited and done >= set(nodes):
                    break
                try:
                    msg = yield from node.receive(timeout=6)
                except WaitTimeout:
                    # Reliable-channel assumption patched by retransmission:
                    # peers dedup requests by node and treat releases
                    # idempotently.
                    if not entered:
                        yield from node.broadcast("req", payload=my_ts)
                    elif exited and not done >= set(nodes):
                        yield from node.broadcast("rel", payload=my_ts)
                    continue
                ts = tuple(msg.payload)
                clock = max(clock, ts[0]) + 1
                if msg.kind == "req":
                    if msg.src not in done:
                        # A delayed request arriving after its own release
                        # must not resurrect the queue entry.
                        queue[msg.src] = ts
                    yield from node.send(msg.src, "ack",
                                         payload=(clock, me))
                    if exited:
                        yield from node.send(msg.src, "rel", payload=my_ts)
                elif msg.kind == "ack":
                    acks.add(msg.src)
                elif msg.kind == "rel":
                    queue.pop(msg.src, None)
                    done.add(msg.src)
            return {"entered": entered, "exited": exited}

        return body

    for idx, name in enumerate(nodes):
        sched.spawn(member(idx, name), name=name)
    result = sched.run(on_deadlock="return", on_error="record",
                       on_steplimit="return")
    result.network_stats = net.stats()
    return result
