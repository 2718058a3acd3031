"""Quorum-based locking: a distributed lock from quorum leases.

Three :class:`~repro.dist.quorum.LeaseServer` replicas hold the lock
state; two clients compete, each needing unexpired grants from a majority
(:class:`~repro.dist.quorum.QuorumLease`).  The client treats the critical
section as usable only while its lease is ``valid`` and *aborts* the hold
the moment validity lapses — the fencing discipline that makes the
partition story safe: a holder cut off by a partition cannot renew,
expires at its validity horizon, and the majority side re-acquires only
after every grant the old holder might still trust has aged out.  At no
virtual-clock tick are there two valid holders (the
``no-two-holders-across-partition`` oracle,
:func:`repro.verify.partition.check_lease_exclusion`).

Trace vocabulary: each client brackets a hold with ``cs`` events on
``"lock"``, detail ``enter`` then ``exit`` or ``abort`` (the holder is the
logging process), on top of the lease events emitted by
:mod:`repro.dist.quorum`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...dist import NetPlan, Network, Node, LeaseServer, QuorumLease
from ...runtime.errors import WaitTimeout
from ...runtime.faults import FaultPlan
from ...runtime.policies import ScriptedPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult

#: Replica and client node names.
LOCK_SERVERS = ["s0", "s1", "s2"]
LOCK_CLIENTS = ["c0", "c1"]


def build_quorum_lock(
    policy: ScriptedPolicy,
    netplan: Optional[NetPlan] = None,
    fault_plan: Optional[FaultPlan] = None,
    deadline: int = 110,
    duration: int = 18,
    servers: Optional[Sequence[str]] = None,
) -> RunResult:
    """Two clients each try to complete one fenced lock-hold of 6 ticks.

    ``servers`` overrides the replica set (the resilience report runs
    five); the default stays :data:`LOCK_SERVERS`.  A client's result
    records whether it ever finished a hold without losing validity
    (``{"locked": bool, "aborts": int}``).
    """
    server_ids = list(LOCK_SERVERS if servers is None else servers)
    sched = Scheduler(policy=policy, preemptive=True, fault_plan=fault_plan)
    net = Network(sched, netplan, latency=1)
    net.start()

    def server(sid: str):
        def body():
            node = Node(net, sid).bind(sid)
            lease = LeaseServer(node, duration=duration)
            while True:
                remaining = deadline - sched.now
                if remaining <= 0:
                    return
                try:
                    msg = yield from node.receive(timeout=remaining)
                except WaitTimeout:
                    return
                yield from lease.handle(msg)

        return body

    def client(cid: str):
        def body():
            node = Node(net, cid).bind(cid)
            lease = QuorumLease(node, server_ids, duration=duration,
                                timeout=4, attempts=2)
            aborts = 0
            while sched.now < deadline:
                ok = yield from lease.acquire()
                if not ok:
                    yield from sched.sleep(5)
                    continue
                sched.log("cs", "lock", "enter")
                held = 0
                while held < 6 and lease.valid:
                    yield from sched.sleep(1)
                    held += 1
                if lease.valid:
                    sched.log("cs", "lock", "exit")
                    yield from lease.release()
                    return {"locked": True, "aborts": aborts}
                # Validity lapsed mid-hold (partition, slow quorum): fence
                # out — stop touching the resource, try again.
                aborts += 1
                sched.log("cs", "lock", "abort")
            return {"locked": False, "aborts": aborts}

        return body

    for sid in server_ids:
        sched.spawn(server(sid), name=sid)
    for cid in LOCK_CLIENTS:
        sched.spawn(client(cid), name=cid)
    result = sched.run(on_deadlock="return", on_error="record",
                       on_steplimit="return")
    result.network_stats = net.stats()
    return result
