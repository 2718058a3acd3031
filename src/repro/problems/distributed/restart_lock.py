"""Crash-restart under partition: the amnesiac lease holder.

The combined-fault scenario the resilience layer is built around.  A
client (``c0``) holds a quorum lease over five replicas and writes
a shared :class:`~repro.resilience.fencing.FencedResource` — storage that
stays reachable through network partitions, which is exactly why lease
validity alone cannot protect it.  A second client (``c1``) competes for
the lease.  ``c0`` runs under a :class:`~repro.resilience.supervisor.
NodeSupervisor`: a fault-plan kill restarts it with only its durable
namespace (held/token record, sequence stamps) — every volatile fact,
*including the clock-anchored lease validity horizon*, is gone.

The scripted amnesia bug: a restarted ``c0`` that finds a durable
"holding" record first attempts one lease renewal; if the renewal times
out (a partition cuts it off from every server) it falls back to trusting
the persisted record and resumes writing with its old fencing token.
Neither fault alone is harmful — after a kill alone the renewal succeeds
(the servers still recognise the holder), and under a partition alone the
original incarnation's volatile ``lease.valid`` check fences it out at
its horizon — but together they produce a stale writer interleaved with
the new holder:

* ``fencing=False`` — the resource accepts the stale token after the new
  holder's higher token: a **fencing/exclusion violation** (the
  split-brain witness the joint fault-plan search finds and minimizes to
  exactly {kill, partition});
* ``fencing=True`` — the resource rejects the first stale write after
  the new holder appears; ``c0`` fences out (a ``cs`` ``abort``), clears its
  durable hold, and re-acquires after the heal: **partition-tolerant**.

Trace vocabulary: ``cs`` events on ``"lock"``, detail ``enter`` then
``exit`` or ``abort`` (the holder is the logging process),
``fence_accept``/``fence_reject``, plus the lease, restart, and rejoin
events of the layers underneath.
"""

from __future__ import annotations

from typing import Optional

from ...dist import NetPlan, Network, Node, LeaseServer, QuorumLease
from ...recover import FixedBackoff, RestartPolicy
from ...resilience.durable import DurableStore
from ...resilience.fencing import FencedResource
from ...resilience.supervisor import NodeSupervisor
from ...runtime.errors import WaitTimeout
from ...runtime.faults import FaultPlan
from ...runtime.policies import ScriptedPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult

#: The cluster: five lease replicas (majority 3), two clients.
RESTART_SERVERS = ["s0", "s1", "s2", "s3", "s4"]
RESTART_CLIENTS = ["c0", "c1"]

#: The run ends at ``DEADLINE``; a lease is valid ``DURATION`` ticks.  A
#: write session is ``WRITES`` writes ``WRITE_EVERY`` ticks apart (the
#: amnesiac resume writes ``RESUME_WRITES``); a refused acquisition
#: retries after ``RETRY_SLEEP``.
DEADLINE = 150
DURATION = 20
WRITES = 4
RESUME_WRITES = 8
WRITE_EVERY = 2
RETRY_SLEEP = 4


def build_restart_lock(
    policy: ScriptedPolicy,
    netplan: Optional[NetPlan] = None,
    fault_plan: Optional[FaultPlan] = None,
    fencing: bool = True,
) -> RunResult:
    """Run the crash-restart-under-partition cluster to its deadline.

    Client results: ``c0`` → ``{"locked": bool, "stale_writes": int,
    "aborts": int, "incarnations": int}``, ``c1`` → ``{"locked": bool,
    "aborts": int}``.  ``result.fencing_stats`` carries the resource's
    accept/reject counters and ``result.durable_state`` the store's final
    snapshot.
    """
    sched = Scheduler(policy=policy, preemptive=True, fault_plan=fault_plan)
    net = Network(sched, netplan, latency=1)
    net.start()
    store = DurableStore()
    resource = FencedResource(sched, "store", enforce=fencing)

    def server(sid: str):
        ns = store.namespace(sid)

        def body():
            node = Node(net, sid, store=ns).bind(sid)
            lease = LeaseServer(node, duration=DURATION, store=ns)
            while True:
                remaining = DEADLINE - sched.now
                if remaining <= 0:
                    return
                try:
                    msg = yield from node.receive(timeout=remaining)
                except WaitTimeout:
                    return
                yield from lease.handle(msg)

        return body

    def c0_body(incarnation, ns):
        node = Node(net, "c0", store=ns).bind("c0")
        lease = QuorumLease(node, RESTART_SERVERS, duration=DURATION,
                            timeout=3, attempts=1)
        stale_writes = 0
        aborts = 0

        def write_session(token: int):
            """One fenced write session under a *valid* lease.  Returns
            True when every write landed (validity held throughout)."""
            sched.log("cs", "lock", "enter")
            for _ in range(WRITES):
                if not lease.valid or not resource.access("c0", token):
                    return False
                yield from sched.sleep(WRITE_EVERY)
            return True

        if incarnation > 1 and ns.get("holding"):
            # Came back from the dead mid-hold.  Correct: treat validity
            # as lost (it was volatile).  First, one polite renewal —
            # enough when the crash was the only fault:
            renew = QuorumLease(node, RESTART_SERVERS, duration=DURATION,
                                timeout=3, attempts=1)
            renewed = yield from renew.acquire()
            if renewed:
                lease = renew
                ns.put("token", lease.token)
            else:
                # The amnesia bug: cut off from every server, c0 trusts
                # the durable "holding" record — whose validity horizon
                # died with the first incarnation — and resumes writing
                # with its old token.  Only the resource-side fencing
                # check stands between this and split-brain.
                token = int(ns.get("token", 0))
                sched.log("cs", "lock", "enter")
                for _ in range(RESUME_WRITES):
                    if not resource.access("c0", token):
                        # Fenced out: a newer holder has written.
                        aborts += 1
                        sched.log("cs", "lock", "abort")
                        ns.put("holding", False)
                        break
                    stale_writes += 1
                    yield from sched.sleep(WRITE_EVERY)
                else:
                    sched.log("cs", "lock", "exit")
                    ns.put("holding", False)
                    return {"locked": True, "stale_writes": stale_writes,
                            "aborts": aborts, "incarnations": incarnation}

        while sched.now < DEADLINE:
            ok = yield from lease.acquire()
            if not ok:
                yield from sched.sleep(RETRY_SLEEP)
                continue
            ns.put("holding", True)
            ns.put("token", lease.token)
            done = yield from write_session(lease.token)
            if done:
                sched.log("cs", "lock", "exit")
                ns.put("holding", False)
                yield from lease.release()
                return {"locked": True, "stale_writes": stale_writes,
                        "aborts": aborts, "incarnations": incarnation}
            aborts += 1
            sched.log("cs", "lock", "abort")
            ns.put("holding", False)
        return {"locked": False, "stale_writes": stale_writes,
                "aborts": aborts, "incarnations": incarnation}

    def c1_body():
        node = Node(net, "c1").bind("c1")
        lease = QuorumLease(node, RESTART_SERVERS, duration=DURATION,
                            timeout=3, attempts=1)
        aborts = 0
        yield from sched.sleep(8)  # let c0 acquire first
        while sched.now < DEADLINE:
            ok = yield from lease.acquire()
            if not ok:
                yield from sched.sleep(RETRY_SLEEP)
                continue
            sched.log("cs", "lock", "enter")
            completed = True
            for _ in range(WRITES):
                if not lease.valid or not resource.access(
                        "c1", lease.token):
                    completed = False
                    break
                yield from sched.sleep(WRITE_EVERY)
            if completed:
                sched.log("cs", "lock", "exit")
                yield from lease.release()
                return {"locked": True, "aborts": aborts}
            aborts += 1
            sched.log("cs", "lock", "abort")
        return {"locked": False, "aborts": aborts}

    for sid in RESTART_SERVERS:
        sched.spawn(server(sid), name=sid)
    nsup = NodeSupervisor(
        sched, net, store,
        RestartPolicy(max_restarts=3,
                      backoff=FixedBackoff(2)),
    )
    nsup.node("c0", c0_body)
    nsup.start()
    sched.spawn(c1_body, name="c1")
    result = sched.run(on_deadlock="return", on_error="record",
                       on_steplimit="return")
    result.network_stats = net.stats()
    result.fencing_stats = resource.stats()
    result.durable_state = store.snapshot()
    return result
