"""Bully-flavoured quorum leader election with terms.

Pure bully election ("highest id that answers wins") is famously unsafe
under partitions: both sides elect.  This scenario keeps the bully's
static priority — node index sets the election timeout, so the
highest-priority live node normally wins without contention — but makes
the *grant* a quorum vote with one vote per term, which is what actually
buys the safety property the oracle checks: two leaders in one term would
each need a majority, majorities intersect, and no voter votes twice in a
term.  (This is the elective core of Raft, with bully priorities as the
tiebreaker.)

Dynamics under a leader-isolating partition: the majority side times out
and elects a new leader *in a higher term* while the old leader, unable to
reach a quorum, keeps incrementing terms fruitlessly; after heal its
higher-term vote request (or the new leader's heartbeat) resolves the
split — one more election, one leader again.  ``leader_elected`` events
after the partition tick are what the MTTR analysis anchors on.

Trace vocabulary: ``election_start``, ``leader_elected``,
``leader_stepdown`` (obj = node, detail = ``{"term": t}``), judged by
:func:`repro.verify.partition.check_at_most_one_leader`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...dist import NetPlan, Network, Node
from ...runtime.errors import WaitTimeout
from ...runtime.faults import FaultPlan
from ...runtime.policies import ScriptedPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult

#: Member nodes; index = bully priority (lower index, shorter timeout).
ELECTION_NODES = ["n0", "n1", "n2"]


def build_leader_election(
    policy: ScriptedPolicy,
    netplan: Optional[NetPlan] = None,
    fault_plan: Optional[FaultPlan] = None,
    deadline: int = 120,
    nodes: Optional[Sequence[str]] = None,
) -> RunResult:
    """Run the cluster until ``deadline``; members return their final view
    (``{"term": t, "leader": bool}``).  ``nodes`` overrides the
    membership (index = bully priority; the resilience report runs five).
    A leader beats every 5 ticks; member ``idx`` stands for election
    after ``12 + 4 * idx`` ticks without hearing one."""
    sched = Scheduler(policy=policy, preemptive=True, fault_plan=fault_plan)
    net = Network(sched, netplan, latency=1)
    net.start()
    nodes = list(ELECTION_NODES if nodes is None else nodes)
    majority = len(nodes) // 2 + 1

    def member(idx: int, me: str):
        def body():
            node = Node(net, me, peers=nodes).bind(me)
            term = 0
            voted = {}                  # term -> candidate we granted
            votes = set()               # grants received for our candidacy
            is_leader = False
            last_heard = sched.now
            my_timeout = 12 + idx * 4
            next_beat = 0
            while sched.now < deadline:
                now = sched.now
                if is_leader and now >= next_beat:
                    yield from node.broadcast("beat", term=term)
                    next_beat = sched.now + 5
                    continue
                if not is_leader and now - last_heard >= my_timeout:
                    term += 1
                    voted[term] = me
                    votes = {me}
                    sched.log("election_start", me, {"term": term})
                    yield from node.broadcast("vote_req", term=term)
                    last_heard = sched.now
                    continue
                wait = (next_beat - now if is_leader
                        else my_timeout - (now - last_heard))
                wait = max(1, min(wait, deadline - now))
                try:
                    msg = yield from node.receive(timeout=wait)
                except WaitTimeout:
                    continue
                if msg.term > term:
                    term = msg.term
                    if is_leader:
                        sched.log("leader_stepdown", me, {"term": term})
                    is_leader = False
                    votes = set()
                if msg.kind == "vote_req":
                    # One vote per term; re-granting the same candidate is
                    # the idempotent answer to a retransmission.
                    if (msg.term == term
                            and voted.get(term) in (None, msg.src)):
                        voted[term] = msg.src
                        last_heard = sched.now
                        yield from node.send(msg.src, "vote_grant",
                                             term=term)
                elif msg.kind == "vote_grant":
                    if (msg.term == term and voted.get(term) == me
                            and not is_leader):
                        votes.add(msg.src)
                        if len(votes) >= majority:
                            is_leader = True
                            sched.log("leader_elected", me, {"term": term})
                            next_beat = sched.now
                elif msg.kind == "beat":
                    if msg.term == term and not is_leader:
                        last_heard = sched.now
            return {"term": term, "leader": is_leader}

        return body

    for idx, name in enumerate(nodes):
        sched.spawn(member(idx, name), name=name)
    result = sched.run(on_deadlock="return", on_error="record",
                       on_steplimit="return")
    result.network_stats = net.stats()
    return result
