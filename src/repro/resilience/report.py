"""The combined-fault resilience report: crash × partition, at scale.

Extends the partition report along the axis the ROADMAP names: every
cell here combines a :class:`FaultPlan` (process crashes, restarted by
supervision) with a :class:`NetPlan` (partitions) against clusters of
five or more nodes, and measures what the single-fault reports cannot —
the interaction.  Three existing scenarios run at 5-node scale beside the
crash-restart-under-partition scenario
(:func:`~repro.problems.distributed.build_restart_lock`) in both its
fenced and unfenced variants:

* ``restart_lock`` (fencing on) must classify **partition-tolerant**
  under the combined fault: the resource rejects the amnesiac restarted
  holder's stale token, the holder fences out and re-acquires post-heal;
* ``restart_lock_unfenced`` must classify **split-brain** under exactly
  the same faults — the witness the joint crash × partition search
  (:func:`search_restart_witness`, on the shared fault-set search)
  finds and ddmin-minimizes to a 2-fault {kill, partition} set.

Beside MTTR, every cell reports **availability**: the fraction of
virtual time a valid leader/holder existed
(:func:`repro.obs.recovery.compute_availability`) — the number that
degrades as faults compose even when every run stays classified
tolerant.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core import ascii_table
from ..dist import NetPlan
from ..explore.campaign import (Cell, CrashSpec, CutSpec, FaultSetSearch,
                                ScenarioResult, compile_faults,
                                search_fault_sets)
from ..explore.engine import ExplorationEngine
# The scenario builders are read off the module at call time, so a
# rebinding of ``distributed.build_*`` (verdictbench's traced pass)
# reaches every scenario.
from ..problems import distributed
from ..runtime.faults import FaultPlan
from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult
from ..verify.detectors import compose_checkers, exclusion_oracle
from ..verify.partition import (SPLIT_BRAIN, TOLERANT, WEDGED,
                                check_at_most_one_leader,
                                check_fencing, check_lease_exclusion,
                                classify_net_run, election_succeeded,
                                explore_net_cells, fmt_optional,
                                lamport_succeeded, make_progress_after_heal,
                                quorum_lock_succeeded)

__all__ = [
    "RESILIENCE_CLUSTER", "resilience_scenarios", "resilience_report",
    "search_restart_witness", "expected_resilience_classifications",
]

#: Cluster size of every scenario (≥ 5 per the acceptance bar).
RESILIENCE_CLUSTER = 5
#: Member and lease-replica names at that size.
MEMBERS = ["n{}".format(i) for i in range(RESILIENCE_CLUSTER)]
SERVERS = ["s{}".format(i) for i in range(RESILIENCE_CLUSTER)]


# ----------------------------------------------------------------------
# The restart lock, shared by the scenario table and the witness search
# ----------------------------------------------------------------------
def _restart_fenced(policy, netplan, fault_plan) -> RunResult:
    return distributed.build_restart_lock(
        policy, netplan, fault_plan, fencing=True)


def _restart_unfenced(policy, netplan, fault_plan) -> RunResult:
    return distributed.build_restart_lock(
        policy, netplan, fault_plan, fencing=False)


#: A stale token accepted after a newer one, or two valid lease holders.
_RESTART_SAFETY = compose_checkers(check_fencing, check_lease_exclusion)
#: Some client completed a write session.
_RESTART_SUCCESS = quorum_lock_succeeded(distributed.RESTART_CLIENTS)


# ----------------------------------------------------------------------
# Scenario table (5-node clusters, combined-fault cells)
# ----------------------------------------------------------------------
def resilience_scenarios() -> List[Tuple]:
    """(name, builder, safety, success, cells) — the combined-fault table
    at :data:`RESILIENCE_CLUSTER` nodes.  Every non-clean cell injects a
    crash, a partition, or both; expectations encode the designed story:
    quorum scenarios tolerate a minority crash + a healed partition,
    Lamport's all-ack algorithm wedges when any member dies, and the
    restart-lock pair splits on fencing alone."""
    def lamport(policy, netplan, fault_plan):
        return distributed.build_lamport_mutex(
            policy, netplan, fault_plan, deadline=110, nodes=MEMBERS)

    def quorum(policy, netplan, fault_plan):
        # A dead replica costs every acquisition round its full timeout,
        # so the 5-server lease needs a longer validity window than the
        # 3-server default to leave usable hold time.
        return distributed.build_quorum_lock(
            policy, netplan, fault_plan, deadline=160, duration=30,
            servers=SERVERS)

    def election(policy, netplan, fault_plan):
        return distributed.build_leader_election(
            policy, netplan, fault_plan, deadline=140, nodes=MEMBERS)

    # The canonical combined fault against the restart lock: kill the
    # holder mid-write-session, with a partition that opens just before
    # the restarted incarnation's renewal and heals much later.
    restart_combo = (
        CrashSpec("c0", at_time=14),
        CutSpec("c0", at=12, heal_at=70),
    )
    combo_fp, combo_np = compile_faults(restart_combo)
    combo_fp2, combo_np2 = compile_faults(restart_combo)
    crash_only, _ = compile_faults(restart_combo[:1])
    _, cut_only = compile_faults(restart_combo[1:])

    return [
        ("lamport_mutex", lamport,
         exclusion_oracle(distributed.LAMPORT_REGION),
         lamport_succeeded(MEMBERS), [
            ("clean", None, None, TOLERANT, ()),
            # Every requester needs an ack from every member: one death
            # wedges the whole ring (safe, not live) — the scenario that
            # shows why the quorum designs below exist.
            ("crash+partition",
             NetPlan().isolate(MEMBERS[0], at=1, heal_at=45),
             FaultPlan().kill(MEMBERS[1], at_time=10),
             WEDGED, ()),
        ]),
        ("quorum_lock", quorum, check_lease_exclusion,
         quorum_lock_succeeded(distributed.LOCK_CLIENTS), [
            ("clean", None, None, TOLERANT, ()),
            # A minority of replicas crash AND a client is cut off: the
            # surviving majority keeps granting, the stranded client
            # re-acquires after the heal.
            ("crash+partition",
             NetPlan().isolate("c0", at=2, heal_at=70),
             FaultPlan().kill(SERVERS[1], at_time=8),
             TOLERANT, ("lease_acquired",)),
        ]),
        ("leader_election", election, check_at_most_one_leader,
         election_succeeded(MEMBERS), [
            ("clean", None, None, TOLERANT, ()),
            # Kill the sitting leader and cut another member: the
            # remaining majority elects a higher term.
            ("crash+partition",
             NetPlan().isolate(MEMBERS[1], at=20, heal_at=80),
             FaultPlan().kill(MEMBERS[0], at_time=30),
             TOLERANT, ("leader_elected", "leader_stepdown")),
        ]),
        ("restart_lock", _restart_fenced, _RESTART_SAFETY, _RESTART_SUCCESS, [
            ("clean", None, None, TOLERANT, ()),
            ("crash-restart", None, crash_only, TOLERANT, ()),
            ("partition-heal", cut_only, None, TOLERANT, ()),
            # The headline cell: the amnesiac restarted holder is fenced
            # at the resource and re-acquires after the heal.
            ("crash+partition", combo_np, combo_fp, TOLERANT,
             ("lease_acquired",)),
        ]),
        ("restart_lock_unfenced", _restart_unfenced, _RESTART_SAFETY,
         _RESTART_SUCCESS, [
            # Identical faults, fencing off: the stale holder's writes
            # interleave with the new holder's — split-brain.
            ("crash+partition", combo_np2, combo_fp2, SPLIT_BRAIN, ()),
        ]),
    ]


# ----------------------------------------------------------------------
# The joint-search acceptance story
# ----------------------------------------------------------------------
def search_restart_witness() -> Tuple[FaultSetSearch, str]:
    """Search the crash × partition product space against the *unfenced*
    restart lock; then replay the minimized witness against the fenced
    variant.  Returns ``(search result, fenced label)`` — the acceptance
    pair: a ≤2-fault split-brain witness unfenced, ``partition-tolerant``
    with fencing on under the very same faults.  Wedging before the heal
    already defeats, so the search classifies without a progress oracle.
    """
    def classify(run: RunResult) -> str:
        return classify_net_run(run, _RESTART_SAFETY, _RESTART_SUCCESS)[0]

    crashes = [CrashSpec("c0", at_time=t) for t in (12, 14, 16)]
    cuts = [CutSpec("c0", at=a, heal_at=70) for a in (10, 12)]
    found = search_fault_sets(_restart_unfenced, classify, crashes + cuts,
                              bad_labels=(SPLIT_BRAIN,), max_faults=2,
                              budget=40)
    fenced_label = ""
    if found.witness is not None:
        fp, np = found.witness_plans()
        fenced_label = classify(_restart_fenced(ScriptedPolicy([]), np, fp))
    return found, fenced_label


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def resilience_report(fast: bool = False) -> Tuple[List[ScenarioResult], str]:
    """Run every scenario × combined-fault cell; return (results, table)."""
    results = [
        explore_net_cells(
            name, build,
            [Cell(cell_name, fault_plan, netplan, expected,
                  make_progress_after_heal(netplan or NetPlan(), heal_kinds))
             for cell_name, netplan, fault_plan, expected, heal_kinds
             in cells],
            safety, success, engine=ExplorationEngine,
            max_runs=1 if fast else 3, cluster=RESILIENCE_CLUSTER)
        for name, build, safety, success, cells
        in resilience_scenarios()]
    table = ascii_table(
        ["scenario", "faults", "runs", "restarts", "failover mttr",
         "post-heal mttr", "availability", "classification"],
        [[res.name, o.cell_name, str(o.runs), str(o.restarts),
          fmt_optional(o.mttr_failover, "{:.1f}"),
          fmt_optional(o.mttr_post_heal, "{:.1f}"),
          fmt_optional(o.availability, "{:.0%}"), o.classification]
         for res in results for o in res.outcomes],
        title="Combined-fault resilience at {} nodes (majority {}; "
              "mttr in virtual ticks)".format(
                  RESILIENCE_CLUSTER, RESILIENCE_CLUSTER // 2 + 1),
    )
    return results, table


def expected_resilience_classifications() -> Dict[Tuple[str, str], str]:
    """(scenario, cell) -> predicted classification, for the tests."""
    out: Dict[Tuple[str, str], str] = {}
    for name, __, __, __, cells in resilience_scenarios():
        for cell_name, __, __, expected, __ in cells:
            out[(name, cell_name)] = expected
    return out
