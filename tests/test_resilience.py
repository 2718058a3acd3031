"""Combined-fault resilience: durable state, crash-restart supervision,
fencing enforcement, and the joint crash x partition fault-plan search
(DESIGN.md section 16).

The acceptance bar: neither a crash alone nor a partition alone harms the
restart-lock scenario, the combined pair yields a split-brain witness when
the resource does not check fencing tokens, the very same pair is
partition-tolerant with fencing on — and the joint search finds and
ddmin-minimizes that pair automatically.
"""

import pytest

from repro.dist import Network
from repro.obs.recovery import compute_availability
from repro.problems.distributed import build_restart_lock
from repro.explore.campaign import (
    CrashSpec,
    CutSpec,
    compile_faults,
    describe_faults,
    search_fault_sets,
)
from repro.explore.ddmin import ddmin
from repro.resilience import (
    QUARANTINE,
    REPLAY,
    DurableStore,
    FencedResource,
    NodeSupervisor,
)
from repro.resilience.report import (
    expected_resilience_classifications,
    resilience_scenarios,
    search_restart_witness,
)
from repro.runtime.errors import WaitTimeout
from repro.runtime.faults import FaultPlan
from repro.runtime.policies import ScriptedPolicy
from repro.runtime.scheduler import Scheduler
from repro.verify.partition import SPLIT_BRAIN, TOLERANT, check_fencing

# The hand-written minimal combined fault: kill c0 mid-hold, with a
# partition around the restart window that heals later.  Matches the
# restart_lock cells in the resilience report.
COMBINED = (CrashSpec("c0", at_time=14), CutSpec("c0", at=12, heal_at=70))


def _restart_run(faults=(), fencing=True):
    fault_plan, netplan = compile_faults(list(faults))
    return build_restart_lock(ScriptedPolicy([]), netplan, fault_plan,
                              fencing=fencing)


# ----------------------------------------------------------------------
# Durable store
# ----------------------------------------------------------------------
class TestDurableStore:
    def test_namespace_persists_and_snapshots(self):
        store = DurableStore()
        ns = store.namespace("n0")
        ns.put("seq", 7)
        assert store.namespace("n0") is ns       # one namespace per node
        assert ns.get("seq") == 7
        assert "seq" in ns and len(ns) == 1
        snap = ns.snapshot()
        ns.put("seq", 8)
        assert snap == {"seq": 7}                # snapshot is a copy
        assert store.snapshot() == {"n0": {"seq": 8}}

    def test_delete_and_clear(self):
        ns = DurableStore().namespace("n0")
        ns.put("a", 1)
        ns.delete("a")
        ns.delete("missing")                     # idempotent
        assert ns.get("a", "gone") == "gone"
        ns.put("b", 2)
        ns.clear()
        assert len(ns) == 0

    def test_begin_wipes_for_replay(self):
        store = DurableStore()
        store.namespace("n0").put("k", 1)
        store.begin()
        assert store.snapshot() == {}
        assert store.namespace("n0").get("k") is None


# ----------------------------------------------------------------------
# Fencing enforcement
# ----------------------------------------------------------------------
class TestFencedResource:
    def test_rejects_stale_token_when_enforcing(self):
        sched = Scheduler()
        res = FencedResource(sched, "store")
        assert res.access("c0", 1)
        assert res.access("c1", 2)               # newer session
        assert not res.access("c0", 1)           # stale: fenced out
        assert res.access("c1", 2)               # same session again: fine
        assert res.stats() == {"writes": 3, "rejected": 1,
                               "highest": 2, "enforced": True}
        # The rejection is trace-visible for the oracle.
        reject = sched.trace.first(kind="fence_reject")
        assert reject.obj == "c0"
        assert reject.detail == {"token": 1, "highest": 2}

    def test_unenforced_resource_records_the_violation(self):
        sched = Scheduler()
        res = FencedResource(sched, "store", enforce=False)
        assert res.access("c1", 2)
        assert res.access("c0", 1)               # accepted: no check

        class _Run:                              # check_fencing reads .trace
            trace = sched.trace

        violations = check_fencing(_Run())
        assert violations and "token" in violations[0]


# ----------------------------------------------------------------------
# NodeSupervisor: restart with durable state and rejoin rules
# ----------------------------------------------------------------------
def _supervised_node_run(rejoin):
    """Kill node n0 at t=8 while a peer keeps sending; restart at t=12.
    Returns (result, store, nodesup)."""
    plan = FaultPlan().kill("n0", at_time=8)
    sched = Scheduler(fault_plan=plan)
    net = Network(sched)
    store = DurableStore()

    from repro.recover import FixedBackoff, RestartPolicy

    def body(incarnation, ns):
        if incarnation == 1:
            ns.put("legacy", 42)                 # durable record
        got = []                                 # volatile: dies with us
        while sched.now < 30:
            try:
                msg = yield from net.node("n0").receive(
                    timeout=30 - sched.now)
            except WaitTimeout:
                break
            got.append(msg)
        return {"incarnation": incarnation, "got": got,
                "legacy": ns.get("legacy")}

    def peer():
        yield from sched.sleep(9)
        yield from net.node("n0").send("while-dead-1")   # t=9
        yield from sched.sleep(1)
        yield from net.node("n0").send("while-dead-2")   # t=10
        yield from sched.sleep(5)
        yield from net.node("n0").send("after-rejoin")   # t=15

    def ticker():
        # Keeps the virtual clock advancing tick by tick so the at_time
        # kill fires punctually at t=8.
        for _ in range(31):
            yield from sched.sleep(1)

    nsup = NodeSupervisor(
        sched, net, store,
        RestartPolicy(backoff=FixedBackoff(4)), rejoin=rejoin)
    nsup.node("n0", body)
    nsup.start()
    sched.spawn(peer, name="peer")
    sched.spawn(ticker, name="ticker")
    result = sched.run(on_deadlock="return", on_error="record")
    return result, store, nsup


class TestNodeSupervisor:
    def test_quarantine_drops_backlog_keeps_durable_state(self):
        result, store, nsup = _supervised_node_run(QUARANTINE)
        out = result.results["n0"]
        assert out["incarnation"] == 2
        assert nsup.incarnations("n0") == 2
        # Durable record written by incarnation 1 survived the crash...
        assert out["legacy"] == 42
        assert store.namespace("n0").get("legacy") == 42
        # ...but the while-dead backlog was quarantined on rejoin: the
        # new incarnation only sees traffic sent after it came back.
        assert out["got"] == ["after-rejoin"]
        rejoin = result.trace.first(kind="node_rejoin")
        assert rejoin.detail == {"incarnation": 2}
        quarantine = result.trace.first(kind="inbox_quarantine")
        assert quarantine.detail == {"dropped": 2}
        restart = result.trace.filter(kind="restart", obj="n0")[0]
        killed = result.trace.filter(kind="killed", obj="n0")[0]
        assert killed.time == 8
        assert restart.time - killed.time == 4   # the configured backoff

    def test_replay_hands_backlog_to_new_incarnation(self):
        result, __, __ = _supervised_node_run(REPLAY)
        out = result.results["n0"]
        assert out["incarnation"] == 2
        assert out["got"] == ["while-dead-1", "while-dead-2",
                              "after-rejoin"]
        assert result.trace.first(kind="inbox_quarantine") is None

    def test_rejects_unknown_rejoin_policy(self):
        sched = Scheduler()
        net = Network(sched)
        with pytest.raises(ValueError):
            NodeSupervisor(sched, net, rejoin="resurrect")


# ----------------------------------------------------------------------
# The restart-lock scenario: fault minimality and both fencing worlds
# ----------------------------------------------------------------------
class TestRestartLockScenario:
    def test_crash_alone_is_survivable(self):
        # The restarted incarnation's polite renewal succeeds — no stale
        # writes in either fencing world, so the crash is not a witness.
        for fencing in (True, False):
            run = _restart_run([COMBINED[0]], fencing=fencing)
            assert check_fencing(run) == []
            assert run.results["c0"]["stale_writes"] == 0
            assert run.results["c0"]["incarnations"] == 2

    def test_partition_alone_is_survivable(self):
        # The original incarnation's volatile validity check fences it
        # out at its horizon; no restart, no amnesia.
        for fencing in (True, False):
            run = _restart_run([COMBINED[1]], fencing=fencing)
            assert check_fencing(run) == []
            assert run.results["c0"]["stale_writes"] == 0
            assert run.results["c0"]["incarnations"] == 1

    def test_combined_faults_split_brain_when_unfenced(self):
        run = _restart_run(COMBINED, fencing=False)
        # The amnesiac holder resumed writing with its dead session's
        # token after the new holder took over: exclusion broke.
        assert run.results["c0"]["stale_writes"] > 0
        assert run.results["c1"]["locked"]
        violations = check_fencing(run)
        assert violations
        assert run.fencing_stats["enforced"] is False
        assert run.trace.first(kind="node_rejoin") is not None

    def test_combined_faults_tolerant_when_fenced(self):
        run = _restart_run(COMBINED, fencing=True)
        assert check_fencing(run) == []
        # The resource rejected the stale session; c0 fenced out...
        assert run.fencing_stats["rejected"] >= 1
        assert run.trace.first(
            kind="cs", predicate=lambda ev: ev.detail == "abort") is not None
        # ...cleared its durable hold, and re-acquired after the heal.
        assert run.results["c0"]["locked"]
        heal_at = COMBINED[1].heal_at
        regrants = [ev for ev in run.trace.filter(kind="lease_acquired")
                    if ev.time >= heal_at]
        assert regrants
        assert run.results["c1"]["locked"]

    def test_availability_counts_post_heal_service(self):
        # Availability is the unioned holder-validity time over the run
        # horizon.  (It is *not* monotone in faults for a terminating
        # scenario — the faulted run holds the lease again post-heal
        # while the clean run is simply finished — so what we pin is the
        # interval structure, not an ordering.)
        clean = compute_availability(_restart_run([]))
        faulted = compute_availability(_restart_run(COMBINED))
        for avail in (clean, faulted):
            assert avail.intervals
            assert 0.0 < avail.fraction <= 1.0
            assert all(s < e for s, e in avail.intervals)
        # The faulted run's recovery shows up as a held interval that
        # starts only after the partition heals.
        heal_at = COMBINED[1].heal_at
        assert any(s >= heal_at for s, __ in faulted.intervals)
        assert all(s < heal_at for s, __ in clean.intervals)


# ----------------------------------------------------------------------
# Joint fault-plan search
# ----------------------------------------------------------------------
def _product_classifier(bad_process, bad_node):
    """A synthetic scenario that fails exactly when BOTH the crash of
    ``bad_process`` and the cut of ``bad_node`` are present."""
    def build(policy, netplan, fault_plan):
        return (fault_plan, netplan)

    def classify(run):
        fault_plan, netplan = run
        kills = ({f.process for f in fault_plan.faults}
                 if fault_plan is not None else set())
        cut = (netplan is not None
               and netplan.partitioned(bad_node, "other", 5))
        return SPLIT_BRAIN if (bad_process in kills and cut) else TOLERANT

    return build, classify


class TestJointSearch:
    def test_joint_plan_compiles_both_sides(self):
        fault_plan, netplan = compile_faults(list(COMBINED))
        assert fault_plan.kill_due("c0", steps=0, now=14) is not None
        assert netplan.partitioned("c0", "s0", 12)
        assert not netplan.partitioned("c0", "s0", 70)
        assert describe_faults(COMBINED) == (
            "kill c0 at t=14; isolate c0 at t=12 (heals at t=70)")
        # Empty sides stay None so builders keep their defaults.
        assert compile_faults([COMBINED[0]])[1] is None
        assert compile_faults([COMBINED[1]])[0] is None

    def test_search_proves_singletons_insufficient_then_finds_pair(self):
        build, classify = _product_classifier("a", "n0")
        crashes = [CrashSpec("a", 1), CrashSpec("b", 1)]
        cuts = [CutSpec("n0", 0, 10)]
        found = search_fault_sets(build, classify, crashes + cuts,
                                  bad_labels=(SPLIT_BRAIN,), max_faults=2)
        # 3 singletons (all tolerant) then pairs until the witness.
        assert found.tried >= 4
        assert found.witness == (CrashSpec("a", 1), CutSpec("n0", 0, 10))
        assert found.witness_label == SPLIT_BRAIN
        assert (found.witness_kills, found.witness_cuts) == (1, 1)

    def test_minimize_drops_redundant_faults(self):
        build, classify = _product_classifier("a", "n0")
        bloated = [CrashSpec("a", 1), CrashSpec("b", 1),
                   CutSpec("n0", 0, 10)]
        def still_bad(faults):
            fault_plan, netplan = compile_faults(faults)
            run = build(ScriptedPolicy([]), netplan, fault_plan)
            return classify(run) == SPLIT_BRAIN

        witness, tests = ddmin(bloated, still_bad)
        assert set(witness) == {CrashSpec("a", 1), CutSpec("n0", 0, 10)}
        assert tests >= 1

    def test_witness_dict_round_trips_to_replayable_plans(self):
        build, classify = _product_classifier("a", "n0")
        found = search_fault_sets(
            build, classify, [CrashSpec("a", 1), CutSpec("n0", 0, 10)],
            bad_labels=(SPLIT_BRAIN,))
        payload = found.to_dict()
        from repro.dist import NetPlan

        fault_plan = FaultPlan.from_dict(payload["witness_fault_plan"])
        netplan = NetPlan.from_dict(payload["witness_net_plan"])
        assert fault_plan.kill_due("a", steps=0, now=1) is not None
        assert netplan.partitioned("n0", "x", 5)
        assert payload["witness_kills"] == 1
        assert payload["witness_cuts"] == 1


class TestRestartWitnessSearch:
    def test_finds_minimal_combined_witness(self):
        # The headline acceptance: the search over the crash x partition
        # product space finds a split-brain witness against the unfenced
        # scenario, ddmin leaves at most 2 faults (one of each kind), and
        # the identical faults are tolerated with fencing on.
        found, fenced_label = search_restart_witness()
        assert found.witness is not None
        assert found.witness_label == SPLIT_BRAIN
        assert len(found.witness) <= 2
        assert found.witness_kills == 1
        assert found.witness_cuts == 1
        assert fenced_label == TOLERANT
        # Singletons were all tried before any pair was: the witness
        # being a pair proves no single fault suffices.
        assert found.tried > 5


# ----------------------------------------------------------------------
# Scenario table and expectations
# ----------------------------------------------------------------------
class TestScenarioTable:
    def test_scenarios_cover_both_fencing_worlds(self):
        names = [name for name, *_ in resilience_scenarios()]
        assert names == ["lamport_mutex", "quorum_lock", "leader_election",
                         "restart_lock", "restart_lock_unfenced"]

    def test_expected_classifications_include_the_witness_cell(self):
        expected = expected_resilience_classifications()
        assert expected[("restart_lock", "crash+partition")] == TOLERANT
        assert expected[("restart_lock_unfenced",
                         "crash+partition")] == SPLIT_BRAIN
        # Every scenario has a clean cell that must tolerate nothing-
        # happening.
        for (scenario, cell), label in expected.items():
            if cell == "clean":
                assert label == TOLERANT, scenario
