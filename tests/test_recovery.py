"""Recovery runtime: supervision, lease reclamation, backoff, degradation,
fault-plan search, and the recovery oracles (DESIGN.md "Recovery model").

The acceptance bar: every chaos scenario that wedges *unsupervised* (the
raw semaphore) must classify recovered or degraded under supervision, with
the exclusion oracle holding across every restart boundary — and the
fault-plan search must find the minimal crash set that still defeats
recovery (killing the healer itself).
"""

import pytest

from repro.obs.recovery import (
    compute_recovery_metrics,
    recovery_spans,
)
from repro.recover import (
    Degrader,
    ExponentialBackoff,
    FixedBackoff,
    LeaseManager,
    NoBackoff,
    RestartPolicy,
    Supervisor,
    retry_with_backoff,
)
from repro.explore import ExplorationEngine
from repro.explore.campaign import KillSpec, compile_faults
from repro.explore.ddmin import ddmin
from repro.mechanisms.channels import Channel
from repro.runtime import (
    FaultPlan,
    Mutex,
    RandomPolicy,
    Scheduler,
    Semaphore,
    WaitTimeout,
)
from repro.verify.chaos import LOCKS, explore_kills
from repro.verify.recovery import (
    DEGRADED,
    LABELS,
    RECOVERED,
    RECOVERY_SCENARIOS,
    VIOLATED,
    WEDGED,
    classify_recovery_run,
    exclusion_oracle,
    expected_recovery,
    minimal_defeat_witness,
    mttr_fingerprints,
    recovery_report,
)
from tests.test_chaos import _two_permit_semaphore


def _noop():
    return
    yield  # pragma: no cover — makes this a generator function


def _one_step():
    yield


# ----------------------------------------------------------------------
# Backoff policies and the retry combinator
# ----------------------------------------------------------------------
class TestBackoff:
    def test_policy_delays(self):
        assert [NoBackoff().delay(i) for i in range(3)] == [0, 0, 0]
        assert [FixedBackoff(5).delay(i) for i in range(3)] == [5, 5, 5]
        assert [ExponentialBackoff(1, 2, cap=4).delay(i)
                for i in range(5)] == [1, 2, 4, 4, 4]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FixedBackoff(-1)
        with pytest.raises(ValueError):
            ExponentialBackoff(base=0)

    def test_retry_recovers_after_timeouts(self):
        # Producer shows up late; consumer retries with exponential
        # backoff until the rendezvous lands.
        sched = Scheduler()
        chan = Channel(sched, name="c")
        outcome = {}

        def consumer():
            yield from retry_with_backoff(
                lambda i: chan.receive(timeout=2),
                attempts=3,
                backoff=ExponentialBackoff(),
                sched=sched,
            )
            outcome["got"] = sched.now

        def producer():
            yield from sched.sleep(5)
            yield from chan.send("late")

        sched.spawn(consumer, name="C")
        sched.spawn(producer, name="P")
        sched.run()
        assert "got" in outcome

    def test_retry_exhausts_budget(self):
        sched = Scheduler()
        chan = Channel(sched, name="c")
        caught = {}

        def consumer():
            try:
                yield from retry_with_backoff(
                    lambda i: chan.receive(timeout=1),
                    attempts=2, backoff=FixedBackoff(1), sched=sched,
                )
            except WaitTimeout as exc:
                caught["exc"] = exc

        sched.spawn(consumer, name="C")
        sched.run()
        assert isinstance(caught["exc"], WaitTimeout)
        # 2 timed waits (1 tick each) + 1 backoff tick between them.
        assert sched.now == 3

    def test_retry_rejects_zero_attempts(self):
        gen = retry_with_backoff(lambda i: iter(()), attempts=0)
        with pytest.raises(ValueError):
            next(gen)


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _run_supervised(fault_plan=None, policy=None, leases=None,
                    children=2, body=None, **run_kw):
    """One supervised scheduler run; returns (sched, sup, result)."""
    sched = Scheduler(fault_plan=fault_plan)
    sup = Supervisor(sched, policy, leases=leases)

    def default_body():
        yield from sched.checkpoint()

    for i in range(children):
        sup.child("P{}".format(i), body or default_body)
    sup.start()
    result = sched.run(on_deadlock="return", on_error="record", **run_kw)
    return sched, sup, result


class TestSupervisor:
    def test_restarts_killed_child(self):
        plan = FaultPlan().kill("P0", at_step=0)
        __, sup, result = _run_supervised(fault_plan=plan)
        report = sup.report()
        assert report["children"]["P0"]["restarts"] == 1
        assert report["children"]["P0"]["state"] == "done"
        assert report["children"]["P1"]["restarts"] == 0
        assert not result.deadlocked
        # The trace tells the full story: kill, restart, completion.
        assert len(result.trace.filter(kind="restart", obj="P0")) == 1

    def test_backoff_spaces_restart(self):
        plan = FaultPlan().kill("P0", at_step=0)
        __, __, result = _run_supervised(
            fault_plan=plan,
            policy=RestartPolicy(backoff=FixedBackoff(7)),
        )
        restart = result.trace.filter(kind="restart", obj="P0")[0]
        killed = result.trace.filter(kind="killed", obj="P0")[0]
        assert restart.time - killed.time == 7

    def test_backoff_composes_with_injected_wakeup_delay(self):
        # The supervisor's own wakeups are fault-injectable: with
        # ``delay_wakeups("sup", 3)`` the death notification that unparks
        # the supervisor lands 3 ticks late, and only then does the
        # backoff timer start — so the restart gap is backoff + delay,
        # not max(backoff, delay).  The timing fingerprint must be
        # identical under different random schedules: every leg is
        # virtual-time, so scheduling noise cannot leak into it.
        def gap(seed, delayed):
            plan = FaultPlan().kill("P0", at_time=10)
            if delayed:
                plan.delay_wakeups("sup", ticks=3)
            sched = Scheduler(policy=RandomPolicy(seed), fault_plan=plan)
            sup = Supervisor(sched, RestartPolicy(backoff=FixedBackoff(5)))

            def victim():
                yield from sched.sleep(20)

            def sibling():
                yield from sched.sleep(30)

            sup.child("P0", victim)
            sup.child("P1", sibling)
            sup.start()
            result = sched.run(on_deadlock="return", on_error="record")
            killed = result.trace.filter(kind="killed", obj="P0")[0]
            restart = result.trace.filter(kind="restart", obj="P0")[0]
            if delayed:
                assert result.trace.first(kind="wake_delayed") is not None
            assert sup.report()["children"]["P0"]["state"] == "done"
            return restart.time - killed.time

        assert [gap(seed, True) for seed in (1, 2)] == [8, 8]
        # Control: without injection the gap is the bare backoff.
        assert [gap(seed, False) for seed in (1, 2)] == [5, 5]

    def test_restart_budget_gives_up(self):
        # P0 is killed twice (second kill targets the restarted
        # incarnation) but the budget allows a single restart.
        plan = FaultPlan().kill("P0", at_step=0).kill("P0", at_step=0)
        __, sup, result = _run_supervised(
            fault_plan=plan, policy=RestartPolicy(max_restarts=1),
        )
        report = sup.report()
        assert report["children"]["P0"]["state"] == "given_up"
        assert report["giveups"] == 1
        assert len(result.trace.filter(kind="restart_giveup")) == 1
        # The sibling still completes: giving up is containment, not wedge.
        assert report["children"]["P1"]["state"] == "done"

    def test_escalate_kills_remaining_children(self):
        plan = FaultPlan().kill("P0", at_step=0)
        sched = Scheduler(fault_plan=plan)
        sup = Supervisor(
            sched, RestartPolicy(strategy="escalate", max_restarts=0)
        )

        def blocked_forever():
            yield from sched.park("wait", "never")

        def victim():
            yield from sched.checkpoint()

        sup.child("P0", victim)
        sup.child("P1", blocked_forever)
        sup.start()
        result = sched.run(on_deadlock="return", on_error="record")
        report = sup.report()
        assert report["escalated"]
        assert len(result.trace.filter(kind="escalate")) == 1
        # P1 was taken down by the escalation instead of wedging the run.
        assert "P1" in result.failed()
        assert not result.deadlocked

    def test_restart_window_resets_budget(self):
        # With a sliding window, old restarts age out of the budget: two
        # kills separated by a long sleep both get restarts even though
        # max_restarts=1.
        plan = FaultPlan().kill("P0", at_step=0).kill("P1", at_step=1)
        sched = Scheduler(fault_plan=plan)
        sup = Supervisor(
            sched,
            RestartPolicy(max_restarts=1, window=5,
                          backoff=FixedBackoff(1)),
        )

        def early():
            yield from sched.checkpoint()

        def late():
            yield from sched.sleep(50)

        sup.child("P0", early)
        sup.child("P1", late)
        sup.start()
        result = sched.run(on_deadlock="return", on_error="record")
        assert len(result.trace.filter(kind="restart")) == 2
        assert sup.report()["giveups"] == 0

    def test_rejects_children_after_start(self):
        sched = Scheduler()
        sup = Supervisor(sched)
        sup.child("P0", _noop)
        sup.start()
        with pytest.raises(RuntimeError):
            sup.child("P1", _noop)

    def test_supervisor_report_is_run_result(self):
        plan = FaultPlan().kill("P0", at_step=0)
        __, sup, result = _run_supervised(fault_plan=plan)
        assert result.results["sup"]["restarts"] == 1


# ----------------------------------------------------------------------
# Lease reclamation
# ----------------------------------------------------------------------
class TestLeases:
    def test_guard_requires_hook(self):
        sched = Scheduler()
        leases = LeaseManager(sched)
        with pytest.raises(TypeError):
            leases.guard(object())

    def test_semaphore_permit_reclaimed(self):
        # The paper's wedging primitive: a raw semaphore whose holder dies.
        # Lease reclamation revokes the permit so the waiter proceeds.
        # (Step 2 is inside the critical region: step 0 is the preemptive
        # entry yield inside p(), step 1 acquires and parks at checkpoint.)
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        leases = LeaseManager(sched)
        sem = leases.guard(
            Semaphore(sched, initial=1, name="s", crash_release=False)
        )
        sup = Supervisor(sched, leases=leases)

        def worker():
            yield from sem.p()
            yield from sched.checkpoint()
            sem.v()

        sup.child("P0", worker)
        sup.child("P1", worker)
        sup.start()
        result = sched.run(on_deadlock="return", on_error="record")
        assert not result.deadlocked
        assert [a.outcome for a in leases.actions] == ["released 1 permit"]
        assert len(result.trace.filter(kind="reclaim")) == 1

    def test_sweep_reclaims_without_supervisor(self):
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        leases = LeaseManager(sched)
        lock = leases.guard(Mutex(sched, name="m"))

        def worker():
            yield from lock.acquire()
            yield from sched.checkpoint()
            lock.release()

        sched.spawn(worker, name="P0")
        result = sched.run(on_deadlock="return", on_error="record")
        assert "P0" in result.failed()
        # Robust mutex already released on death; sweep finds nothing left.
        assert leases.sweep() == []

    def test_reclaim_is_idempotent(self):
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        leases = LeaseManager(sched)
        leases.guard(
            Semaphore(sched, initial=1, name="s", crash_release=False)
        )

        def worker():
            yield from leases.guarded[0].p()
            yield from sched.checkpoint()
            leases.guarded[0].v()

        sched.spawn(worker, name="P0")
        sched.run(on_deadlock="return", on_error="record")
        first = leases.sweep()
        assert len(first) == 1
        assert leases.sweep() == []  # nothing left to revoke


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_degrader_threshold(self):
        sched = Scheduler()
        sem = Semaphore(sched, initial=1, name="s", wake_policy="lifo")
        degrader = Degrader(sched, threshold=2)
        assert degrader.note_crash([sem]) == []
        assert not degrader.degraded
        relaxed = degrader.note_crash([sem])
        assert degrader.degraded
        assert relaxed == [("s", "wake policy lifo -> fifo")]
        assert sem._wake_policy == "fifo"
        # Further crashes never degrade twice.
        assert degrader.note_crash([sem]) == []

    def test_degrade_preserves_exclusion_relaxes_priority(self):
        # Under repeated crashes the LIFO semaphore falls back to FIFO
        # (priority constraint relaxed) but the run stays exclusion-safe
        # and classifies degraded, not wedged/violated.
        from repro.verify.recovery import _sem_recovery
        from repro.runtime.policies import ScriptedPolicy

        build = _sem_recovery(degrade_after=1)
        plan = FaultPlan().kill("P0", at_step=2)
        run = build(ScriptedPolicy([]), plan)
        label, messages = classify_recovery_run(
            run, ("P0",), exclusion_oracle("s")
        )
        assert label == DEGRADED
        assert messages == []
        assert len(run.trace.filter(kind="degrade")) == 1


# ----------------------------------------------------------------------
# Recovery classification and oracles
# ----------------------------------------------------------------------
class TestClassification:
    def test_exclusion_oracle_flags_overlap(self):
        sched = Scheduler(preemptive=True)

        def p0():
            sched.log("cs", "r", "enter")
            yield from sched.checkpoint()
            sched.log("cs", "r", "exit")

        def p1():
            sched.log("cs", "r", "enter")
            yield
            sched.log("cs", "r", "exit")

        sched.spawn(p0, name="P0")
        sched.spawn(p1, name="P1")
        run = sched.run()
        messages = exclusion_oracle("r")(run)
        assert messages and "while" in messages[0]

    def test_exclusion_oracle_closes_interval_at_death(self):
        # A corpse that died inside the region must not count as "inside"
        # when its restarted incarnation (same name, new pid) re-enters.
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan)
        sup = Supervisor(sched)

        def worker():
            sched.log("cs", "r", "enter")
            yield from sched.checkpoint()
            yield from sched.checkpoint()
            sched.log("cs", "r", "exit")

        sup.child("P0", worker)
        sup.start()
        run = sched.run(on_deadlock="return", on_error="record")
        assert exclusion_oracle("r")(run) == []

    def test_classify_missed_without_victim_death(self):
        sched = Scheduler()
        sched.spawn(_noop, name="P0")
        run = sched.run()
        assert classify_recovery_run(run, ("P0",))[0] == "missed"

    def test_classify_wedged_on_deadlock(self):
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        sem = Semaphore(sched, initial=1, name="s", crash_release=False)

        def worker():
            yield from sem.p()
            yield from sched.checkpoint()
            sem.v()

        sched.spawn(worker, name="P0")
        sched.spawn(worker, name="P1")
        run = sched.run(on_deadlock="return", on_error="record")
        assert classify_recovery_run(run, ("P0",))[0] == WEDGED

    def test_classify_degraded_on_giveup(self):
        plan = FaultPlan().kill("P0", at_step=0).kill("P0", at_step=0)
        __, __, run = _run_supervised(
            fault_plan=plan, policy=RestartPolicy(max_restarts=1),
        )
        assert classify_recovery_run(run, ("P0",))[0] == DEGRADED

    def test_classify_recovered(self):
        plan = FaultPlan().kill("P0", at_step=0)
        __, __, run = _run_supervised(fault_plan=plan)
        assert classify_recovery_run(run, ("P0",))[0] == RECOVERED


# ----------------------------------------------------------------------
# The supervised scenarios (fast tier; bench_recovery runs the full sweep)
# ----------------------------------------------------------------------
def test_recovery_report_fast_matches_contract():
    results, table = recovery_report(fast=True)
    expected = expected_recovery()
    for res in results:
        assert res.classification in expected[res.name], res.name
        assert res.count(WEDGED) == 0, res.name
        assert res.count(VIOLATED) == 0, res.name
        assert res.surprises == [], res.name
    assert "recovered" in table


def test_previously_wedged_scenario_recovers_supervised():
    # The acceptance criterion, pinned: chaos classifies the raw semaphore
    # fault-deadlocking; its supervised variant fully recovers.
    from repro.verify.chaos import DEADLOCKING, expected_classifications

    assert expected_classifications()["semaphore"] == DEADLOCKING
    results, __ = recovery_report(fast=True)
    by_name = {r.name: r for r in results}
    assert by_name["semaphore"].classification == RECOVERED


def test_recovery_catches_a_two_permit_lock(monkeypatch):
    """Mutation: with two permits, two supervised workers share the
    critical region.  The semaphore row's exclusion oracle must see the
    overlap, so the row is violated, never recovered (the chaos half of
    this gate is in test_chaos)."""
    monkeypatch.setitem(LOCKS, "semaphore", ("s", _two_permit_semaphore))
    name, factory, victim, obj, __ = next(
        row for row in RECOVERY_SCENARIOS if row[0] == "semaphore")
    check = exclusion_oracle(obj)
    result = explore_kills(
        name, factory(), victim,
        lambda run, cell: classify_recovery_run(run, (victim,), check),
        LABELS, engine=ExplorationEngine, max_runs=25, max_depth=60)
    assert result.classification == VIOLATED
    assert any("entered s while" in message
               for message in result.violations)


def test_mttr_fingerprints_cover_all_mechanisms_deterministically():
    first = mttr_fingerprints()
    assert set(first) == {
        "semaphore", "semaphore+degrade", "mutex", "monitor",
        "serializer", "ccr", "pathexpr", "channel",
    }
    for name, fp in first.items():
        assert fp["recovery_rate"] == 1.0, name
        assert fp["mttr"] >= 1, name
    assert mttr_fingerprints() == first


# ----------------------------------------------------------------------
# Fault-plan search
# ----------------------------------------------------------------------
class TestFaultSearch:
    def test_two_fault_witness_defeats_recovery(self):
        result = minimal_defeat_witness()
        assert result.witness is not None
        assert len(result.witness) == 2
        assert {k.process for k in result.witness} >= {"sup"}
        assert result.witness_label == WEDGED

    def test_witness_is_one_minimal(self):
        # Each kill alone must NOT defeat recovery (ddmin's guarantee).
        from repro.runtime.policies import ScriptedPolicy
        from repro.verify.recovery import _sem_recovery

        result = minimal_defeat_witness()
        build = _sem_recovery()
        for kill in result.witness:
            run = build(ScriptedPolicy([]), compile_faults([kill])[0])
            label, __ = classify_recovery_run(
                run, ("P0", "P1", "P2"), exclusion_oracle("s")
            )
            assert label not in (WEDGED, VIOLATED), kill.describe()

    def test_minimize_drops_redundant_kills(self):
        from repro.runtime.policies import ScriptedPolicy
        from repro.verify.recovery import _sem_recovery

        build = _sem_recovery()

        def classify(run):
            label, __ = classify_recovery_run(
                run, ("P0", "P1", "P2"), exclusion_oracle("s")
            )
            return label

        # Pad the true 2-kill witness with a harmless kill of P2 at step 0
        # (it gets restarted before anyone needs the permit).
        bloated = [
            KillSpec("sup", 0), KillSpec("P2", 0), KillSpec("P0", 2),
        ]
        def still_bad(kills):
            plan = compile_faults(kills)[0]
            return classify(build(ScriptedPolicy([]), plan)) in (WEDGED,
                                                                 VIOLATED)

        plan = compile_faults(bloated)[0]
        assert classify(build(ScriptedPolicy([]), plan)) == WEDGED  # bad...
        witness, tests = ddmin(bloated, still_bad)
        assert len(witness) == 2  # ...but two kills carry it
        assert {k.process for k in witness} == {"sup", "P0"}
        assert tests >= 2


# ----------------------------------------------------------------------
# MTTR observability
# ----------------------------------------------------------------------
class TestRecoveryObservability:
    def test_spans_fold_death_restart_exit(self):
        plan = FaultPlan().kill("P0", at_step=0)
        __, __, run = _run_supervised(
            fault_plan=plan, policy=RestartPolicy(backoff=FixedBackoff(3)),
        )
        spans = recovery_spans(run)
        assert len(spans) == 1
        span = spans[0]
        assert span.process == "P0"
        assert span.restarted and span.recovered
        assert span.ticks_to_restart == 3
        assert span.ticks_to_recovery >= 3
        assert "recovered in" in span.describe()

    def test_unrestarted_death_is_open_span(self):
        plan = FaultPlan().kill("P0", at_step=0)
        sched = Scheduler(fault_plan=plan)
        sched.spawn(_one_step, name="P0")
        run = sched.run(on_deadlock="return", on_error="record")
        spans = recovery_spans(run)
        assert len(spans) == 1
        assert not spans[0].restarted
        assert spans[0].ticks_to_recovery is None
        assert "never restarted" in spans[0].describe()

    def test_metrics_aggregate(self):
        plan = FaultPlan().kill("P0", at_step=0).kill("P0", at_step=0)
        __, __, run = _run_supervised(
            fault_plan=plan, policy=RestartPolicy(max_restarts=1),
        )
        metrics = compute_recovery_metrics(run)
        assert metrics.deaths == 2
        assert metrics.restarts == 1
        assert metrics.giveups == 1
        assert 0.0 <= metrics.recovery_rate <= 1.0
        assert "mttr" in metrics.render()

    def test_empty_trace_metrics(self):
        sched = Scheduler()
        sched.spawn(_noop, name="P0")
        run = sched.run()
        metrics = compute_recovery_metrics(run)
        assert metrics.deaths == 0
        assert metrics.mttr is None
        assert metrics.recovery_rate == 1.0
