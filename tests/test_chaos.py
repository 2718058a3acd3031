"""Chaos exploration: fault points x schedules, run classification, the
robustness report, and the explorer-driven T6 safety check.

Fast deterministic subsets run in tier-1; the full sweeps (every fault
point, full schedule budget) are ``@pytest.mark.slow``.
"""

import pytest

from repro.problems.one_slot_buffer.impls import (
    MonitorOneSlotBuffer,
    PathOneSlotBuffer,
    SemaphoreOneSlotBuffer,
    SerializerOneSlotBuffer,
)
from repro.explore import ExplorationEngine
from repro.explore.campaign import Cell, Outcome, ScenarioResult
from repro.runtime import FaultPlan, Scheduler, Semaphore
from repro.verify import check_alternation
from repro.verify.chaos import (
    CONTAINING,
    DEADLOCKING,
    LABELS,
    LOCKS,
    PROPAGATING,
    SCENARIOS,
    STEP_LIMITED,
    classify_run,
    enumerate_fault_points,
    expected_classifications,
    explore_kills,
    lock_scenario,
    robustness_report,
)


# ----------------------------------------------------------------------
# classify_run
# ----------------------------------------------------------------------
def _run_with(plan, bodies, names, **kwargs):
    sched = Scheduler(fault_plan=plan, preemptive=True)
    for body, name in zip(bodies, names):
        sched.spawn(body(sched), name=name)
    return sched.run(on_deadlock="return", on_error="record", **kwargs)


class TestClassifyRun:
    def _simple_run(self, plan):
        def victim(sched):
            def body():
                for __ in range(4):
                    yield
            return body
        def bystander(sched):
            def body():
                yield
            return body
        return _run_with(plan, [victim, bystander], ["V", "B"])

    def test_missed_when_kill_never_fires(self):
        run = self._simple_run(FaultPlan().kill("V", at_step=99))
        label, messages = classify_run(run, "V")
        assert label == "missed" and messages == []

    def test_containing_when_only_victim_dies(self):
        run = self._simple_run(FaultPlan().kill("V", at_step=1))
        label, __ = classify_run(run, "V")
        assert label == CONTAINING

    def test_deadlocking_when_survivors_wedge(self):
        from repro.runtime import Semaphore

        plan = FaultPlan().kill("V", on_entry="s")
        sched = Scheduler(fault_plan=plan, preemptive=True)
        sem = Semaphore(sched, initial=1, name="s")

        def worker():
            yield from sem.p()
            yield from sched.checkpoint()
            sem.v()

        sched.spawn(worker, name="V")
        sched.spawn(worker, name="B")
        run = sched.run(on_deadlock="return", on_error="record")
        label, __ = classify_run(run, "V")
        assert label == DEADLOCKING

    def test_propagating_when_another_process_dies(self):
        def victim(sched):
            def body():
                yield
                yield
            return body

        def collateral(sched):
            def body():
                yield
                yield
                yield
                raise RuntimeError("collateral damage")
            return body

        run = _run_with(
            FaultPlan().kill("V", at_step=1), [victim, collateral], ["V", "C"]
        )
        label, __ = classify_run(run, "V")
        assert label == PROPAGATING

    def test_propagating_when_oracle_complains(self):
        run = self._simple_run(FaultPlan().kill("V", at_step=1))
        label, messages = classify_run(
            run, "V", check=lambda r: ["constraint broken"]
        )
        assert label == PROPAGATING
        assert messages == ["constraint broken"]


# ----------------------------------------------------------------------
# Fault-point enumeration and aggregation
# ----------------------------------------------------------------------
def _outcome(name, *labels):
    outcome = Outcome(cell=Cell(name), labels=LABELS)
    for label in labels:
        outcome.add(label)
    return outcome


def _explore(name, build, max_runs, max_points):
    return explore_kills(
        name, build, "P0", lambda run, cell: classify_run(run, "P0"),
        LABELS, engine=ExplorationEngine, max_runs=max_runs, max_depth=40,
        max_points=max_points)


class TestFaultPoints:
    def test_enumerate_covers_every_victim_step(self):
        points = enumerate_fault_points(lock_scenario("mutex"), "P0")
        assert points  # the victim takes at least one step
        assert [p.step for p in points] == list(range(len(points)))
        assert all(p.process == "P0" for p in points)

    def test_chaos_result_classification_precedence(self):
        result = ScenarioResult(name="x", labels=LABELS, victim="P0")
        result.outcomes.append(_outcome(
            "kill P0 at step 0", CONTAINING, CONTAINING, PROPAGATING))
        assert result.classification == PROPAGATING
        result.outcomes.append(_outcome("kill P0 at step 1", DEADLOCKING))
        assert result.classification == DEADLOCKING  # worst outcome wins


# ----------------------------------------------------------------------
# Single-scenario kill campaigns (fast, deterministic)
# ----------------------------------------------------------------------
class TestChaosExplore:
    def test_mutex_scenario_contains_faults(self):
        result = _explore("mutex", lock_scenario("mutex"), 6, 3)
        assert result.classification == CONTAINING
        assert result.count(CONTAINING) > 0
        assert result.count(PROPAGATING) == 0
        assert result.count(DEADLOCKING) == 0

    def test_raw_semaphore_scenario_deadlocks(self):
        result = _explore(
            "semaphore", lock_scenario("semaphore", crash_release=False),
            6, 4)
        assert result.classification == DEADLOCKING
        assert result.count(DEADLOCKING) > 0

    def test_fast_report_matches_fault_model(self):
        results, table = robustness_report(fast=True)
        got = {r.name: r.classification for r in results}
        assert got == expected_classifications()
        # The table renders one row per scenario plus a header.
        for r in results:
            assert r.name in table


def _two_permit_semaphore(sched, critical, **options):
    sem = Semaphore(sched, initial=2, name="s", **options)

    def one_pass():
        yield from sem.p()
        yield from critical()
        sem.v()

    return sem, one_pass


def test_lock_rows_catch_a_two_permit_lock(monkeypatch):
    """Mutation: a semaphore with two permits lets two processes into the
    critical region at once.  The semaphore+crash_release row's exclusion
    oracle must see the overlap, so the row is not fault-containing."""
    monkeypatch.setitem(LOCKS, "semaphore", ("s", _two_permit_semaphore))
    name, factory, victim, check, __ = next(
        row for row in SCENARIOS if row[0] == "semaphore+crash_release")
    result = explore_kills(
        name, factory(), victim,
        lambda run, cell: classify_run(run, victim, check),
        LABELS, engine=ExplorationEngine, max_runs=25, max_depth=40)
    assert result.classification == PROPAGATING
    assert any("entered s while" in message
               for outcome in result.outcomes
               for message in outcome.violations)


@pytest.mark.slow
def test_full_report_matches_fault_model():
    results, __ = robustness_report(fast=False)
    got = {r.name: r.classification for r in results}
    assert got == expected_classifications()


# ----------------------------------------------------------------------
# T6 under fire: one-slot buffer alternation with one injected kill
# ----------------------------------------------------------------------
def _buffer_build(impl_cls):
    """A producer/consumer pair over one buffer; fault-plan-parameterized."""

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        buf = impl_cls(sched, name="slot")

        def producer():
            for i in range(2):
                yield from buf.put(i)

        def consumer():
            for __ in range(2):
                yield from buf.get()

        sched.spawn(producer, name="Prod")
        sched.spawn(consumer, name="Cons")
        return sched.run(on_deadlock="return", on_error="record")

    return build


def _assert_alternation_under_kill(impl_cls, runs_per_point, max_points=None):
    """T6 (slot alternation) must hold in every schedule of every faulted
    run: a crash may stall the buffer (deadlock) or propagate an integrity
    error, but a get must never overtake its put."""
    build = _buffer_build(impl_cls)
    points = enumerate_fault_points(build, "Prod")
    assert points
    if max_points is not None:
        points = points[:max_points]
    total = 0
    for point in points:
        plan = FaultPlan().kill(point.process, at_step=point.step)

        def check(run):
            return check_alternation(run.trace, "slot")

        outcome = ExplorationEngine(
            lambda policy: build(policy, plan),
            max_runs=runs_per_point, max_depth=50,
        ).explore(check)
        assert outcome.violations == [], (
            "alternation broke for {} kill at step {}".format(
                impl_cls.__name__, point.step
            )
        )
        total += outcome.runs
    assert total >= len(points)  # every point actually explored


def test_t6_alternation_survives_kills_monitor_fast():
    _assert_alternation_under_kill(
        MonitorOneSlotBuffer, runs_per_point=8, max_points=4
    )


@pytest.mark.slow
@pytest.mark.parametrize("impl_cls", [
    PathOneSlotBuffer,
    SemaphoreOneSlotBuffer,
    MonitorOneSlotBuffer,
    SerializerOneSlotBuffer,
])
def test_t6_alternation_survives_kills_all_impls(impl_cls):
    _assert_alternation_under_kill(impl_cls, runs_per_point=40)


class TestStepLimitClassification:
    """Regression: a budget cutoff is not one label (satellite of the
    recovery PR).  Still-runnable at the limit = step-limited (livelock
    territory); nothing runnable = a wedge churning behind timers, which
    classifies as fault-deadlocking."""

    def test_step_limited_while_runnable_is_not_a_wedge(self):
        # A real livelock: two spinners never finish inside the budget but
        # are runnable the whole time.
        plan = FaultPlan().kill("P0", at_step=1)
        sched = Scheduler(fault_plan=plan, max_steps=30)

        def spinner():
            while True:
                yield

        sched.spawn(spinner, name="P0")
        sched.spawn(spinner, name="P1")
        run = sched.run(on_deadlock="return", on_error="record",
                        on_steplimit="return")
        assert run.step_limited
        assert run.ready  # still making progress at the cutoff
        label, messages = classify_run(run, "P0")
        assert label == STEP_LIMITED
        assert messages == []

    def test_step_limited_with_nothing_runnable_is_deadlocking(self):
        from repro.runtime.trace import RunResult, Trace

        run = RunResult(trace=Trace(), step_limited=True, ready=[])
        assert classify_run(run, "P0")[0] == DEADLOCKING

    def test_step_limit_checked_before_missed(self):
        # Even when the victim never died, a truncated run proves nothing:
        # the cutoff label wins over "missed".
        sched = Scheduler(max_steps=10)

        def spinner():
            while True:
                yield

        sched.spawn(spinner, name="P0")
        run = sched.run(on_steplimit="return")
        assert run.step_limited
        assert classify_run(run, "P0")[0] == STEP_LIMITED

    def test_outcome_counters_track_step_limited(self):
        outcome = _outcome("kill P0 at step 0")
        assert outcome.count(STEP_LIMITED) == 0
        result = ScenarioResult(name="x", labels=LABELS, victim="P0",
                                outcomes=[outcome])
        outcome.add(STEP_LIMITED)
        assert result.count(STEP_LIMITED) == 1
        assert result.classification == STEP_LIMITED
        # Precedence: any deadlock outranks the step-limit label.
        outcome.add(DEADLOCKING)
        assert result.classification == DEADLOCKING
