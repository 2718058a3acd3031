"""The exploration engine (repro.explore): equivalence pruning, the
exhausted fix, detectors, and witness minimization."""

import pytest

from repro.explore import ExplorationEngine, RecordingPolicy
from repro.explore.minimize import minimize_witness
from repro.explore.targets import get_target
from repro.problems.registry import EXPLORE, get_solution
from repro.verify import (
    ConflictingAccessChecker,
    LostWakeupChecker,
    compose_checkers,
)
from repro.runtime.policies import ScriptedPolicy
from repro.runtime.scheduler import Scheduler


def messages_of(result):
    return set(m for __, msgs in result.violations for m in msgs)


# ----------------------------------------------------------------------
# Pruning: soundness (same violations) and a real reduction, across the
# canonical problem battery.
# ----------------------------------------------------------------------
CANONICAL = [
    # (problem, mechanism): chosen so every space is exhaustible in-test.
    ("readers_priority", "monitor"),
    ("bounded_buffer", "monitor"),
    ("one_slot_buffer", "monitor"),
    ("fcfs_resource", "monitor"),
    ("alarm_clock", "semaphore"),
    ("staged_queue", "monitor"),
]


@pytest.mark.parametrize("problem,mechanism", CANONICAL)
def test_pruned_matches_naive_with_fewer_runs(problem, mechanism):
    target = get_target(problem, mechanism)
    naive = ExplorationEngine(
        target.runner(), max_runs=20000, max_depth=80
    ).explore(target.checker)
    pruned = ExplorationEngine(
        target.runner(), max_runs=20000, max_depth=80, prune=True
    ).explore(target.checker)

    assert naive.exhausted and pruned.exhausted
    # Strictly fewer schedules, not one distinct violation missed.
    assert pruned.runs < naive.runs, (problem, mechanism, naive.runs)
    assert messages_of(pruned) == messages_of(naive)
    assert pruned.states > 0
    assert pruned.pruned > 0


def test_pruned_search_finds_footnote3_anomaly():
    # The pruned search exhausts the Figure-1 program's space in a few
    # hundred schedules (the naive space is ~46k runs); any violation a
    # budget-capped naive search can find must already be in it.
    target = get_target("footnote3", "pathexpr")
    pruned = ExplorationEngine(
        target.runner(), max_runs=20000, max_depth=80, prune=True
    ).explore(target.checker)
    assert pruned.exhausted
    assert pruned.violations, "the footnote-3 anomaly must be reachable"
    assert all(
        "db.write" in m and "pending" in m for m in messages_of(pruned)
    )

    naive = ExplorationEngine(
        target.runner(), max_runs=3000, max_depth=80
    ).explore(target.checker)
    assert not naive.exhausted  # the naive space dwarfs this budget...
    assert pruned.runs < naive.runs  # ...which the pruned search beat
    assert messages_of(naive) <= messages_of(pruned)


def test_pruning_off_by_default_matches_legacy_explorer():
    target = get_target("readers_priority", "semaphore")
    naive = ExplorationEngine(
        target.runner(), max_runs=500, prune=False
    ).explore(target.checker)
    engine = ExplorationEngine(target.runner(), max_runs=500).explore(
        target.checker
    )
    assert (naive.runs, naive.exhausted, naive.violations) == (
        engine.runs, engine.exhausted, engine.violations
    )
    assert engine.pruned == 0 and engine.states == 0


# ----------------------------------------------------------------------
# The exhausted off-by-one (satellite fix)
# ----------------------------------------------------------------------
def single_schedule_build(policy):
    # One process, no contention: branch_log is all ones, so the schedule
    # space is exactly one run and the frontier is empty after it.
    sched = Scheduler(policy=policy)

    def lone():
        yield
        yield

    sched.spawn(lone, name="L")
    return sched.run(on_deadlock="return", on_error="record")


def test_stop_at_first_on_last_schedule_reports_exhausted():
    # The legacy explorer unconditionally reported exhausted=False when
    # stop_at_first fired — even with nothing left to explore.
    engine = ExplorationEngine(single_schedule_build, max_runs=10)
    result = engine.explore(lambda run: ["always"], stop_at_first=True)
    assert result.runs == 1
    assert result.violations
    assert result.exhausted, "empty frontier at stop must mean exhausted"


def test_stop_at_first_counts_the_violating_records_own_children():
    # The first footnote3/pathexpr schedule already violates, with the
    # frontier still empty; its own unexpanded children are the other 591
    # schedules of a full search.
    target = get_target("footnote3", "pathexpr")
    full = ExplorationEngine(target.runner(), max_runs=2000,
                             prune=True).explore(target.checker)
    assert full.exhausted and full.runs > 1
    stopped = ExplorationEngine(target.runner(), max_runs=2000,
                                prune=True).explore(target.checker,
                                                    stop_at_first=True)
    assert stopped.runs == 1 and stopped.violations
    assert not stopped.exhausted
    assert stopped.states == 0, "counting the children claims nothing"


def test_budget_exactly_equal_to_space_reports_exhausted():
    target = get_target("readers_priority", "monitor")
    space = ExplorationEngine(target.runner(), max_runs=20000).explore(
        target.checker
    )
    assert space.exhausted
    exact = ExplorationEngine(
        target.runner(), max_runs=space.runs
    ).explore(target.checker)
    assert exact.runs == space.runs
    assert exact.exhausted, "stopping exactly at max_runs with an empty " \
        "frontier is full coverage"
    short = ExplorationEngine(
        target.runner(), max_runs=space.runs - 1
    ).explore(target.checker)
    assert not short.exhausted


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
def unlocked_writers_build(policy):
    # Two writers touch "db" with no synchronization at all: op spans
    # overlap in most schedules.
    sched = Scheduler(policy=policy)

    def writer():
        sched.log("op_start", "db.write")
        yield
        sched.log("op_end", "db.write")

    sched.spawn(writer, name="W1")
    sched.spawn(writer, name="W2")
    return sched.run(on_deadlock="return", on_error="record")


def test_conflicting_access_checker_flags_unlocked_writes():
    races = ConflictingAccessChecker("db", writes=["write"])
    result = ExplorationEngine(unlocked_writers_build, max_runs=100).explore(
        races
    )
    assert result.violations
    assert all(
        m.startswith("conflicting access:") for m in messages_of(result)
    )


def lost_wakeup_build(policy):
    # The classic unprotected flag/park race: the waiter tests the flag,
    # loses the CPU, the waker sets the flag and signals into the void,
    # and only then does the waiter park — forever.
    sched = Scheduler(policy=policy)
    state = {"flag": False}

    def waiter():
        yield
        if not state["flag"]:
            yield from sched.park("waiting for flag", "cond flag")

    def waker():
        yield
        state["flag"] = True
        sched.log("signal", "cond flag")

    sched.spawn(waiter, name="waiter")
    sched.spawn(waker, name="waker")
    return sched.run(on_deadlock="return", on_error="record")


def test_lost_wakeup_checker_finds_missed_signal():
    detector = LostWakeupChecker()
    result = ExplorationEngine(lost_wakeup_build, max_runs=200).explore(
        detector
    )
    assert result.violations
    message = result.violations[0][1][0]
    assert message.startswith("lost wakeup: waiter")
    assert "cond flag" in message


def test_lost_wakeup_checker_ignores_real_deadlock():
    from repro.runtime.primitives import Semaphore

    def build(policy):
        # A genuine deadlock: each process holds one semaphore and wants
        # the other.  The wait-for graph explains every blocked process,
        # so no lost wakeup may be reported.
        sched = Scheduler(policy=policy)
        a = Semaphore(sched, initial=1, name="a")
        b = Semaphore(sched, initial=1, name="b")

        def one():
            yield from a.p()
            yield
            yield from b.p()

        def two():
            yield from b.p()
            yield
            yield from a.p()

        sched.spawn(one, name="one")
        sched.spawn(two, name="two")
        return sched.run(on_deadlock="return", on_error="record")

    detector = LostWakeupChecker()
    result = ExplorationEngine(build, max_runs=200).explore(detector)
    assert result.ok, messages_of(result)


def test_compose_checkers_concatenates():
    composed = compose_checkers(
        lambda run: ["first"], lambda run: [], lambda run: ["second"]
    )
    assert composed(None) == ["first", "second"]


def test_lost_wakeup_checker_in_target_battery_is_quiet():
    # Healthy mechanisms must not trip the detector anywhere in their space.
    target = get_target("one_slot_buffer", "semaphore")
    result = ExplorationEngine(
        target.runner(), max_runs=20000, prune=True
    ).explore(LostWakeupChecker())
    assert result.exhausted and result.ok


def _raising(cls, *ops):
    """``cls`` with each of ``ops`` raising before it does anything."""

    def broken(self, *args, **kwargs):
        raise RuntimeError("broken operation")
        yield  # a generator, like the operation it replaces

    return type("Raising" + cls.__name__, (cls,),
                {op: broken for op in ops})


@pytest.mark.parametrize("problem,ops,failed", [
    ("fcfs_resource", ("use",), ["U0", "U1", "U2"]),
    ("staged_queue", ("use_a", "use_b"), ["B0", "A1", "B2"]),
])
def test_explore_reports_a_solution_whose_processes_raise(problem, ops,
                                                          failed):
    # Every process of the workload raises: the search must report it as a
    # violation, not pass the solution and not abort.
    workload = EXPLORE[problem]
    factory = _raising(get_solution(workload.problem, "monitor").factory,
                       *ops)
    result = ExplorationEngine(
        lambda policy: workload.run(factory, Scheduler(policy=policy)),
        max_runs=200, prune=True,
    ).explore(workload.check)
    assert result.exhausted and not result.ok
    assert messages_of(result) >= {
        "process {} failed".format(name) for name in failed}


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def test_minimizer_shrinks_footnote3_witness_to_local_minimum():
    target = get_target("footnote3", "monitor")
    found = ExplorationEngine(
        target.runner(), max_runs=5000, max_depth=60, prune=True
    ).explore(target.checker, stop_at_first=True)
    assert found.witness is not None

    shrunk = minimize_witness(target.runner(), target.checker, found.witness)
    assert shrunk.locally_minimal
    assert len(shrunk.minimized) <= len(shrunk.original)
    assert shrunk.messages, "the minimized schedule must still violate"
    assert shrunk.timeline.strip()

    def reproduces(decisions):
        run = target.build_and_run(ScriptedPolicy(list(decisions)))
        return bool(target.checker(run))

    assert reproduces(shrunk.minimized)
    # Local minimality, checked the hard way: no single deletion and no
    # single decrement still reproduces.
    dec = list(shrunk.minimized)
    for index in range(len(dec)):
        assert not reproduces(dec[:index] + dec[index + 1:])
        if dec[index] > 0:
            assert not reproduces(
                dec[:index] + [dec[index] - 1] + dec[index + 1:]
            )


def _strip(decisions):
    decisions = list(decisions)
    while decisions and decisions[-1] == 0:
        decisions.pop()
    return tuple(decisions)


def _contains(decisions, pattern):
    it = iter(decisions)
    return all(any(d == p for d in it) for p in pattern)


@pytest.mark.parametrize("witness,violates,expected", [
    # Two load-bearing decisions buried in noise.
    ((5, 0, 4, 2, 0, 3, 1, 7), lambda d: _contains(d, (4, 3)), (4, 3)),
    # A single decision whose deletion (the empty string) reproduces while
    # its decrement does not: ddmin never tests the empty string.
    ((3,), lambda d: sum(d) in (0, 3), ()),
])
def test_minimized_decisions_have_no_deletable_decision(
        witness, violates, expected):
    target = get_target("bounded_buffer", "monitor")
    scripts = []

    def build_and_run(policy):
        scripts.append(_strip(policy.decisions))
        return target.build_and_run(policy)

    def check(result):
        return ["synthetic violation"] if violates(scripts[-1]) else []

    shrunk = minimize_witness(build_and_run, check, witness)
    assert shrunk.minimized == expected
    assert shrunk.locally_minimal
    dec = list(shrunk.minimized)
    for index in range(len(dec)):
        assert not violates(_strip(dec[:index] + dec[index + 1:]))


def test_minimizer_rejects_non_reproducing_witness():
    target = get_target("bounded_buffer", "monitor")
    with pytest.raises(ValueError):
        minimize_witness(target.runner(), target.checker, (0, 0, 0))


def test_minimizer_trims_trailing_defaults_for_free():
    target = get_target("footnote3", "pathexpr")
    # The pathexpr anomaly fires on the all-default schedule, so any pure-
    # padding witness shrinks to the empty decision string in one test run.
    shrunk = minimize_witness(
        target.runner(), target.checker, (0,) * 12
    )
    assert shrunk.minimized == ()
    assert shrunk.tests == 1
    assert shrunk.locally_minimal


# ----------------------------------------------------------------------
# Fingerprinting plumbing
# ----------------------------------------------------------------------
def test_recording_policy_fingerprints_are_deterministic():
    target = get_target("bounded_buffer", "semaphore")
    first = RecordingPolicy([1, 0, 1])
    target.build_and_run(first)
    second = RecordingPolicy([1, 0, 1])
    target.build_and_run(second)
    assert first.fingerprints == second.fingerprints
    assert first.ready_pids == second.ready_pids
    assert len(first.fingerprints) == len(first.branch_log)


def test_fingerprint_distinguishes_decision_paths():
    target = get_target("bounded_buffer", "semaphore")
    default = RecordingPolicy([])
    target.build_and_run(default)
    deviated = RecordingPolicy([1])
    target.build_and_run(deviated)
    assert default.fingerprints != deviated.fingerprints
