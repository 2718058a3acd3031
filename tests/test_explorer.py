"""Unit tests for the schedule explorer: enumeration, violation hunting,
budgets, and witness replay."""

from repro.runtime import Mutex, Scheduler, ScriptedPolicy
from repro.explore import ExplorationEngine


def two_increments_system(policy):
    """A racy read-modify-write counter: some schedules lose an update."""
    sched = Scheduler(policy=policy)
    state = {"n": 0}

    def incrementer():
        observed = state["n"]
        yield  # the race window
        state["n"] = observed + 1

    sched.spawn(incrementer, name="A")
    sched.spawn(incrementer, name="B")
    result = sched.run()
    result.results["final"] = state["n"]
    return result


def test_explorer_finds_lost_update():
    explorer = ExplorationEngine(two_increments_system, max_runs=100)
    outcome = explorer.explore(
        lambda run: ["lost update"] if run.results["final"] != 2 else []
    )
    assert not outcome.ok
    assert outcome.witness is not None


def test_explorer_exhausts_small_space():
    explorer = ExplorationEngine(two_increments_system, max_runs=100)
    outcome = explorer.explore(lambda run: [])
    assert outcome.exhausted
    assert outcome.runs >= 2  # at least both orderings


def test_explorer_respects_run_budget():
    explorer = ExplorationEngine(two_increments_system, max_runs=1)
    outcome = explorer.explore(lambda run: [])
    assert outcome.runs == 1
    assert not outcome.exhausted


def test_witness_replays_deterministically():
    explorer = ExplorationEngine(two_increments_system, max_runs=100)
    witness = explorer.find_schedule(
        lambda run: ["x"] if run.results["final"] != 2 else []
    )
    assert witness is not None
    replay = two_increments_system(ScriptedPolicy(list(witness)))
    assert replay.results["final"] != 2


def test_explorer_ok_when_property_always_holds():
    def safe_system(policy):
        sched = Scheduler(policy=policy)
        lock = Mutex(sched, "m")
        state = {"n": 0}

        def incrementer():
            yield from lock.acquire()
            observed = state["n"]
            yield
            state["n"] = observed + 1
            lock.release()

        sched.spawn(incrementer, name="A")
        sched.spawn(incrementer, name="B")
        result = sched.run()
        result.results["final"] = state["n"]
        return result

    explorer = ExplorationEngine(safe_system, max_runs=500)
    outcome = explorer.explore(
        lambda run: ["lost"] if run.results["final"] != 2 else []
    )
    assert outcome.ok
    assert outcome.exhausted


def test_stop_at_first_short_circuits():
    explorer = ExplorationEngine(two_increments_system, max_runs=100)
    outcome = explorer.explore(
        lambda run: ["bad"] if run.results["final"] != 2 else [],
        stop_at_first=True,
    )
    assert len(outcome.violations) == 1


def test_max_depth_limits_branching():
    explorer = ExplorationEngine(two_increments_system, max_runs=1000,
                                 max_depth=1)
    outcome = explorer.explore(lambda run: [])
    # With depth 1 only the first decision branches.
    assert outcome.runs <= 3
