"""Multi-resource deadlock scenarios (the dining-philosophers example, in
test form): the naive acquisition order deadlocks, the ordered and
monitor-admission solutions are exhaustively deadlock-free."""

import importlib.util
import pathlib

from repro.runtime import ScriptedPolicy
from repro.explore import ExplorationEngine

_spec = importlib.util.spec_from_file_location(
    "dining_philosophers",
    pathlib.Path(__file__).parent.parent / "examples" /
    "dining_philosophers.py",
)
dining = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dining)


def test_naive_deadlock_reachable_and_replayable():
    explorer = ExplorationEngine(
        dining.naive_system, max_runs=5000, max_depth=100
    )
    outcome = explorer.explore(dining.deadlock_check, stop_at_first=True)
    assert outcome.witness is not None
    replay = dining.naive_system(ScriptedPolicy(list(outcome.witness)))
    assert replay.deadlocked
    assert len(replay.blocked) == dining.N


def test_ordered_acquisition_exhaustively_deadlock_free():
    explorer = ExplorationEngine(
        dining.ordered_system, max_runs=50000, max_depth=200
    )
    outcome = explorer.explore(dining.deadlock_check)
    assert outcome.exhausted
    assert outcome.ok


def test_monitor_table_exhaustively_deadlock_free():
    explorer = ExplorationEngine(
        dining.monitor_system, max_runs=80000, max_depth=250
    )
    outcome = explorer.explore(dining.deadlock_check)
    assert outcome.exhausted
    assert outcome.ok


def test_naive_sometimes_succeeds():
    """The naive solution is not ALWAYS wrong — some schedules complete;
    that is exactly why testing alone misses it."""
    explorer = ExplorationEngine(
        dining.naive_system, max_runs=5000, max_depth=100
    )
    outcome = explorer.explore(dining.deadlock_check)
    completions = outcome.runs - len(outcome.violations)
    assert completions > 0
    assert len(outcome.violations) > 0
