"""Experiment-level tests: E5 (footnote-3 anomaly) and E7 (nested monitor
calls) reproduce the paper's claims exactly."""

from repro.problems.hierarchy import (
    run_layered_protected,
    run_nested_monitors,
    run_serializer_nested,
)
from repro.problems.readers_writers.anomaly import (
    footnote3_workload,
    render_report,
    run_footnote3_comparison,
)
from repro.problems.readers_writers.monitor_impl import MonitorReadersPriority
from repro.problems.readers_writers.pathexpr_impl import PathReadersPriority
from repro.runtime import Scheduler
from repro.verify import check_readers_priority_strict


# ----------------------------------------------------------------------
# E5: footnote 3
# ----------------------------------------------------------------------
def test_path_solution_violates_strict_readers_priority():
    result = footnote3_workload(PathReadersPriority, Scheduler())
    violations = check_readers_priority_strict(result.trace, "db")
    assert violations, "the footnote-3 anomaly should reproduce"


def test_monitor_solution_clean_on_same_scenario():
    result = footnote3_workload(MonitorReadersPriority, Scheduler())
    assert check_readers_priority_strict(result.trace, "db") == []


def test_second_writer_overtakes_reader_in_path_solution():
    result = footnote3_workload(PathReadersPriority, Scheduler())
    starts = [
        ev.pname for ev in result.trace.projection("op_start")
        if ev.obj in ("db.read", "db.write")
    ]
    assert starts == ["W1", "W2", "R1"], starts


def test_reader_precedes_second_writer_in_monitor_solution():
    result = footnote3_workload(MonitorReadersPriority, Scheduler())
    starts = [
        ev.pname for ev in result.trace.projection("op_start")
        if ev.obj in ("db.read", "db.write")
    ]
    assert starts == ["W1", "R1", "W2"], starts


def test_full_comparison_reproduces_paper_claim():
    report = run_footnote3_comparison(explore=True, max_runs=50)
    assert report.reproduced
    assert report.explorer_witness is not None
    text = render_report(report)
    assert "REPRODUCED" in text


def test_comparison_without_explorer():
    report = run_footnote3_comparison(explore=False)
    assert report.reproduced
    assert report.explorer_witness is None


# ----------------------------------------------------------------------
# E7: nested monitor calls
# ----------------------------------------------------------------------
def test_nested_monitors_deadlock():
    """§5.2: 'If the second monitor waits, a deadlock will result.'"""
    result = run_nested_monitors()
    assert result.deadlocked
    assert set(result.blocked) == {"consumer0", "producer"}


def test_layered_protected_structure_avoids_deadlock():
    """§5.2: 'the monitor is released before the resource operation is
    invoked... Therefore, no deadlock will result.'"""
    result = run_layered_protected()
    assert not result.deadlocked
    assert result.results["received"] == [42]


def test_serializer_nesting_avoids_deadlock():
    """§5.2: join_crowd releases possession, so nesting is safe."""
    result = run_serializer_nested()
    assert not result.deadlocked
    assert result.results["received"] == [42]
