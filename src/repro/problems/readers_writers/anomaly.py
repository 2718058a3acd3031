"""Experiment E5: the paper's footnote-3 anomaly, reproduced executably.

Footnote 3 (§5.1.1): "If a write is in progress, and another WRITE starts,
the second writer can start writeattempt and requestwrite, and become
blocked at the third path.  If a reader enters before the end of the first
write, it will be blocked at entry to the second path by the requestwrite in
progress.  The second writer will therefore gain access to the resource
before the reader, though readers should have priority."

:func:`footnote3_workload` spawns exactly that arrival pattern (W1 then W2
then R1, all overlapping W1's write); the ``footnote3`` exploration target
runs it too.  Under the Figure-1 path solution the strict
Courtois–Heymans–Parnas oracle flags W2's write starting over R1's pending
read; under the Courtois monitor solution the same pattern is clean.
:func:`find_anomaly_schedule` additionally lets the schedule explorer
*discover* the anomaly on its own, confirming it is not an artifact of one
hand-picked interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ...explore.engine import ExplorationEngine
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_mutual_exclusion, check_readers_priority_strict
from .monitor_impl import MonitorReadersPriority
from .pathexpr_impl import PathReadersPriority

Factory = Callable[[Scheduler], object]


def footnote3_workload(factory: Factory, sched: Scheduler) -> RunResult:
    """The footnote-3 arrival pattern on ``sched``: W1 writing; W2 then R1
    arrive.

    Spawn order plus FIFO stepping realizes the described overlap: W1's
    write is in progress when W2 passes writeattempt/requestwrite and
    blocks at the third path; R1 then blocks at the second path.  A
    deadlock or a failed process ends the run as a result, not an
    exception, so a search can check every schedule.
    """
    impl = factory(sched)

    def first_writer():
        yield from impl.write(1, work=6)  # long write: W2 and R1 overlap it

    def second_writer():
        yield  # arrive strictly after W1 started writing
        yield from impl.write(2, work=1)

    def reader():
        yield
        yield  # arrive after W2 is committed to its attempt
        yield from impl.read(work=1)

    sched.spawn(first_writer, name="W1")
    sched.spawn(second_writer, name="W2")
    sched.spawn(reader, name="R1")
    return sched.run(on_deadlock="return", on_error="record")


@dataclass
class AnomalyReport:
    """Outcome of the E5 comparison."""

    path_violations: List[str]
    monitor_violations: List[str]
    path_order: List[str]
    monitor_order: List[str]
    explorer_witness: Optional[Tuple[int, ...]] = None
    explorer_runs: int = 0

    @property
    def reproduced(self) -> bool:
        """True when the paper's claim holds: the Figure-1 solution violates
        strict readers priority while the monitor solution does not."""
        return bool(self.path_violations) and not self.monitor_violations


def _access_order(result: RunResult) -> List[str]:
    return [
        "{}:{}".format(ev.pname, ev.obj.rsplit(".", 1)[1])
        for ev in result.trace.projection("op_start")
        if ev.obj in ("db.read", "db.write")
    ]


def run_footnote3_comparison(explore: bool = True,
                             max_runs: int = 400) -> AnomalyReport:
    """Run E5: the scripted scenario on both solutions, plus (optionally)
    an automatic explorer search for the anomaly."""
    path_result = footnote3_workload(PathReadersPriority, Scheduler())
    monitor_result = footnote3_workload(MonitorReadersPriority, Scheduler())
    report = AnomalyReport(
        path_violations=check_readers_priority_strict(
            path_result.trace, "db"
        ),
        monitor_violations=check_readers_priority_strict(
            monitor_result.trace, "db"
        ),
        path_order=_access_order(path_result),
        monitor_order=_access_order(monitor_result),
    )
    # Exclusion safety must hold in BOTH solutions even in the anomaly run:
    # the flaw is a priority flaw, not a safety flaw.
    assert check_mutual_exclusion(
        path_result.trace, "db", ["write"], ["read"]
    ) == []
    if explore:
        explorer = ExplorationEngine(
            lambda policy: footnote3_workload(
                PathReadersPriority, Scheduler(policy=policy)
            ),
            max_runs=max_runs,
        )
        found = explorer.explore(
            lambda run: check_readers_priority_strict(run.trace, "db"),
            stop_at_first=True,
        )
        report.explorer_witness = found.witness
        report.explorer_runs = found.runs
    return report


def render_report(report: AnomalyReport) -> str:
    """Human-readable E5 summary."""
    lines = [
        "Footnote-3 anomaly (experiment E5)",
        "==================================",
        "Figure-1 path solution, access order: {}".format(
            " -> ".join(report.path_order)
        ),
        "  strict readers-priority violations: {}".format(
            len(report.path_violations)
        ),
    ]
    for violation in report.path_violations:
        lines.append("    " + violation)
    lines += [
        "Courtois monitor solution, access order: {}".format(
            " -> ".join(report.monitor_order)
        ),
        "  strict readers-priority violations: {}".format(
            len(report.monitor_violations)
        ),
    ]
    if report.explorer_witness is not None:
        lines.append(
            "Explorer re-discovered the anomaly independently after {} "
            "schedules (witness decisions: {}).".format(
                report.explorer_runs, list(report.explorer_witness)
            )
        )
    lines.append(
        "Paper claim {}: the published readers-priority path solution does "
        "not implement Courtois et al. readers priority.".format(
            "REPRODUCED" if report.reproduced else "NOT reproduced"
        )
    )
    return "\n".join(lines)
