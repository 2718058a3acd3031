#!/usr/bin/env python
"""Demonstrate the paper's footnote-3 anomaly (experiment E5).

The paper's Figure-1 readers-priority path-expression solution does not
actually implement Courtois–Heymans–Parnas readers priority: when a second
writer attempts while the first is writing, a reader arriving next is
overtaken.  This script runs the exact scenario on both the Figure-1 path
program and the Courtois monitor solution, prints the access orders side by
side, and lets the schedule explorer rediscover the anomaly on its own.

Run:  python examples/anomaly_demo.py
"""

from repro.problems.readers_writers.anomaly import (
    footnote3_workload,
    render_report,
    run_footnote3_comparison,
)
from repro.problems.readers_writers.pathexpr_impl import (
    FIGURE1_PATHS,
    PathReadersPriority,
)
from repro.runtime import Scheduler


def main() -> None:
    print("The Figure-1 path program under test:")
    print(FIGURE1_PATHS)

    report = run_footnote3_comparison(explore=True)
    print(render_report(report))

    print("\nBlow-by-blow trace of the anomalous run (path solution):")
    result = footnote3_workload(PathReadersPriority, Scheduler())
    for ev in result.trace:
        if ev.kind in ("request", "op_start", "op_end") and (
            ev.obj.startswith("db.") or "openwrite" in ev.obj
        ):
            print("  " + str(ev))

    assert report.reproduced


if __name__ == "__main__":
    main()
