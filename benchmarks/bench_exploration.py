"""E14 — exhaustive schedule-space verification (the simulator dividend).

DESIGN.md §6 justifies the deterministic runtime by what it enables: every
interleaving of a small configuration can be *enumerated*, turning the
paper's behavioural claims into exhaustively checked facts rather than
test-sampled ones.  This bench:

* verifies readers/writers exclusion over the complete schedule space of a
  1-reader/1-writer workload for each core mechanism;
* reports the size of each mechanism's schedule space — a quantitative
  proxy for how much nondeterminism the construct leaves exposed (more
  internal hand-offs ⇒ more interleavings to get right);
* confirms the footnote-3 anomaly is the ONLY strict-priority violation
  class in the explored space of the Figure-1 program (every violating
  schedule has W2 overtaking a pending read);
* measures the exploration engine itself — schedules/sec of the naive
  DFS vs the equivalence-pruned search — and persists the numbers to
  BENCH_exploration.json.
"""

import time

from conftest import emit, persist

from repro.core import ascii_table
from repro.explore import ExplorationEngine
from repro.problems.readers_writers import (
    CcrReadersPriority,
    MonitorReadersPriority,
    PathReadersPriority,
    SemaphoreReadersPriority,
    SerializerReadersPriority,
)
from repro.problems.readers_writers.anomaly import footnote3_workload
from repro.runtime import Scheduler
from repro.verify import check_mutual_exclusion, check_readers_priority_strict

MECHANISMS = [
    ("semaphore", SemaphoreReadersPriority),
    ("monitor", MonitorReadersPriority),
    ("serializer", SerializerReadersPriority),
    ("pathexpr", PathReadersPriority),
    ("ccr", CcrReadersPriority),
]


def build_for(cls):
    def build(policy):
        sched = Scheduler(policy=policy)
        impl = cls(sched)

        def reader():
            yield from impl.read(work=1)

        def writer():
            yield from impl.write(1, work=1)

        sched.spawn(reader, name="R")
        sched.spawn(writer, name="W")
        return sched.run()

    return build


def exclusion_check(run):
    return check_mutual_exclusion(
        run.trace, "db", exclusive_ops=["write"], shared_ops=["read"]
    )


def compute():
    spaces = {}
    for name, cls in MECHANISMS:
        explorer = ExplorationEngine(
            build_for(cls), max_runs=20000, max_depth=150
        )
        outcome = explorer.explore(exclusion_check)
        spaces[name] = (outcome.runs, outcome.exhausted, outcome.ok)
    # Anomaly-space audit of the Figure-1 program.
    explorer = ExplorationEngine(
        lambda policy: footnote3_workload(
            PathReadersPriority, Scheduler(policy=policy)
        ),
        max_runs=3000,
        max_depth=150,
    )
    anomaly_outcome = explorer.explore(
        lambda run: check_readers_priority_strict(run.trace, "db")
    )
    return spaces, anomaly_outcome


def test_e14_exhaustive_verification(benchmark):
    spaces, anomaly_outcome = benchmark(compute)

    for name, (runs, exhausted, ok) in spaces.items():
        assert exhausted, "{}: space not exhausted in budget".format(name)
        assert ok, "{}: exclusion violated in some schedule".format(name)
        assert runs >= 1

    # The anomaly is present and every violation names a pending-read
    # overtake by a write (no other violation class in the space).
    assert anomaly_outcome.violations, "anomaly must be reachable"
    for __, messages in anomaly_outcome.violations:
        assert all("db.write" in m and "pending" in m for m in messages)

    rows = [
        [name, str(runs), "yes" if ok else "NO"]
        for name, (runs, __, ok) in sorted(
            spaces.items(), key=lambda kv: kv[1][0]
        )
    ]
    emit(
        "E14: exhaustive schedule-space verification (1R+1W workload)",
        ascii_table(["mechanism", "schedules", "exclusion safe"], rows)
        + "\n\nFigure-1 anomaly space: {} schedules explored, {} violating "
        "(space {}exhausted)".format(
            anomaly_outcome.runs,
            len(anomaly_outcome.violations),
            "" if anomaly_outcome.exhausted else "not ",
        ),
    )


# ----------------------------------------------------------------------
# E14b — engine throughput: naive vs pruned
# ----------------------------------------------------------------------
def _timed_explore(target, prune, **budget):
    engine = ExplorationEngine(target.runner(), prune=prune, **budget)
    start = time.perf_counter()
    result = engine.explore(target.checker)
    seconds = time.perf_counter() - start
    return result, seconds


def _stats(result, seconds):
    return {
        "runs": result.runs,
        "violations": len(result.violations),
        "exhausted": result.exhausted,
        "pruned": result.pruned,
        "seconds": round(seconds, 4),
        "schedules_per_sec": round(result.runs / seconds, 1) if seconds else None,
    }


def test_e14b_engine_throughput():
    from repro.explore.targets import get_target

    # fcfs_resource/monitor: a space both searches exhaust quickly, so the
    # pruning ratio compares full coverage with full coverage.
    target = get_target("fcfs_resource", "monitor")
    budget = dict(max_runs=20000, max_depth=80)

    naive, naive_s = _timed_explore(target, prune=False, **budget)
    pruned, pruned_s = _timed_explore(target, prune=True, **budget)
    assert naive.exhausted and pruned.exhausted
    assert pruned.runs < naive.runs, "pruning must shrink the search"
    assert len(pruned.violations) == len(naive.violations) == 0

    payload = {
        "target": "fcfs_resource/monitor",
        "serial_naive": _stats(naive, naive_s),
        "serial_pruned": _stats(pruned, pruned_s),
        "pruning_ratio": round(naive.runs / pruned.runs, 2),
    }
    persist("exploration", payload)
    emit(
        "E14b: exploration engine throughput",
        ascii_table(
            ["search", "schedules", "seconds", "sched/sec"],
            [
                ["naive DFS", str(naive.runs), "{:.3f}".format(naive_s),
                 "{:.0f}".format(naive.runs / naive_s)],
                ["pruned", str(pruned.runs), "{:.3f}".format(pruned_s),
                 "{:.0f}".format(pruned.runs / pruned_s)],
            ],
        )
        + "\n\npruning ratio {:.2f}x".format(naive.runs / pruned.runs),
    )
