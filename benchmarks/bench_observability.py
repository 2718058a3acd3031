"""E15 — observability overhead and per-mechanism contention profiles.

Two claims worth pinning down with numbers:

* **The null sink is free.**  ``Scheduler(sink=NullSink())`` normalizes to
  the uninstrumented fast path (``sink=None``), so turning instrumentation
  *off* must cost nothing.  Asserted at < 5% on a hot workload using
  min-of-N wall-clock times (the minimum is the noise-robust estimator for
  a deterministic workload).
* **Full recording is cheap enough to leave on.**  The
  :class:`~repro.obs.sink.RecordingSink` ratio is reported (not asserted —
  it legitimately pays for per-event dispatch and gauge samples).

The second half profiles every bounded-buffer solution under identical
load and persists the per-mechanism contention fingerprint (blocked time,
handoffs, switches, hottest object) to ``BENCH_observability.json``.
"""

from time import perf_counter

from conftest import emit, persist

from repro.obs import NullSink, RecordingSink
from repro.problems import bounded_buffer
from repro.problems.registry import get_solution, solutions_for
from repro.runtime.scheduler import Scheduler
from repro.suite import run_profile

#: Hot workload: enough items that scheduler-loop cost dominates setup.
_LOAD = dict(producers=4, consumers=4, items_each=25)
_REPEATS = 7


def _run_once(sink) -> float:
    factory = get_solution("bounded_buffer", "semaphore").factory
    sched = Scheduler(sink=sink)
    start = perf_counter()
    bounded_buffer.run_producers_consumers(factory, sched=sched, **_LOAD)
    return perf_counter() - start


def _best_of(make_sink) -> float:
    return min(_run_once(make_sink()) for _ in range(_REPEATS))


def test_e15_null_sink_is_free():
    bare = _best_of(lambda: None)
    null = _best_of(NullSink)
    recording = _best_of(RecordingSink)
    null_ratio = null / bare
    recording_ratio = recording / bare
    report = {
        "load": dict(_LOAD, repeats=_REPEATS),
        "bare_seconds": round(bare, 6),
        "null_sink_seconds": round(null, 6),
        "recording_sink_seconds": round(recording, 6),
        "null_overhead_ratio": round(null_ratio, 4),
        "recording_overhead_ratio": round(recording_ratio, 4),
    }
    persist("observability", {"overhead": report})
    emit(
        "E15: instrumentation overhead (bounded_buffer/semaphore, hot loop)",
        "bare      {:.4f}s\n"
        "null sink {:.4f}s  ({:+.1%})\n"
        "recording {:.4f}s  ({:+.1%})".format(
            bare, null, null_ratio - 1, recording, recording_ratio - 1
        ),
    )
    assert null_ratio < 1.05, (
        "null sink must be within 5% of the uninstrumented scheduler "
        "(got {:.1%})".format(null_ratio - 1)
    )


def test_e15_contention_profiles():
    rows = []
    profiles = {}
    for entry in solutions_for("bounded_buffer", None):
        report = run_profile(entry.problem, entry.mechanism)
        metrics = report.metrics
        blocked = report.blocked_by_object
        hottest = max(blocked, key=blocked.get) if blocked else "-"
        profiles[entry.mechanism] = {
            "steps": metrics.steps,
            "context_switches": metrics.context_switches,
            "events": metrics.events,
            "handoffs": metrics.handoffs,
            "blocked_total": sum(blocked.values()),
            "hottest_object": hottest,
            "hottest_blocked": blocked.get(hottest, 0),
        }
        rows.append(
            "%-14s steps=%-4d switches=%-4d blocked=%-5d handoffs=%-3d "
            "hottest=%s" % (
                entry.mechanism, metrics.steps, metrics.context_switches,
                sum(blocked.values()), metrics.handoffs, hottest)
        )
        # Possession/crowd books must close on a clean run.  (blocked /
        # service spans legitimately leak: daemon servers park forever and
        # can be mid-operation when the last client exits.)
        leaked = [s for s in report.spans
                  if s.outcome == "leaked" and s.kind in ("possession",
                                                          "crowd")]
        assert not leaked, (entry.mechanism, leaked)
        assert metrics.events == len(report.result.trace)
    persist("observability", {"bounded_buffer_profiles": profiles})
    emit("E15: bounded-buffer contention by mechanism", "\n".join(rows))
    # Blocking mechanisms must actually register contention on this load.
    assert all(p["blocked_total"] > 0 for p in profiles.values())
