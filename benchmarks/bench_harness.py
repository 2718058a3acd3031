"""E21 — harness observatory: the explorer measured like a mechanism.

The paper's method is to compare mechanisms by measuring them under
identical conditions; this bench turns that discipline on the harness
itself (the ROADMAP's "make exploration fast" prerequisite):

* **Phase tiling** — with :class:`~repro.obs.harness.HarnessTelemetry`
  attached, the per-phase wall-clock attribution must *tile* the measured
  elapsed time (sum of phases >= 90%) — the same conservation standard
  E16 holds the critical path to against the makespan.  An accounting
  that doesn't tile can hide exactly the bottleneck it was built to find.
* **Null-path overhead** — the disabled telemetry path
  (:class:`~repro.obs.harness.NullHarnessTelemetry`, normalized to
  ``None`` at the entry points) must stay within 5% of a plain run on the
  E14b exploration target, the same gate E15 holds the trace sink to.
  The two sides run in interleaved pairs, alternating which goes first,
  and the gate reads the median of the per-pair ratios
  (:func:`conftest.paired_ratio`).
* **Hotspots** — ``self_profile`` must surface a non-empty, ranked
  hotspot list over the explore hot loop (the scheduler-core refactor's
  work queue).

Everything persists to ``BENCH_harness.json``.
"""

import time

from conftest import emit, paired_ratio, persist

from repro.explore import ExplorationEngine, get_target
from repro.obs import HarnessTelemetry, NullHarnessTelemetry, self_profile

#: The E14b exploration target and budget (bench_exploration.py) — the
#: workload the overhead gate is defined against.
TARGET = ("fcfs_resource", "monitor")
BUDGET = dict(max_runs=20000, max_depth=80)

#: Interleaved (bare, null) pairs timed by the null-path overhead gate.
TIMING_PAIRS = 31

#: Phase accounting must cover at least this share of measured elapsed.
TILING_FLOOR = 0.90

#: Null telemetry path must stay within this factor of a plain run.
NULL_OVERHEAD_CEILING = 1.05


def _explore(telemetry=None):
    target = get_target(*TARGET)
    return ExplorationEngine(target.runner(), prune=True, telemetry=telemetry,
                             **BUDGET).explore(target.checker)


def _timed_explore(telemetry) -> float:
    start = time.perf_counter()
    _explore(telemetry=telemetry)
    return time.perf_counter() - start


def test_e21_phase_tiling_serial():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry)
    assert result.exhausted
    coverage = telemetry.coverage()
    assert coverage >= TILING_FLOOR, (
        "phase accounting covers only {:.1%} of elapsed "
        "(floor {:.0%})".format(coverage, TILING_FLOOR))
    # The search must attribute the actual work phases, not just loop
    # bookkeeping.
    for phase in ("step", "fingerprint", "check", "record", "collect"):
        assert telemetry.phase_seconds.get(phase, 0.0) > 0.0, phase
    persist("harness", {"serial": telemetry.to_dict()})
    emit("E21: phase tiling ({}/{})".format(*TARGET),
         telemetry.render())


def test_e21_null_path_overhead():
    # Warm-up (imports, pyc, allocator) outside the timed region.
    _explore()
    ratio, bare_s, null_s = paired_ratio(
        TIMING_PAIRS, lambda: _timed_explore(None),
        lambda: _timed_explore(NullHarnessTelemetry()))
    persist("harness", {"null_overhead": {
        "bare_seconds": round(bare_s, 4),
        "null_sink_seconds": round(null_s, 4),
        "ratio": round(ratio, 4),
        "pairs": TIMING_PAIRS,
        "ceiling": NULL_OVERHEAD_CEILING,
    }})
    emit("E21: null telemetry path overhead",
         "bare {:.4f}s vs null sink {:.4f}s (medians) -> median pair "
         "ratio {:.3f} (ceiling {})".format(bare_s, null_s, ratio,
                               NULL_OVERHEAD_CEILING))
    assert ratio <= NULL_OVERHEAD_CEILING, (
        "null telemetry path costs {:.1%} over a plain run".format(
            ratio - 1.0))


def test_e21_self_profile_hotspots():
    report = self_profile(lambda: _explore(HarnessTelemetry()), top=10)
    assert report.value.exhausted
    assert report.seconds > 0
    assert report.hotspots, "profiling an exploration must find hotspots"
    # Ranked by exclusive time, and every entry carries a location the
    # next PR can jump to.
    tottimes = [spot.tottime for spot in report.hotspots]
    assert tottimes == sorted(tottimes, reverse=True)
    assert all(":" in spot.location for spot in report.hotspots)
    persist("harness", {"self_profile": report.to_dict()})
    emit("E21: harness hotspots (cProfile over the explore loop)",
         report.render())
