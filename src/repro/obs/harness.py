"""Harness self-observability: the exploration engine measured with the
same discipline it applies to the mechanisms.

Two layers:

* **Phase-attributed wall-clock accounting** — every second the explore
  hot loop spends is attributed to one phase of :data:`PHASES`
  (scheduler stepping vs fingerprint hashing vs oracle checking vs trace
  recording vs result collection), and the attribution *tiles*: E21
  (``benchmarks/bench_harness.py``) asserts the phase sum covers >= 90%
  of measured elapsed time, the same conservation standard the critical
  path meets against the makespan.
* **Live progress + hotspots** — counter samples (schedules/sec,
  frontier depth, pruning ratio) feed ``repro explore --watch`` progress
  lines, the chrome-trace "harness" track
  (:func:`repro.obs.exporters.chrome_trace` with ``harness=``), and the
  run store (:func:`repro.suite.explore_record`, gated by ``repro
  regress --explore``); :func:`self_profile` wraps a search in cProfile and
  surfaces the hotspot list (``repro explore --self-profile``).

**Null-path contract.**  Exactly like the runtime's
:class:`~repro.obs.sink.InstrumentationSink`: the engine stores
``telemetry=None`` for the unobserved case and guards every accounting
site with one ``is not None`` test; passing :class:`NullHarnessTelemetry`
is normalized to ``None`` at the entry point (``IS_NULL = True``), so an
unobserved search executes the identical code path and pays nothing.
E21 asserts the null path within 5% of no-argument runs, the same gate
E15 holds the trace sink to.

Telemetry is **passive**: it never influences a scheduling or pruning
decision, so results with telemetry attached are byte-identical to
results without (asserted by ``tests/test_harness_obs.py``).
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

#: The phase vocabulary (DESIGN.md §15).  Every schedule decomposes into
#: ``step``/``fingerprint``/``check``/``record``, and the search loop's own
#: work is ``collect``.
PHASES = (
    "step",         # scheduler stepping: executing the schedule itself
    "fingerprint",  # canonical-state digesting (RecordingPolicy.observe_state)
    "check",        # oracle battery over the finished run
    "record",       # RunRecord reduction (trace -> record)
    "collect",      # expand_record and frontier bookkeeping
)


class HarnessTelemetry:
    """Accumulating sink for harness self-measurement.

    Attach one to :class:`~repro.explore.engine.ExplorationEngine` via
    ``telemetry=``.  All methods are passive accumulators; ``watch`` (a
    writable stream) additionally emits periodic, non-tty-safe progress
    lines.
    """

    IS_NULL = False

    #: counter samples at most this often (runs / seconds), so sampling
    #: stays O(1) amortized even on million-schedule searches.
    SAMPLE_RUNS = 32
    SAMPLE_SECONDS = 0.25

    def __init__(self, watch: Optional[TextIO] = None,
                 watch_interval: float = 1.0) -> None:
        self.phase_seconds: Dict[str, float] = {}
        self.runs = 0
        self.pruned = 0
        self.frontier = 0
        self.frontier_peak = 0
        self.max_runs: Optional[int] = None
        #: (elapsed_s, runs, frontier, pruned) counter samples.
        self.samples: List[Tuple[float, int, int, int]] = []
        self.watch = watch
        self.watch_interval = watch_interval
        self._epoch: Optional[float] = None
        self._finished: Optional[float] = None
        self._last_sample_runs = 0
        self._last_sample_t = 0.0
        self._last_watch_t = 0.0

    # ------------------------------------------------------------------
    # Accumulation (called from the explore hot loop, guarded by the
    # caller's single `telemetry is not None` test)
    # ------------------------------------------------------------------
    def begin(self, max_runs: Optional[int] = None) -> None:
        """Start (or restart) the epoch."""
        self._epoch = perf_counter()
        self._finished = None
        self.max_runs = max_runs

    def add(self, phase: str, seconds: float) -> None:
        """Attribute ``seconds`` of wall clock to ``phase``."""
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + seconds)

    def note_progress(self, runs: int, frontier: int, pruned: int) -> None:
        """Update headline counters; throttled sampling + watch output."""
        self.runs = runs
        self.frontier = frontier
        self.pruned = pruned
        if frontier > self.frontier_peak:
            self.frontier_peak = frontier
        now = self.elapsed()
        if (runs - self._last_sample_runs >= self.SAMPLE_RUNS
                or now - self._last_sample_t >= self.SAMPLE_SECONDS):
            self.samples.append((now, runs, frontier, pruned))
            self._last_sample_runs = runs
            self._last_sample_t = now
        if (self.watch is not None
                and now - self._last_watch_t >= self.watch_interval):
            self._last_watch_t = now
            self.watch.write(self.progress_line() + "\n")
            self.watch.flush()

    def finish(self) -> None:
        """Freeze the elapsed clock and emit a final sample."""
        self._finished = perf_counter()
        self.samples.append(
            (self.elapsed(), self.runs, self.frontier, self.pruned))
        if self.watch is not None:
            self.watch.write(self.progress_line(final=True) + "\n")
            self.watch.flush()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        if self._epoch is None:
            return 0.0
        end = self._finished if self._finished is not None else perf_counter()
        return end - self._epoch

    def schedules_per_sec(self) -> float:
        elapsed = self.elapsed()
        return self.runs / elapsed if elapsed > 0 else 0.0

    def pruning_ratio(self) -> float:
        """Fraction of generated work items skipped by equivalence
        pruning (0 when pruning is off)."""
        total = self.runs + self.pruned
        return self.pruned / total if total else 0.0

    def coverage(self) -> float:
        """How much of measured elapsed time the phases tile (E21 gates
        this >= 0.90; the remainder is loop bookkeeping)."""
        elapsed = self.elapsed()
        return sum(self.phase_seconds.values()) / elapsed if elapsed else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Budget-bound ETA: schedules left at the current rate.  An upper
        bound — the frontier may drain (exhaust) sooner."""
        if not self.max_runs:
            return None
        rate = self.schedules_per_sec()
        if rate <= 0:
            return None
        return max(0, self.max_runs - self.runs) / rate

    def progress_line(self, final: bool = False) -> str:
        """One non-tty-safe progress line (plain text, no carriage
        returns), suitable for CI logs and ``--watch``."""
        eta = self.eta_seconds()
        return ("[explore{fin} {t:.1f}s] runs={runs} ({rate:.0f}/s) "
                "frontier={frontier} pruned={pruned} ({ratio:.1f}%)"
                " eta<={eta}").format(
            fin=" done" if final else "",
            t=self.elapsed(),
            runs=self.runs,
            rate=self.schedules_per_sec(),
            frontier=self.frontier,
            pruned=self.pruned,
            ratio=100.0 * self.pruning_ratio(),
            eta="-" if eta is None or final else "{:.1f}s".format(eta),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "elapsed_seconds": round(self.elapsed(), 6),
            "runs": self.runs,
            "pruned": self.pruned,
            "frontier_peak": self.frontier_peak,
            "schedules_per_sec": round(self.schedules_per_sec(), 1),
            "pruning_ratio": round(self.pruning_ratio(), 4),
            "phase_seconds": {phase: round(seconds, 6)
                              for phase, seconds in
                              sorted(self.phase_seconds.items())},
            "coverage": round(self.coverage(), 4),
            "samples": [
                {"t": round(t, 4), "runs": runs, "frontier": frontier,
                 "pruned": pruned}
                for t, runs, frontier, pruned in self.samples
            ],
        }

    def render(self) -> str:
        """ASCII phase report: per-phase seconds with share bars."""
        elapsed = self.elapsed()
        lines = [
            "harness telemetry: {} run(s) in {:.3f}s "
            "({:.0f} schedules/sec, {:.1f}% pruned, "
            "phase coverage {:.0f}%)".format(
                self.runs, elapsed, self.schedules_per_sec(),
                100.0 * self.pruning_ratio(), 100.0 * self.coverage()),
        ]
        for phase in PHASES:
            seconds = self.phase_seconds.get(phase)
            if seconds is None:
                continue
            share = seconds / elapsed if elapsed > 0 else 0.0
            lines.append("  %-12s %8.4fs %5.1f%% %s" % (
                phase, seconds, 100.0 * share,
                "#" * int(round(share * 40))))
        return "\n".join(lines)


class NullHarnessTelemetry(HarnessTelemetry):
    """The do-nothing telemetry.  Entry points normalize it to ``None``
    (``IS_NULL``), so attaching it is exactly as free as attaching
    nothing — the contract E21 measures."""

    IS_NULL = True


# ----------------------------------------------------------------------
# Self-profiling (repro explore --self-profile)
# ----------------------------------------------------------------------
@dataclass
class Hotspot:
    """One profiled function, ranked by cumulative time."""

    function: str
    location: str        # file:line
    calls: int
    tottime: float       # exclusive seconds
    cumtime: float       # inclusive seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "location": self.location,
            "calls": self.calls,
            "tottime": round(self.tottime, 6),
            "cumtime": round(self.cumtime, 6),
        }


@dataclass
class HotspotReport:
    """cProfile reduction of one harness workload: the exact list the
    scheduler-core refactor should attack, hottest first."""

    seconds: float
    total_calls: int
    hotspots: List[Hotspot] = field(default_factory=list)
    value: Any = None    # whatever the profiled callable returned

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seconds": round(self.seconds, 6),
            "total_calls": self.total_calls,
            "hotspots": [spot.to_dict() for spot in self.hotspots],
        }

    def render(self) -> str:
        lines = [
            "self-profile: {:.3f}s, {} function call(s)".format(
                self.seconds, self.total_calls),
            "%-28s %10s %9s %9s  %s" % (
                "function", "calls", "tottime", "cumtime", "where"),
        ]
        for spot in self.hotspots:
            lines.append("%-28s %10d %8.4fs %8.4fs  %s" % (
                spot.function[:28], spot.calls, spot.tottime,
                spot.cumtime, spot.location))
        return "\n".join(lines)


#: Frames below this share of total time are noise, not hotspots.
_HOTSPOT_MIN_SHARE = 0.005


def self_profile(fn: Callable[[], Any], top: int = 15) -> HotspotReport:
    """Run ``fn`` under cProfile and reduce the stats to the ``top``
    hotspots by exclusive (tot) time.  Pure-Python profiling: expect the
    profiled run itself to be ~2x slower — this is the *diagnosis* mode,
    never the measurement mode (wall-clock numbers stay with
    :class:`HarnessTelemetry`)."""
    profiler = cProfile.Profile()
    start = perf_counter()
    value = profiler.runcall(fn)
    seconds = perf_counter() - start
    stats = pstats.Stats(profiler, stream=io.StringIO())
    hotspots: List[Hotspot] = []
    total_calls = 0
    entries = []
    for (filename, line, function), (cc, ncalls, tottime, cumtime, __) \
            in stats.stats.items():  # type: ignore[attr-defined]
        total_calls += ncalls
        entries.append((tottime, cumtime, ncalls, function, filename, line))
    entries.sort(reverse=True)
    floor = seconds * _HOTSPOT_MIN_SHARE
    for tottime, cumtime, ncalls, function, filename, line in entries:
        if len(hotspots) >= top or tottime < floor:
            break
        location = "{}:{}".format(os.path.basename(filename) or "~", line)
        hotspots.append(Hotspot(function=function, location=location,
                                calls=ncalls, tottime=tottime,
                                cumtime=cumtime))
    return HotspotReport(seconds=seconds, total_calls=total_calls,
                         hotspots=hotspots, value=value)
