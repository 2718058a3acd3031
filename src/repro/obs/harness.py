"""Harness self-observability: the exploration engine measured with the
same discipline it applies to the mechanisms.

The ROADMAP's perf goal — "make exploration fast, and make parallel
actually parallel" — cannot be attacked blind: before this module the
harness could report *that* the 4-worker frontier was slower than serial
(``parallel_speedup: 0.73`` in BENCH_exploration.json) but not *why*.
This module answers why, in three layers:

* **Phase-attributed wall-clock accounting** — every second the explore
  hot loop spends is attributed to one phase of :data:`PHASES`
  (scheduler stepping vs fingerprint hashing vs oracle checking vs trace
  recording vs dispatch/IPC vs result collection), and the attribution
  *tiles*: E21 (``benchmarks/bench_harness.py``) asserts the phase sum
  covers >= 90% of measured elapsed time, the same conservation standard
  the critical path meets against the makespan.
* **Per-worker utilization timeline** — for :func:`repro.explore.parallel.
  explore_parallel`, each worker item becomes a :class:`WorkerItem`
  (busy span, queue wait, pickle bytes in/out), and
  :meth:`HarnessTelemetry.attribution` reduces the timeline to an
  Amdahl-style explanation of the observed speedup: serial master share,
  parallel busy share, idle/IPC share, the core-count bound, and an
  ``oversubscribed`` verdict when workers exceed physical cpus.
* **Live progress + hotspots** — counter samples (schedules/sec,
  frontier depth, pruning ratio) feed ``repro explore --watch`` progress
  lines, the chrome-trace "harness" track
  (:func:`repro.obs.exporters.chrome_trace` with ``harness=``), and the
  run store (:func:`repro.suite.explore_record`, gated by ``repro
  regress --explore``); :func:`self_profile` wraps a search in cProfile and
  surfaces the hotspot list (``repro profile --self``) the scheduler-core
  refactor needs.

**Null-path contract.**  Exactly like the runtime's
:class:`~repro.obs.sink.InstrumentationSink`: the engine and the parallel
frontier store ``telemetry=None`` for the unobserved case and guard every
accounting site with one ``is not None`` test; passing
:class:`NullHarnessTelemetry` is normalized to ``None`` at the entry
point (``IS_NULL = True``), so an unobserved search executes the
identical code path and pays nothing.  E21 asserts the null path within
5% of no-argument runs, the same gate E15 holds the trace sink to.

Telemetry is **passive**: it never influences a scheduling or pruning
decision, so results with telemetry attached are byte-identical to
results without (asserted by ``tests/test_harness_obs.py``).  Worker
timestamps are ``time.perf_counter()`` readings; on the POSIX platforms
the pool targets (fork context) that clock is system-wide monotonic, so
worker spans are directly comparable with the master epoch.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

#: The phase vocabulary (DESIGN.md §15).  Serial searches decompose every
#: schedule into ``step``/``fingerprint``/``check``/``record`` and the
#: master loop into ``dispatch``/``collect``; multi-process searches
#: additionally book the pool round-trip under ``execute`` (decomposed
#: post-hoc into busy/idle/IPC by the worker timeline).
PHASES = (
    "step",         # scheduler stepping: executing the schedule itself
    "fingerprint",  # canonical-state digesting (RecordingPolicy.observe_state)
    "check",        # oracle battery over the finished run
    "record",       # RunRecord reduction (trace -> picklable record)
    "dispatch",     # wave sort, prefix pickling, work submission
    "execute",      # pool.map round trip (workers > 1 only)
    "collect",      # record merging, expand_record, frontier bookkeeping
)


@dataclass(frozen=True)
class WorkerItem:
    """One schedule executed by one pool worker, on the master's clock."""

    worker: int          # worker process id
    start: float         # seconds since telemetry epoch
    end: float
    queue_wait: float    # start minus the wave's dispatch timestamp
    result_bytes: int    # pickled RunRecord size shipped back
    prefix_len: int

    @property
    def busy(self) -> float:
        return self.end - self.start


@dataclass
class WaveStat:
    """One dispatch round of the parallel frontier."""

    size: int            # work items in the wave
    chunk: int           # pool chunksize
    arg_bytes: int       # pickled prefix bytes shipped out
    seconds: float       # pool round-trip wall time


class HarnessTelemetry:
    """Accumulating sink for harness self-measurement.

    Attach one to :class:`~repro.explore.engine.ExplorationEngine` or
    :func:`~repro.explore.parallel.explore_parallel` via ``telemetry=``.
    All methods are passive accumulators; ``watch`` (a writable stream)
    additionally emits periodic, non-tty-safe progress lines.
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
        self.workers = 1
        #: (elapsed_s, runs, frontier, pruned) counter samples.
        self.samples: List[Tuple[float, int, int, int]] = []
        self.worker_items: List[WorkerItem] = []
        self.waves: List[WaveStat] = []
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
    def begin(self, max_runs: Optional[int] = None,
              workers: int = 1) -> None:
        """Start (or restart) the epoch.  Idempotent across the serial
        engine's and the parallel frontier's shared entry points."""
        self._epoch = perf_counter()
        self._finished = None
        self.max_runs = max_runs
        self.workers = workers

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

    def note_wave(self, size: int, chunk: int, arg_bytes: int,
                  seconds: float) -> None:
        self.waves.append(WaveStat(size=size, chunk=chunk,
                                   arg_bytes=arg_bytes, seconds=seconds))

    def note_worker_item(self, worker: int, start: float, end: float,
                         dispatch_ts: float, result_bytes: int,
                         prefix_len: int) -> None:
        """Record one worker execution.  ``start``/``end``/``dispatch_ts``
        are raw ``perf_counter`` readings; stored relative to the epoch."""
        epoch = self._epoch or 0.0
        self.worker_items.append(WorkerItem(
            worker=worker,
            start=start - epoch,
            end=end - epoch,
            queue_wait=max(0.0, start - dispatch_ts),
            result_bytes=result_bytes,
            prefix_len=prefix_len,
        ))

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

    def utilization(self) -> Dict[int, Dict[str, Any]]:
        """Per-worker reduction of the item timeline: busy seconds, items
        executed, bytes shipped back, mean queue wait."""
        per: Dict[int, Dict[str, Any]] = {}
        for item in self.worker_items:
            stats = per.setdefault(item.worker, {
                "busy_seconds": 0.0, "items": 0, "result_bytes": 0,
                "queue_wait_seconds": 0.0,
            })
            stats["busy_seconds"] += item.busy
            stats["items"] += 1
            stats["result_bytes"] += item.result_bytes
            stats["queue_wait_seconds"] += item.queue_wait
        execute = self.phase_seconds.get("execute", 0.0)
        for stats in per.values():
            stats["busy_seconds"] = round(stats["busy_seconds"], 6)
            stats["queue_wait_seconds"] = round(
                stats["queue_wait_seconds"], 6)
            stats["utilization"] = (
                round(min(1.0, stats["busy_seconds"] / execute), 4)
                if execute > 0 else None)
        return per

    def attribution(self) -> Dict[str, Any]:
        """Amdahl-style speedup attribution: where the wall clock of a
        parallel search went, and what speedup the configuration could at
        best have achieved.

        The model (DESIGN.md §15): elapsed ~= serial + execute, where
        ``serial`` is master-only work (dispatch + collect + serial-mode
        phases) and ``execute`` is the pool round trip.  ``execute``
        spreads over ``workers`` lanes of capacity: ``busy`` seconds did
        schedule work, the rest is ``idle`` (queue imbalance, IPC
        serialization, core starvation).  With ``effective = min(workers,
        cpus)`` truly parallel lanes, the best case is ``serial +
        busy/effective`` — the Amdahl bound reported here.  When
        ``workers > cpus`` the run is flagged ``oversubscribed``: lanes
        time-slice one core, busy seconds exceed wall capacity, and a
        speedup below 1 is the *expected* outcome, not an anomaly.
        """
        elapsed = self.elapsed()
        execute = self.phase_seconds.get("execute", 0.0)
        busy = sum(item.busy for item in self.worker_items)
        serial = sum(seconds for phase, seconds in self.phase_seconds.items()
                     if phase != "execute")
        capacity = execute * self.workers
        idle = max(0.0, capacity - busy)
        cpus = os.cpu_count() or 1
        effective = max(1, min(self.workers, cpus))
        oversubscribed = self.workers > cpus
        amdahl = ((serial + busy) / (serial + busy / effective)
                  if serial + busy > 0 else 1.0)
        result_bytes = sum(item.result_bytes for item in self.worker_items)
        arg_bytes = sum(wave.arg_bytes for wave in self.waves)
        causes = []
        if oversubscribed:
            causes.append(
                "oversubscribed: {} workers share {} cpu(s), so worker "
                "lanes time-slice instead of running in parallel".format(
                    self.workers, cpus))
        if capacity > 0 and idle / capacity > 0.5:
            causes.append(
                "workers idle {:.0f}% of pool capacity (queue imbalance "
                "and IPC)".format(100.0 * idle / capacity))
        if elapsed > 0 and serial / elapsed > 0.5:
            causes.append(
                "master-side serial work is {:.0f}% of elapsed (Amdahl "
                "bound {:.2f}x)".format(100.0 * serial / elapsed, amdahl))
        if not causes:
            causes.append("no dominant bottleneck: parallel section is "
                          "busy and the serial share is small")
        return {
            "workers": self.workers,
            "cpu_count": cpus,
            "effective_workers": effective,
            "oversubscribed": oversubscribed,
            "elapsed_seconds": round(elapsed, 6),
            "serial_seconds": round(serial, 6),
            "execute_seconds": round(execute, 6),
            "worker_busy_seconds": round(busy, 6),
            "worker_idle_seconds": round(idle, 6),
            "worker_utilization": (round(busy / capacity, 4)
                                   if capacity > 0 else None),
            "pickle_bytes_out": arg_bytes,
            "pickle_bytes_in": result_bytes,
            "amdahl_speedup_bound": round(amdahl, 4),
            "explanation": "; ".join(causes),
        }

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
            "workers": self.workers,
            "waves": len(self.waves),
            "worker_utilization": {str(worker): stats for worker, stats
                                   in sorted(self.utilization().items())},
            "attribution": (self.attribution()
                            if self.worker_items else None),
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
        if self.worker_items:
            attribution = self.attribution()
            lines.append("  workers: {} ({} effective on {} cpu(s); "
                         "utilization {}, {} idle s)".format(
                             attribution["workers"],
                             attribution["effective_workers"],
                             attribution["cpu_count"],
                             attribution["worker_utilization"],
                             attribution["worker_idle_seconds"]))
            lines.append("  " + attribution["explanation"])
        return "\n".join(lines)


class NullHarnessTelemetry(HarnessTelemetry):
    """The do-nothing telemetry.  Entry points normalize it to ``None``
    (``IS_NULL``), so attaching it is exactly as free as attaching
    nothing — the contract E21 measures."""

    IS_NULL = True


# ----------------------------------------------------------------------
# Self-profiling (repro profile --self / repro explore --self-profile)
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
