"""Outside-in per-layer ledger: spans and counters recorded by the benchmark.

The program under ``src/`` is measured as it is.  A traced pass times the
calls into each layer's public functions from here: it wraps the callables
the benchmark hands to the program (runners, checkers, sinks) and, for the
duration of the pass, rebinds a few module-level names the program looks up
at call time (``ExplorationEngine`` in the campaign modules, the synth
cache methods).  :meth:`Tracer.restore` puts every rebound name back when
the pass ends, so an untraced pass in the same process runs the program's
own code path.

A span is ``[name, start, end, parent, pass]``.  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its
duration minus its children's durations; the code is serial, so children
never overlap.

Fingerprint time cannot be reached from outside (the engine builds its own
recording policy), so each traced engine carries the program's own
``HarnessTelemetry`` and the ledger reads its phase totals, then
cross-checks them against the outside spans.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Span names, by layer.  Every span the ledger opens uses one of these.
RUNTIME_RUN = "runtime.run"
VERIFY_CHECK = "verify.check"
EXPLORE_SEARCH = "explore.search"
EXPLORE_REPLAY = "explore.replay"
EXPLORE_MINIMIZE = "explore.minimize"
LOAD_RUN = "load.run"
PASS = "pass"
HOST_SAMPLE = "hostspeed.sample"

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload does not reach reads 0 there.  ``_MECHANISMS`` is the program's
#: ``LOAD_MECHANISMS``; a run that reports an undeclared name fails.
_MECHANISMS = ("semaphore", "monitor", "serializer", "pathexpr_open", "csp",
               "ccr")
PER_LAYER = dict(
    [("runtime.runs", "count"), ("runtime.steps", "count"),
     ("runtime.events", "count"), ("runtime.events_peak_run", "count"),
     ("runtime.run_s", "s"), ("runtime.run_us_p50", "us"),
     ("runtime.run_us_p99", "us"), ("runtime.run_samples", "count"),
     ("runtime.fingerprint_s", "s"),
     ("verify.checks", "count"), ("verify.check_s", "s"),
     ("explore.searches", "count"), ("explore.runs", "count"),
     ("explore.states", "count"), ("explore.pruned", "count"),
     ("explore.prune_ratio", "ratio"),
     ("explore.exhausted_targets", "count"), ("explore.self_s", "s"),
     ("obs.sink_calls", "count"), ("obs.sink_s", "s"),
     ("obs.memory_cells", "count"), ("obs.sink_completed", "count"),
     ("load.ops_attempted", "count"), ("load.run_s", "s")]
    + [("load.steps_per_op." + m, "steps/op") for m in _MECHANISMS]
    + [("load.sim_p99_ticks." + m, "ticks") for m in _MECHANISMS]
    + [("synth.candidates_tried", "count"), ("synth.cex_rejected", "count"),
       ("synth.cex_replays", "count"), ("synth.explored", "count"),
       ("synth.exploration_runs", "count"), ("synth.cex_leverage", "ratio"),
       ("synth.diagnose_s", "s"), ("synth.synthesize_s", "s"),
       ("synth.cache_lookup_s", "s"), ("synth.cache_store_s", "s"),
       ("synth.cache_stores", "count"),
       ("verify.chaos.report_s", "s"), ("verify.recovery.report_s", "s"),
       ("verify.partition.report_s", "s"), ("resilience.report_s", "s"),
       ("verify.recovery.mttr_s", "s"), ("recover.search_s", "s"),
       ("resilience.search_s", "s"), ("faults.cells", "count"),
       ("faults.runs", "count"), ("recover.search_tried", "count"),
       ("resilience.search_tried", "count"),
       ("trace.spans", "count"), ("trace.span_coverage", "ratio"),
       ("trace.telemetry_run_ratio", "ratio"),
       ("trace.telemetry_check_ratio", "ratio"),
       ("trace.telemetry_explore_ratio", "ratio"),
       ("trace.untraced_verdict_s", "s"), ("trace.traced_verdict_s", "s"),
       ("trace.overhead_s", "s")])


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.run_us: List[float] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record a span around the block.  A span nested directly in one
        of the same name is not recorded again (a traced runner that calls
        a traced builder counts once); the block then yields ``None``."""
        if self._stack and self.spans[self._stack[-1]][0] == name:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.traced_by = self
        return traced

    def rebind(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` for this pass; :meth:`restore` undoes it."""
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Layer wrappers
    # ------------------------------------------------------------------
    def runtime(self, build: Callable) -> Callable:
        """A runner/builder whose calls are timed as runtime runs."""
        if getattr(build, "traced_by", None) is self:
            return build

        def run(*args, **kwargs):
            with self.span(RUNTIME_RUN) as record:
                result = build(*args, **kwargs)
            if record is not None:
                self.note_run(record[2] - record[1], result.steps,
                              len(result.trace))
            return result
        run.traced_by = self
        return run

    def note_run(self, seconds: float, steps: int, events: int) -> None:
        self.add("runtime.runs")
        self.add("runtime.run_s", seconds)
        self.add("runtime.steps", steps)
        self.add("runtime.events", events)
        self.counts["runtime.events_peak_run"] = max(
            self.counts.get("runtime.events_peak_run", 0), events)
        self.run_us.append(seconds * 1e6)

    def checker(self, check: Callable) -> Callable:
        """An oracle battery whose calls are timed as verify checks."""
        if getattr(check, "traced_by", None) is self:
            return check

        def traced(run):
            self.add("verify.checks")
            with self.span(VERIFY_CHECK):
                return check(run)
        traced.traced_by = self
        return traced

    def sink(self, sink) -> None:
        """Time ``on_event``/``on_step``/``on_probe`` on this sink instance.
        Per-call spans would cost more than the calls, so the hooks add
        into two counters instead."""
        for hook in ("on_event", "on_step", "on_probe"):
            original = getattr(sink, hook)

            def timed(*args, _original=original):
                start = perf_counter()
                _original(*args)
                self.counts["obs.sink_s"] += perf_counter() - start
                self.counts["obs.sink_calls"] += 1
            setattr(sink, hook, timed)
        self.counts.setdefault("obs.sink_s", 0.0)
        self.counts.setdefault("obs.sink_calls", 0)

    def engine_class(self):
        """An ``ExplorationEngine`` subclass that records this tracer's
        explore, runtime and verify spans and attaches telemetry."""
        from repro.explore.engine import ExplorationEngine
        from repro.obs.harness import HarnessTelemetry

        tracer = self

        class TracedEngine(ExplorationEngine):
            def __init__(self, build_and_run, *args, **kwargs):
                if kwargs.get("telemetry") is None:
                    kwargs["telemetry"] = HarnessTelemetry()
                super().__init__(tracer.runtime(build_and_run), *args,
                                 **kwargs)

            def explore(self, check, *args, **kwargs):
                with tracer.span(EXPLORE_SEARCH):
                    result = super().explore(tracer.checker(check), *args,
                                             **kwargs)
                tracer.note_search(result, self.telemetry)
                return result

        return TracedEngine

    def note_search(self, result, telemetry) -> None:
        self.add("explore.searches")
        self.add("explore.runs", result.runs)
        self.add("explore.states", result.states)
        self.add("explore.pruned", result.pruned)
        self.add("explore.exhausted_targets", int(result.exhausted))
        for phase, seconds in telemetry.phase_seconds.items():
            self.add("telemetry." + phase, seconds)


def engine_class(tracer: Optional[Tracer]):
    """The engine a pass should build: traced when ``tracer`` is set."""
    if tracer is None:
        from repro.explore.engine import ExplorationEngine
        return ExplorationEngine
    return tracer.engine_class()


def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


# ----------------------------------------------------------------------
# Reduction: one traced pass -> per-layer metrics
# ----------------------------------------------------------------------
def durations(tracer: Tracer) -> Dict[str, float]:
    """Total duration per span name."""
    out: Dict[str, float] = {}
    for name, start, end, __, __ in tracer.spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def self_times(tracer: Tracer) -> Dict[str, float]:
    """Total self time per span name: duration minus children."""
    out = durations(tracer)
    for name, start, end, parent, __ in tracer.spans:
        if parent >= 0:
            parent_name = tracer.spans[parent][0]
            out[parent_name] -= end - start
    return out


def under(tracer: Tracer, name: str, parent_name: str) -> float:
    """Total duration of ``name`` spans whose parent is a ``parent_name``."""
    return sum(end - start for n, start, end, parent, __ in tracer.spans
               if n == name and parent >= 0
               and tracer.spans[parent][0] == parent_name)


def coverage(tracer: Tracer) -> float:
    """Smallest share of a pass span covered by its direct children."""
    shares = []
    for index, (name, start, end, __, __) in enumerate(tracer.spans):
        if name != PASS:
            continue
        covered = sum(s[2] - s[1] for s in tracer.spans if s[3] == index)
        shares.append(covered / (end - start) if end > start else 0.0)
    return min(shares) if shares else 0.0


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The layer metrics every workload reports, from one traced pass.

    Workload-specific metrics (``load.*``, ``synth.*``, the campaign
    ``*.report_s``) are added by the workload itself.
    """
    c = tracer.counts
    dur = durations(tracer)
    own = self_times(tracer)
    runtime_s = c.get("runtime.run_s", 0.0)
    check_s = dur.get(VERIFY_CHECK, 0.0)
    telemetry_run = (c.get("telemetry.step", 0.0)
                     + c.get("telemetry.fingerprint", 0.0))
    telemetry_all = sum(v for k, v in c.items() if k.startswith("telemetry."))
    explore_s = dur.get(EXPLORE_SEARCH, 0.0)
    pruned = c.get("explore.pruned", 0)
    runs = c.get("explore.runs", 0)
    return {
        "runtime.runs": c.get("runtime.runs", 0),
        "runtime.steps": c.get("runtime.steps", 0),
        "runtime.events": c.get("runtime.events", 0),
        "runtime.events_peak_run": c.get("runtime.events_peak_run", 0),
        "runtime.run_s": runtime_s,
        "runtime.run_us_p50": _quantile(tracer.run_us, 50),
        "runtime.run_us_p99": _quantile(tracer.run_us, 99),
        "runtime.run_samples": len(tracer.run_us),
        "runtime.fingerprint_s": c.get("telemetry.fingerprint", 0.0),
        "verify.checks": c.get("verify.checks", 0),
        "verify.check_s": check_s,
        "explore.searches": c.get("explore.searches", 0),
        "explore.runs": runs,
        "explore.states": c.get("explore.states", 0),
        "explore.pruned": pruned,
        "explore.prune_ratio": _ratio(pruned, pruned + runs),
        "explore.exhausted_targets": c.get("explore.exhausted_targets", 0),
        "explore.self_s": own.get(EXPLORE_SEARCH, 0.0),
        "obs.sink_calls": c.get("obs.sink_calls", 0),
        "obs.sink_s": c.get("obs.sink_s", 0.0),
        "trace.spans": len(tracer.spans),
        "trace.span_coverage": coverage(tracer),
        # Telemetry's step+fingerprint phases time the same calls as the
        # outside runtime spans, its check phase the same calls as the
        # verify spans, and its phase sum the same loop as the explore
        # spans.  Each ratio reads 1.0 when both views agree.
        # Host-speed samples taken in the runner fall inside telemetry's
        # step phase but outside the runtime spans.
        "trace.telemetry_run_ratio": _ratio(
            telemetry_run - under(tracer, HOST_SAMPLE, EXPLORE_SEARCH),
            under(tracer, RUNTIME_RUN, EXPLORE_SEARCH)),
        "trace.telemetry_check_ratio": _ratio(
            c.get("telemetry.check", 0.0),
            under(tracer, VERIFY_CHECK, EXPLORE_SEARCH)),
        "trace.telemetry_explore_ratio": _ratio(telemetry_all, explore_s),
    }


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced passes."""
    keys = per_pass[0].keys()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}

