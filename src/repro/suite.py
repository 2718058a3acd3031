"""The evaluation suite's application layer: canonical workloads per
(problem, mechanism), the profile and causal runners, and the producers
of the run store's gate records.

:func:`run_profile` builds an instrumented :class:`Scheduler` (a
:class:`~repro.obs.sink.RecordingSink` attached), injects it into the
problem's standard workload via the ``sched=`` parameter every run helper
accepts, and folds the resulting trace into spans and metrics — one call
yields everything the CLI ``profile`` / ``metrics`` commands print or
export.

The workload per problem is the same one the oracles and benchmarks use
(the registry's canonical shape), so profiles are directly comparable with
correctness results.  ``seed`` switches the scheduler to a seeded
:class:`~repro.runtime.policies.RandomPolicy` to profile a perturbed
interleaving; the default is the deterministic FIFO schedule.

This is the only module that knows the three kinds of
:class:`~repro.obs.runstore.GateRecord` — ``causal`` (a profiled run's
critical path), ``load`` (a saturation sweep's latency tail) and
``explore`` (a pruned search's schedule count and throughput).
:data:`PRODUCERS` maps each kind to how its targets are enumerated and
measured; ``repro regress`` dispatches through that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .explore import ExplorationEngine, get_target
from .load import LOAD_MECHANISMS, LoadPoint, saturation_curve
from .obs.critical_path import CriticalPathReport, compute_critical_path
from .obs.harness import HarnessTelemetry
from .obs.metrics import RunMetrics, compute_metrics
from .obs.runstore import GateRecord, Number
from .obs.sink import RecordingSink
from .obs.spans import Span, blocked_time_by_object, fold_spans
from .problems import (
    alarm_clock,
    bounded_buffer,
    disk_scheduler,
    fcfs_resource,
    one_slot_buffer,
    staged_queue,
)
from .problems import readers_writers as rw
from .problems.registry import REGISTRY, get_solution, solutions_for
from .runtime.policies import RandomPolicy, SchedulingPolicy
from .runtime.scheduler import Scheduler
from .runtime.trace import RunResult


def _run_bounded_buffer(factory, sched: Scheduler) -> RunResult:
    result, __, __ = bounded_buffer.run_producers_consumers(
        factory, producers=3, consumers=3, items_each=4, sched=sched)
    return result


def _run_one_slot(factory, sched: Scheduler) -> RunResult:
    result, __ = one_slot_buffer.run_ping_pong(
        factory, rounds=12, producers=3, consumers=3, sched=sched)
    return result


def _run_fcfs(factory, sched: Scheduler) -> RunResult:
    return fcfs_resource.run_contenders(
        factory, contenders=6, rounds=2, sched=sched)


def _run_rw(factory, sched: Scheduler) -> RunResult:
    return rw.run_workload(factory, rw.BURST_PLAN, sched=sched)


def _run_disk(factory, sched: Scheduler) -> RunResult:
    result, __ = disk_scheduler.run_requests(factory, sched=sched)
    return result


def _run_alarm(factory, sched: Scheduler) -> RunResult:
    result, __ = alarm_clock.run_sleepers(factory, sched=sched)
    return result


def _run_staged(factory, sched: Scheduler) -> RunResult:
    return staged_queue.run_classes(factory, sched=sched)


#: problem name -> runner(factory, sched) -> RunResult.  Readers/writers
#: problems share one workload shape.
WORKLOADS: Dict[str, Callable[[Any, Scheduler], RunResult]] = {
    "bounded_buffer": _run_bounded_buffer,
    "one_slot_buffer": _run_one_slot,
    "fcfs_resource": _run_fcfs,
    "readers_priority": _run_rw,
    "writers_priority": _run_rw,
    "rw_fcfs": _run_rw,
    "disk_scheduler": _run_disk,
    "alarm_clock": _run_alarm,
    "staged_queue": _run_staged,
}


@dataclass
class ProfileReport:
    """Everything one instrumented run produced."""

    problem: str
    mechanism: str
    result: RunResult
    spans: List[Span]
    metrics: RunMetrics
    sink: RecordingSink
    seed: Optional[int] = None

    @property
    def blocked_by_object(self) -> Dict[str, int]:
        return blocked_time_by_object(self.spans)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.problem,
            "mechanism": self.mechanism,
            "seed": self.seed,
            "metrics": self.metrics.to_dict(),
            "spans": [span.to_dict() for span in self.spans],
        }


def profileable() -> List[str]:
    """``problem/mechanism`` labels with both a registry entry and a
    workload runner."""
    return [
        "{}/{}".format(entry.problem, entry.mechanism)
        for entry in sorted(REGISTRY.values(), key=lambda e: e.key)
        if entry.problem in WORKLOADS
    ]


def run_profile(
    problem: str,
    mechanism: str,
    seed: Optional[int] = None,
    policy: Optional[SchedulingPolicy] = None,
    fault_plan=None,
) -> ProfileReport:
    """Run the canonical workload for ``(problem, mechanism)`` under full
    instrumentation; raises ``KeyError`` for unknown pairs.

    ``fault_plan`` injects a :class:`~repro.runtime.faults.FaultPlan` into
    the instrumented scheduler — how ``repro regress --inject-delay``
    manufactures a synthetic slowdown to prove the gate trips.
    """
    entry = get_solution(problem, mechanism)
    runner = WORKLOADS.get(problem)
    if runner is None:
        raise KeyError("no profiling workload for problem {!r}".format(problem))
    if policy is None and seed is not None:
        policy = RandomPolicy(seed)
    sink = RecordingSink()
    sched = Scheduler(policy=policy, sink=sink, fault_plan=fault_plan)
    result = runner(entry.factory, sched)
    spans = fold_spans(result.trace)
    metrics = compute_metrics(result, spans, sink)
    return ProfileReport(
        problem=problem,
        mechanism=mechanism,
        result=result,
        spans=spans,
        metrics=metrics,
        sink=sink,
        seed=seed,
    )


@dataclass
class CausalReport:
    """One causally-analysed run: the profile plus its happens-before
    critical path and the durable record the run store persists."""

    profile: ProfileReport
    path: CriticalPathReport
    record: GateRecord

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.profile.problem,
            "mechanism": self.profile.mechanism,
            "seed": self.profile.seed,
            "critical_path": self.path.to_dict(),
            "record": self.record.to_dict(),
        }


def run_causal(
    problem: str,
    mechanism: str,
    seed: Optional[int] = None,
    fault_plan=None,
) -> CausalReport:
    """Profile one pair and derive its critical path + gate record."""
    profile = run_profile(problem, mechanism, seed=seed,
                          fault_plan=fault_plan)
    path = compute_critical_path(profile.result.trace)
    record = causal_record(problem, mechanism, path, profile.metrics,
                           seed=seed)
    return CausalReport(profile=profile, path=path, record=record)


def metrics_suite(
    problem: Optional[str] = None,
    mechanism: Optional[str] = None,
    seed: Optional[int] = None,
) -> List[ProfileReport]:
    """Profile every registered (problem, mechanism) pair matching the
    filters — the cross-mechanism comparison ``python -m repro metrics``
    tabulates."""
    reports = []
    for entry in solutions_for(problem, mechanism):
        if entry.problem not in WORKLOADS:
            continue
        reports.append(run_profile(entry.problem, entry.mechanism, seed=seed))
    return reports


def comparison_table(reports: List[ProfileReport]) -> str:
    """One row per profiled pair: the headline counters side by side."""
    if not reports:
        return "(nothing profiled)"
    lines = [
        "%-18s %-12s %6s %7s %7s %6s %7s %6s"
        % ("problem", "mechanism", "steps", "switch", "events",
           "blkd", "handoff", "maxQ"),
    ]
    for report in reports:
        m = report.metrics
        blocked_total = sum(report.blocked_by_object.values())
        max_queue = max(
            (om.max_queue_depth for om in m.objects.values()), default=0)
        lines.append(
            "%-18s %-12s %6d %7d %7d %6d %7d %6d"
            % (report.problem[:18], report.mechanism[:12], m.steps,
               m.context_switches, m.events, blocked_total, m.handoffs,
               max_queue))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Gate-record producers (repro causal / explore --record / regress)
# ----------------------------------------------------------------------
#: Gated metrics per kind.  ``+``: growth regresses; ``-``: a drop does.
CAUSAL_GATES = {"makespan": "+", "path_blocked_ticks": "+", "steps": "+",
                "context_switches": "+"}
#: Seq-axis latency tails at the sweep's largest population, plus the
#: virtual-time counters of that point.
LOAD_GATES = {"makespan": "+", "steps": "+", "latency_p95": "+",
              "latency_p99": "+"}
#: ``runs`` is fully deterministic, so any growth is a pruning regression;
#: ``schedules_per_sec`` is wall-clock and machine-dependent — gate it with
#: a generous threshold.  Phase seconds are persisted, never gated.
EXPLORE_GATES = {"runs": "+", "schedules_per_sec": "-"}


def _dotted(prefix: str, values: Dict[str, Number]) -> Dict[str, Number]:
    return {"{}.{}".format(prefix, name): value
            for name, value in values.items()}


def causal_record(problem: str, mechanism: str, path: CriticalPathReport,
                  metrics: RunMetrics,
                  seed: Optional[int] = None) -> GateRecord:
    """A profiled run's causal fingerprint: makespan, critical-path
    composition, constraint / information-type attribution and headline
    counters.  All virtual-time data, so the record is bit-stable across
    machines — a record written on one host is a valid baseline on
    another."""
    values: Dict[str, Number] = {
        "makespan": path.makespan,
        "path_ticks": path.path_ticks,
        "path_blocked_ticks": sum(seg.duration for seg in path.segments
                                  if seg.kind in ("blocked", "timer")),
        "slack": path.slack,
        "segments": len(path.segments),
        "steps": metrics.steps,
        "events": metrics.events,
        "context_switches": metrics.context_switches,
        "handoffs": metrics.handoffs,
    }
    values.update(_dotted("constraint_ticks", path.constraint_ticks()))
    values.update(_dotted("info_type_ticks", path.info_type_ticks()))
    values.update(_dotted("blocked_by_object",
                          path.blocked_ticks_by_object()))
    for obj, bounds in path.virtual_speedups().items():
        values.update(_dotted("speedups." + obj, bounds))
    return GateRecord("causal", "{}/{}".format(problem, mechanism), seed,
                      values, dict(CAUSAL_GATES))


def load_tail_record(mechanism: str, points: List[LoadPoint],
                     seed: Optional[int] = None) -> GateRecord:
    """A gateable record from a ``saturation_curve`` sweep.

    Takes the sweep's **largest population** point — the saturation end of
    the curve, where queueing dominates and tail blowups surface first —
    and records its seq-axis p95/p99 latency alongside its virtual-time
    counters.  All inputs are virtual-time data, so the record is as
    machine-stable as a causal one, and ``repro regress --load`` can fail
    CI on a tail-latency regression.
    """
    if not points:
        raise ValueError("load_tail_record needs at least one sweep point")
    tail = max(points, key=lambda p: p.clients)
    values: Dict[str, Number] = {
        "makespan": int(tail.duration_ticks),
        "steps": int(tail.steps),
        "events": int(tail.events),
        "latency_p95": int(round(tail.latency["p95"])),
        "latency_p99": int(round(tail.latency["p99"])),
    }
    return GateRecord("load", mechanism, seed, values, dict(LOAD_GATES))


def explore_record(problem: str, mechanism: str, result: Any,
                   telemetry: HarnessTelemetry,
                   seed: Optional[int] = None) -> GateRecord:
    """A gateable record from one explored target: the schedule count,
    the pruned work items, wall-clock throughput from the
    :class:`~repro.obs.harness.HarnessTelemetry`, and its phase breakdown
    (persisted for post-hoc diffing, not gated)."""
    values: Dict[str, Number] = {
        "runs": result.runs,
        "pruned": result.pruned,
        "schedules_per_sec": int(round(telemetry.schedules_per_sec())),
    }
    values.update(_dotted("phase_seconds", {
        phase: round(seconds, 6)
        for phase, seconds in telemetry.phase_seconds.items()}))
    return GateRecord("explore", "{}/{}".format(problem, mechanism), seed,
                      values, dict(EXPLORE_GATES))


def _causal_targets(*, problem, mechanism, **_options) -> List[str]:
    return ["{}/{}".format(entry.problem, entry.mechanism)
            for entry in solutions_for(problem, mechanism)
            if entry.problem in WORKLOADS]


def _measure_causal(target: str, seed: Optional[int], *, fault_plan,
                    **_options) -> GateRecord:
    problem, __, mechanism = target.partition("/")
    return run_causal(problem, mechanism, seed=seed,
                      fault_plan=fault_plan).record


def _load_targets(*, mechanism, **_options) -> List[str]:
    return [mechanism] if mechanism else list(LOAD_MECHANISMS)


def _measure_load(target: str, seed: Optional[int], *, load_clients,
                  **_options) -> GateRecord:
    points = saturation_curve(target, load_clients,
                              seed=seed if seed is not None else 0)
    return load_tail_record(target, points, seed=seed)


def _explore_targets(*, explore_target: str, **_options) -> List[str]:
    return [spec.strip() for spec in explore_target.split(",")
            if spec.strip()]


def _measure_explore(target: str, seed: Optional[int], *, explore_runs,
                     explore_depth, **_options) -> GateRecord:
    problem, __, mechanism = target.partition("/")
    explored = get_target(problem, mechanism)
    telemetry = HarnessTelemetry()
    result = ExplorationEngine(
        explored.runner(), max_runs=explore_runs, max_depth=explore_depth,
        prune=True, telemetry=telemetry).explore(explored.checker)
    return explore_record(problem, mechanism, result, telemetry, seed=seed)


class Producer(NamedTuple):
    """How one record kind is enumerated (``--write-baseline``) and
    measured.  ``targets`` takes ``problem``, ``mechanism`` and
    ``explore_target``; ``measure`` takes ``(target, seed)`` plus
    ``fault_plan``, ``load_clients``, ``explore_runs`` and
    ``explore_depth``.  Each ignores the keywords its kind does not use,
    and ``measure`` raises ``KeyError`` for a target with no workload
    here."""

    targets: Callable[..., List[str]]
    measure: Callable[..., GateRecord]


PRODUCERS: Dict[str, Producer] = {
    "causal": Producer(_causal_targets, _measure_causal),
    "load": Producer(_load_targets, _measure_load),
    "explore": Producer(_explore_targets, _measure_explore),
}


def target_matches(target: str, problem: Optional[str] = None,
                   mechanism: Optional[str] = None) -> bool:
    """Whether a ``[problem/]mechanism`` target passes the ``--problem`` /
    ``--mechanism`` filters."""
    head, __, tail = target.rpartition("/")
    return ((problem is None or head == problem)
            and (mechanism is None or tail == mechanism))
