"""Run store: schema-versioned causal-profile records + regression gate.

Kode & Oyemade (arXiv:2409.11271) argue mechanism comparisons only become
trustworthy when tracked across runs; until now every ``repro profile`` /
``metrics`` invocation was ephemeral.  This module makes profiled runs
durable and diffable:

* :class:`RunRecord` — one profiled run's causal fingerprint: makespan,
  critical-path composition, constraint/information-type attribution,
  headline counters.  Everything is virtual-time/seq-axis data, so records
  are **bit-stable across machines and Python versions** — a record
  written on one host is a valid baseline on another.
* :class:`RunStore` — persists records as canonical JSON under
  ``.repro/runs/`` (one file per ``(problem, mechanism, seed)``), written
  with sorted keys and a trailing newline so baselines diff cleanly.
* :func:`compare_records` / :class:`Regression` — the gate: diffs a fresh
  record against a stored baseline and flags metrics that moved past a
  relative threshold.  ``repro regress`` wires this into the CLI and CI.

Schema discipline: every record carries ``schema``; loading a record with
a newer major schema than this code understands raises, loading an older
one is tolerated field-by-field (missing keys compare as absent, never as
zero).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .critical_path import CriticalPathReport

#: Store layout / record schema version.
RUNSTORE_SCHEMA = 1

#: Default location, relative to the working directory.
DEFAULT_ROOT = os.path.join(".repro", "runs")

#: Metrics the gate watches: record key -> direction.  Direction ``+``
#: means an *increase* is a regression (costs: makespan, blocked ticks);
#: ``-`` means a *decrease* is (rates: exploration throughput).
GATED_METRICS: Dict[str, str] = {
    "makespan": "+",
    "path_blocked_ticks": "+",
    "steps": "+",
    "context_switches": "+",
    # Latency-tail metrics from `repro load` saturation sweeps (seq-axis
    # percentiles at the sweep's largest population).  Optional: profile
    # records leave them None and the gate skips them.
    "latency_p95": "+",
    "latency_p99": "+",
    # Exploration throughput from `repro regress --explore` (harness
    # telemetry).  Wall-clock and therefore machine-dependent — gate it
    # with a generous threshold; the deterministic companion is ``steps``
    # (= schedules executed, any growth means pruning regressed).
    "schedules_per_sec": "-",
}


@dataclass
class RunRecord:
    """One profiled run's durable causal fingerprint."""

    problem: str
    mechanism: str
    seed: Optional[int] = None
    schema: int = RUNSTORE_SCHEMA
    makespan: int = 0
    path_ticks: int = 0
    path_blocked_ticks: int = 0
    slack: int = 0
    steps: int = 0
    events: int = 0
    context_switches: int = 0
    handoffs: int = 0
    segments: int = 0
    constraint_ticks: Dict[str, int] = field(default_factory=dict)
    info_type_ticks: Dict[str, int] = field(default_factory=dict)
    blocked_by_object: Dict[str, int] = field(default_factory=dict)
    speedups: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Seq-axis latency tail (load sweeps only; None on profile records,
    #: and the gate skips a metric either side lacks).
    latency_p95: Optional[int] = None
    latency_p99: Optional[int] = None
    #: Harness-telemetry fields (`explore:` records only).  The throughput
    #: is gated (direction ``-``); the phase breakdown is persisted for
    #: diffing but never gated (wall-clock noise per phase is too high).
    schedules_per_sec: Optional[int] = None
    phase_seconds: Optional[Dict[str, float]] = None

    @property
    def key(self) -> str:
        return "{}/{}{}".format(
            self.problem, self.mechanism,
            "@seed{}".format(self.seed) if self.seed is not None else "")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": self.schema,
            "problem": self.problem,
            "mechanism": self.mechanism,
            "seed": self.seed,
            "makespan": self.makespan,
            "path_ticks": self.path_ticks,
            "path_blocked_ticks": self.path_blocked_ticks,
            "slack": self.slack,
            "steps": self.steps,
            "events": self.events,
            "context_switches": self.context_switches,
            "handoffs": self.handoffs,
            "segments": self.segments,
            "constraint_ticks": dict(sorted(self.constraint_ticks.items())),
            "info_type_ticks": dict(sorted(self.info_type_ticks.items())),
            "blocked_by_object": dict(
                sorted(self.blocked_by_object.items())),
            "speedups": {k: dict(v) for k, v in
                         sorted(self.speedups.items())},
        }
        if self.latency_p95 is not None:
            data["latency_p95"] = self.latency_p95
        if self.latency_p99 is not None:
            data["latency_p99"] = self.latency_p99
        if self.schedules_per_sec is not None:
            data["schedules_per_sec"] = self.schedules_per_sec
        if self.phase_seconds is not None:
            data["phase_seconds"] = {
                k: round(float(v), 6)
                for k, v in sorted(self.phase_seconds.items())}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        schema = int(data.get("schema", 1))
        if schema > RUNSTORE_SCHEMA:
            raise ValueError(
                "run record schema {} is newer than supported {}".format(
                    schema, RUNSTORE_SCHEMA))
        record = cls(problem=data["problem"], mechanism=data["mechanism"],
                     seed=data.get("seed"), schema=schema)
        for attr in ("makespan", "path_ticks", "path_blocked_ticks", "slack",
                     "steps", "events", "context_switches", "handoffs",
                     "segments"):
            setattr(record, attr, int(data.get(attr, 0)))
        record.constraint_ticks = dict(data.get("constraint_ticks", {}))
        record.info_type_ticks = dict(data.get("info_type_ticks", {}))
        record.blocked_by_object = dict(data.get("blocked_by_object", {}))
        record.speedups = {k: dict(v)
                           for k, v in data.get("speedups", {}).items()}
        for attr in ("latency_p95", "latency_p99", "schedules_per_sec"):
            if data.get(attr) is not None:
                setattr(record, attr, int(data[attr]))
        if data.get("phase_seconds") is not None:
            record.phase_seconds = {k: float(v) for k, v in
                                    data["phase_seconds"].items()}
        return record

    # ------------------------------------------------------------------
    @classmethod
    def from_report(cls, problem: str, mechanism: str,
                    path: CriticalPathReport, metrics=None,
                    seed: Optional[int] = None) -> "RunRecord":
        """Build a record from a critical-path report (plus, optionally,
        the run's :class:`~repro.obs.metrics.RunMetrics`)."""
        record = cls(problem=problem, mechanism=mechanism, seed=seed)
        record.makespan = path.makespan
        record.path_ticks = path.path_ticks
        record.slack = path.slack
        record.segments = len(path.segments)
        record.constraint_ticks = path.constraint_ticks()
        record.info_type_ticks = path.info_type_ticks()
        record.blocked_by_object = path.blocked_ticks_by_object()
        record.path_blocked_ticks = sum(
            seg.duration for seg in path.segments
            if seg.kind in ("blocked", "timer"))
        record.speedups = path.virtual_speedups()
        if metrics is not None:
            record.steps = metrics.steps
            record.events = metrics.events
            record.context_switches = metrics.context_switches
            record.handoffs = metrics.handoffs
        return record


def load_tail_record(mechanism: str, points: List[Any],
                     seed: Optional[int] = None) -> RunRecord:
    """A gateable record from a ``saturation_curve`` sweep.

    Takes the sweep's **largest population** point — the saturation end of
    the curve, where queueing dominates and tail blowups surface first —
    and records its seq-axis p95/p99 latency alongside the usual virtual-
    time counters.  All inputs are virtual-time data, so the record is as
    machine-stable as any profile record, and ``repro regress --load``
    can fail CI on a tail-latency regression.

    ``points`` are :class:`repro.load.LoadPoint` objects (duck-typed here
    to keep obs free of a load-package import).
    """
    if not points:
        raise ValueError("load_tail_record needs at least one sweep point")
    tail = max(points, key=lambda p: p.clients)
    record = RunRecord(problem="load_tail", mechanism=mechanism, seed=seed)
    record.makespan = int(tail.duration_ticks)
    record.steps = int(tail.steps)
    record.events = int(tail.events)
    record.latency_p95 = int(round(tail.latency["p95"]))
    record.latency_p99 = int(round(tail.latency["p99"]))
    return record


def canonical_json(payload: Any) -> str:
    """The store's one serialization: sorted keys, two-space indent,
    trailing newline — byte-stable across runs and Python versions."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      ensure_ascii=True, default=str) + "\n"


class RunStore:
    """Filesystem store of :class:`RunRecord` JSON under ``root``."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root

    # ------------------------------------------------------------------
    def _path(self, record: RunRecord) -> str:
        seed = "seed{}".format(record.seed) if record.seed is not None \
            else "fifo"
        name = "{}__{}__{}.json".format(record.problem, record.mechanism,
                                        seed)
        return os.path.join(self.root, name)

    def save(self, record: RunRecord) -> str:
        """Write (or overwrite) the record; returns its path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(record)
        with open(path, "w") as fh:
            fh.write(canonical_json(record.to_dict()))
        return path

    def load_all(self) -> List[RunRecord]:
        """Every record in the store, sorted by key."""
        if not os.path.isdir(self.root):
            return []
        records = []
        for name in sorted(os.listdir(self.root)):
            if name.endswith(".json"):
                records.append(load_record(os.path.join(self.root, name)))
        return sorted(records, key=lambda r: r.key)

    def load(self, problem: str, mechanism: str,
             seed: Optional[int] = None) -> Optional[RunRecord]:
        probe = RunRecord(problem=problem, mechanism=mechanism, seed=seed)
        path = self._path(probe)
        return load_record(path) if os.path.exists(path) else None


def load_record(path: str) -> RunRecord:
    with open(path) as fh:
        return RunRecord.from_dict(json.load(fh))


def load_baseline(ref: str) -> List[RunRecord]:
    """Resolve a ``--baseline`` reference: a record file, a file holding a
    JSON *list* of records, or a directory of record files."""
    if os.path.isdir(ref):
        return RunStore(ref).load_all()
    with open(ref) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return [RunRecord.from_dict(item) for item in data]
    return [RunRecord.from_dict(data)]


def dump_baseline(records: List[RunRecord]) -> str:
    """One canonical-JSON file holding every record (committed baselines)."""
    return canonical_json(
        [r.to_dict() for r in sorted(records, key=lambda r: r.key)])


#: Where the removed fingerprint cache once kept prune keys.  Nothing
#: writes here: prune keys are never persisted (DESIGN.md §14).  The name
#: stays importable because ``verdictbench/workloads.py`` asserts the
#: directory is absent for its cold-cache check.
FP_CACHE_ROOT = os.path.join(DEFAULT_ROOT, "fingerprints")


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One gated metric that moved past the threshold."""

    key: str
    metric: str
    baseline: int
    current: int

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 0.0
        return 100.0 * (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        return "{}: {} {} -> {} ({:+.1f}%)".format(
            self.key, self.metric, self.baseline, self.current,
            self.delta_pct)


def compare_records(
    baseline: RunRecord,
    current: RunRecord,
    threshold_pct: float = 10.0,
) -> List[Regression]:
    """Regressions of ``current`` against ``baseline`` (same key).

    A gated metric regresses when it moved in its bad direction (``+``
    metrics grew, ``-`` metrics shrank — see :data:`GATED_METRICS`) by
    more than ``threshold_pct`` percent and by at least 2 units absolute,
    so single-tick jitter on tiny workloads never trips the gate.
    """
    regressions = []
    for metric in sorted(GATED_METRICS):
        base_raw = getattr(baseline, metric, None)
        cur_raw = getattr(current, metric, None)
        if base_raw is None or cur_raw is None:
            # Optional metric absent on either side (e.g. latency tails on
            # profile records, or an older baseline): not comparable.
            continue
        base = int(base_raw)
        cur = int(cur_raw)
        # Signed move in the regression direction: positive = got worse.
        worse = (cur - base) if GATED_METRICS[metric] == "+" else (base - cur)
        if worse <= 0:
            continue
        grew_pct = (100.0 * worse / base) if base else float("inf")
        if grew_pct > threshold_pct and worse >= 2:
            regressions.append(Regression(baseline.key, metric, base, cur))
    return regressions


def render_comparison(
    pairs: List[Tuple[RunRecord, RunRecord]],
    regressions: List[Regression],
) -> str:
    """Side-by-side table of baseline vs current gated metrics."""
    lines = ["%-34s %10s %10s %10s %10s"
             % ("run", "makespan", "(base)", "blocked", "(base)")]
    for base, cur in pairs:
        row = "%-34s %10d %10d %10d %10d" % (
            cur.key[:34], cur.makespan, base.makespan,
            cur.path_blocked_ticks, base.path_blocked_ticks)
        if cur.latency_p95 is not None and base.latency_p95 is not None:
            row += "   p95 %d (%d)  p99 %d (%d)" % (
                cur.latency_p95, base.latency_p95,
                cur.latency_p99 or 0, base.latency_p99 or 0)
        if (cur.schedules_per_sec is not None
                and base.schedules_per_sec is not None):
            row += "   runs %d (%d)  sched/s %d (%d)" % (
                cur.steps, base.steps,
                cur.schedules_per_sec, base.schedules_per_sec)
        lines.append(row)
    if regressions:
        lines.append("")
        lines.append("REGRESSIONS:")
        for item in regressions:
            lines.append("  " + item.describe())
    else:
        lines.append("")
        lines.append("no regressions against baseline")
    return "\n".join(lines)
