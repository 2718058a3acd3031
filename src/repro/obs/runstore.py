"""Run store: schema-versioned gate records + the regression gate.

Kode & Oyemade (arXiv:2409.11271) argue mechanism comparisons only become
trustworthy when tracked across runs; until now every ``repro profile`` /
``metrics`` invocation was ephemeral.  This module makes measured runs
durable and diffable:

* :class:`GateRecord` — one measured run: ``{schema, kind, target, seed,
  metrics, directions}``.  ``metrics`` is one flat ``{name: number}``
  map; ``directions`` names the gated subset.  The producers that fill it
  (causal profiles, load tails, explore searches) live in
  :mod:`repro.suite`; nothing here looks at a record's kind.
* :class:`RunStore` — persists records as canonical JSON under
  ``.repro/runs/`` (one file per ``(kind, target, seed)``), written with
  sorted keys and a trailing newline so baselines diff cleanly.
* :func:`compare_records` / :class:`Regression` — the gate: diffs a fresh
  record against a stored baseline and flags gated metrics that moved
  past a relative threshold.  ``repro regress`` wires this into the CLI
  and CI.

Schema discipline: every record carries ``schema``, and a record of any
other schema raises on load.  There is no field-by-field upgrade path: an
older baseline is re-measured with ``repro regress --write-baseline``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

#: Store layout / record schema version.
RUNSTORE_SCHEMA = 2

#: Default location, relative to the working directory.
DEFAULT_ROOT = os.path.join(".repro", "runs")

Number = Union[int, float]


@dataclass
class GateRecord:
    """One measured run, as the run store persists and the gate diffs it.

    ``directions`` maps each gated metric to ``+`` (an *increase* is a
    regression: costs such as makespan or blocked ticks) or ``-`` (a
    *decrease* is: rates such as exploration throughput).  Metrics not
    named there are persisted for diffing but never gated.
    """

    kind: str
    target: str
    seed: Optional[int] = None
    metrics: Dict[str, Number] = field(default_factory=dict)
    directions: Dict[str, str] = field(default_factory=dict)
    schema: int = RUNSTORE_SCHEMA

    @property
    def key(self) -> str:
        return "{}:{}{}".format(
            self.kind, self.target,
            "@seed{}".format(self.seed) if self.seed is not None else "")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "target": self.target,
            "seed": self.seed,
            "metrics": dict(sorted(self.metrics.items())),
            "directions": dict(sorted(self.directions.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GateRecord":
        schema = int(data.get("schema", 1))
        if schema != RUNSTORE_SCHEMA:
            raise ValueError(
                "run record schema {} is {} than supported {}; re-record the "
                "baseline with `repro regress --write-baseline`".format(
                    schema, "newer" if schema > RUNSTORE_SCHEMA else "older",
                    RUNSTORE_SCHEMA))
        return cls(kind=data["kind"], target=data["target"],
                   seed=data.get("seed"), metrics=dict(data["metrics"]),
                   directions=dict(data["directions"]), schema=schema)


def canonical_json(payload: Any) -> str:
    """The store's one serialization: sorted keys, two-space indent,
    trailing newline — byte-stable across runs and Python versions."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      ensure_ascii=True, default=str) + "\n"


_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def record_filename(kind: str, target: str, seed: Optional[int]) -> str:
    """``kind__<target parts>__seedN.json``: only ``[A-Za-z0-9_.-]``, so
    the name is valid on every filesystem and in CI artifact paths."""
    parts = [kind] + target.split("/") + [
        "seed{}".format(seed) if seed is not None else "fifo"]
    return "__".join(_UNSAFE.sub("-", part) for part in parts) + ".json"


class RunStore:
    """Filesystem store of :class:`GateRecord` JSON under ``root``."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root

    def save(self, record: GateRecord) -> str:
        """Write (or overwrite) the record; returns its path."""
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, record_filename(
            record.kind, record.target, record.seed))
        with open(path, "w") as fh:
            fh.write(canonical_json(record.to_dict()))
        return path

    def load_all(self) -> List[GateRecord]:
        """Every record in the store, sorted by key."""
        if not os.path.isdir(self.root):
            return []
        records = [load_record(os.path.join(self.root, name))
                   for name in sorted(os.listdir(self.root))
                   if name.endswith(".json")]
        return sorted(records, key=lambda r: r.key)


def load_record(path: str) -> GateRecord:
    with open(path) as fh:
        return GateRecord.from_dict(json.load(fh))


def load_baseline(ref: str) -> List[GateRecord]:
    """Resolve a ``--baseline`` reference: a record file, a file holding a
    JSON *list* of records, or a directory of record files."""
    if os.path.isdir(ref):
        return RunStore(ref).load_all()
    with open(ref) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return [GateRecord.from_dict(item) for item in data]
    return [GateRecord.from_dict(data)]


def dump_baseline(records: List[GateRecord]) -> str:
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
    baseline: Number
    current: Number

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
    baseline: GateRecord,
    current: GateRecord,
    threshold_pct: float = 10.0,
) -> List[Regression]:
    """Regressions of ``current`` against ``baseline`` (same key).

    Each metric the baseline gates regresses when it moved in its bad
    direction (``+`` metrics grew, ``-`` metrics shrank) by more than
    ``threshold_pct`` percent and by at least 2 units absolute, so
    single-tick jitter on tiny workloads never trips the gate.  A gated
    metric the current record lacks is not comparable and is skipped.
    """
    regressions = []
    for metric, direction in sorted(baseline.directions.items()):
        if metric not in baseline.metrics or metric not in current.metrics:
            continue
        base = baseline.metrics[metric]
        cur = current.metrics[metric]
        # Signed move in the regression direction: positive = got worse.
        worse = (cur - base) if direction == "+" else (base - cur)
        if worse <= 0:
            continue
        grew_pct = (100.0 * worse / base) if base else float("inf")
        if grew_pct > threshold_pct and worse >= 2:
            regressions.append(Regression(baseline.key, metric, base, cur))
    return regressions


def render_comparison(
    pairs: List[Tuple[GateRecord, GateRecord]],
    regressions: List[Regression],
) -> str:
    """One row per compared run: each gated metric as ``current (base)``."""
    lines = ["%-40s %s" % ("run", "gated metric: current (baseline)")]
    for base, cur in pairs:
        cells = ["%s %s (%s)" % (metric, cur.metrics.get(metric, "-"),
                                 base.metrics.get(metric, "-"))
                 for metric in sorted(base.directions)]
        lines.append("%-40s %s" % (cur.key[:40], "  ".join(cells)))
    lines.append("")
    if regressions:
        lines.append("REGRESSIONS:")
        for item in regressions:
            lines.append("  " + item.describe())
    else:
        lines.append("no regressions against baseline")
    return "\n".join(lines)
