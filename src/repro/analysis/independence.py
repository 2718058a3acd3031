"""Constraint independence — the §4.2 ease-of-use criterion, computed.

Given the solution registry and the catalog's modification probes
(readers_priority → writers_priority, readers_priority → rw_fcfs), this
module produces:

* a :class:`ProbeResult` per (mechanism, probe): the modification report
  plus the independence verdict for the shared constraints;
* the per-mechanism summary the paper states in §5 (path expressions:
  violated; monitors: holds except the explicit-signal ordering and the
  T1×T2 queue conflict; serializers: holds);
* detection of the **conflicting-pair** case: realizations whose constructs
  include ``two_stage_queue`` mark the spot where two information types
  interfere and the standard §5.2 fix was needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core import (
    MODIFICATION_PROBES,
    PROBLEM_CATALOG,
    SolutionDescription,
    ascii_table,
)
from .diffing import ModificationReport, modification_report


@dataclass
class ProbeResult:
    """One modification probe under one mechanism."""

    mechanism: str
    probe: Tuple[str, str]
    report: Optional[ModificationReport]  # None when a side has no solution

    @property
    def independent(self) -> Optional[bool]:
        """Did the shared constraints survive the modification?  ``None``
        when the probe could not be run (missing solution)."""
        if self.report is None:
            return None
        return self.report.shared_constraints_stable


def _index_descriptions(
    descriptions: Iterable[SolutionDescription],
) -> Dict[Tuple[str, str], SolutionDescription]:
    return {(d.problem, d.mechanism): d for d in descriptions}


def run_probes(
    descriptions: Iterable[SolutionDescription],
) -> List[ProbeResult]:
    """Run every :data:`MODIFICATION_PROBES` probe for every mechanism that
    solves both endpoints."""
    index = _index_descriptions(descriptions)
    mechanisms = sorted({d.mechanism for d in index.values()})
    results: List[ProbeResult] = []
    for mechanism in mechanisms:
        for source_problem, target_problem in MODIFICATION_PROBES:
            source = index.get((source_problem, mechanism))
            target = index.get((target_problem, mechanism))
            if source is None or target is None:
                results.append(
                    ProbeResult(mechanism, (source_problem, target_problem), None)
                )
                continue
            shared = PROBLEM_CATALOG[source_problem].shared_constraints(
                PROBLEM_CATALOG[target_problem]
            )
            results.append(
                ProbeResult(
                    mechanism,
                    (source_problem, target_problem),
                    modification_report(source, target, shared),
                )
            )
    return results


def detect_info_conflicts(
    descriptions: Iterable[SolutionDescription],
) -> Dict[str, List[str]]:
    """Find where a two-stage-queue (or similar) resolution marks an
    information-type conflict (§5.2's monitor T1×T2 case).

    Returns mechanism → list of "problem/constraint" strings whose
    realization needed the conflict-resolving idiom.
    """
    conflicts: Dict[str, List[str]] = {}
    for description in descriptions:
        for realization in description.realizations:
            if "two_stage_queue" in realization.constructs:
                conflicts.setdefault(description.mechanism, []).append(
                    "{}/{}".format(description.problem, realization.constraint_id)
                )
    return conflicts


@dataclass
class IndependenceSummary:
    """Per-mechanism §4.2 verdict."""

    mechanism: str
    probes: List[ProbeResult] = field(default_factory=list)
    conflicts: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        judged = [p.independent for p in self.probes if p.independent is not None]
        if not judged:
            return "not probed"
        if all(judged):
            return "independent" + (
                " (with resolved info-type conflict)" if self.conflicts else ""
            )
        if any(judged):
            return "partially violated"
        return "VIOLATED"

    @property
    def mean_change_fraction(self) -> Optional[float]:
        fractions = [
            p.report.change_fraction for p in self.probes if p.report is not None
        ]
        if not fractions:
            return None
        return sum(fractions) / len(fractions)


def summarize_independence(
    descriptions: Iterable[SolutionDescription],
) -> Dict[str, IndependenceSummary]:
    """The full §4.2 analysis over a description set."""
    materialized = list(descriptions)
    results = run_probes(materialized)
    conflicts = detect_info_conflicts(materialized)
    summaries: Dict[str, IndependenceSummary] = {}
    for result in results:
        summary = summaries.setdefault(
            result.mechanism,
            IndependenceSummary(
                result.mechanism, conflicts=conflicts.get(result.mechanism, [])
            ),
        )
        summary.probes.append(result)
    return summaries


def render_independence(summaries: Mapping[str, IndependenceSummary]) -> str:
    """ASCII table: mechanism × probe → change fraction and stability."""
    headers = ["mechanism", "probe", "touched", "shared constraint", "verdict"]
    rows = []
    for mechanism in sorted(summaries):
        summary = summaries[mechanism]
        for probe in summary.probes:
            if probe.report is None:
                rows.append([
                    mechanism,
                    "{} -> {}".format(*probe.probe),
                    "-", "-", "no solution pair",
                ])
                continue
            report = probe.report
            shared_status = ", ".join(
                "{}:{}".format(
                    cid,
                    "stable" if cid in report.stable_shared else "REWRITTEN",
                )
                for cid in report.shared_constraints
            ) or "-"
            rows.append([
                mechanism,
                "{} -> {}".format(*probe.probe),
                "{}/{} ({:.0%})".format(
                    report.diff.touched, report.diff.total,
                    report.change_fraction,
                ),
                shared_status,
                "independent" if probe.independent else "VIOLATED",
            ])
        if summary.conflicts:
            rows.append([
                mechanism, "info-type conflict", "-",
                "; ".join(summary.conflicts), "resolved (two-stage queue)",
            ])
    return ascii_table(headers, rows, "Constraint independence (section 4.2)")
