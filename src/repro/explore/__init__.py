"""The exploration engine: pruned, minimizing schedule-space search
(DESIGN.md §9).

This package re-exports only its own layer, which sits on the checkers of
:mod:`repro.verify`:

* :mod:`repro.explore.engine` — the one schedule-space search: depth-first
  with canonical state-fingerprint equivalence pruning (off by default:
  the naive first-deviation DFS).
* :mod:`repro.explore.minimize` — ddmin witness shrinking to local
  minimality, with an obs-layer replay timeline.

Two modules sit higher and are imported by their full path:

* :mod:`repro.explore.campaign` — the fault-campaign engine behind
  ``repro robustness|recover|partition|resilience``: fault cells explored
  and classified, fault-set search, and ddmin.
* :mod:`repro.explore.targets` — named (problem, mechanism) workloads the
  CLI, the regression gate and the benchmarks resolve by string; it sits
  above :mod:`repro.problems`.

Entry point: ``python -m repro explore <problem> <mechanism>``.
"""

from .engine import (
    ExplorationEngine,
    ExplorationResult,
    RecordingPolicy,
    RunRecord,
    expand_record,
)
from .minimize import MinimizedWitness, minimize_witness

__all__ = [
    "ExplorationEngine",
    "ExplorationResult",
    "RecordingPolicy",
    "RunRecord",
    "expand_record",
    "MinimizedWitness",
    "minimize_witness",
]
