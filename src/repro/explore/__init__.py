"""The exploration engine: pruned, minimizing schedule-space search
(DESIGN.md §9).

This package re-exports only its own layer, which sits on the checkers of
:mod:`repro.verify`:

* :mod:`repro.explore.engine` — the one schedule-space search: depth-first
  with canonical state-fingerprint equivalence pruning (off by default:
  the naive first-deviation DFS).

Four modules are imported by their full path:

* :mod:`repro.explore.ddmin` — the one minimizer, delta debugging over
  any sequence.
* :mod:`repro.explore.minimize` — ddmin witness shrinking to local
  minimality, replayed through :mod:`repro.obs` into a timeline and a
  causal chain; it sits on the observability modules, which a search
  does not load.
* :mod:`repro.explore.campaign` — the fault-campaign engine behind
  ``repro robustness|recover|partition|resilience``: fault cells explored
  and classified, fault-set search, and ddmin.
* :mod:`repro.explore.targets` — named (problem, mechanism) pairs over
  the problem packages' explore workloads, which the CLI, the regression
  gate and the benchmarks resolve by string; it sits above
  :mod:`repro.problems`.

Entry point: ``python -m repro explore <problem> <mechanism>``.
"""

from .engine import (
    ExplorationEngine,
    ExplorationResult,
    RecordingPolicy,
    RunRecord,
    expand_record,
)

__all__ = [
    "ExplorationEngine",
    "ExplorationResult",
    "RecordingPolicy",
    "RunRecord",
    "expand_record",
]
