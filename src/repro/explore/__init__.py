"""The exploration engine: pruned, parallel, minimizing schedule-space
search (DESIGN.md §9).

* :mod:`repro.explore.engine` — serial depth-first search with canonical
  state-fingerprint equivalence pruning (off by default: the naive
  first-deviation DFS).
* :mod:`repro.explore.parallel` — wave-synchronized multi-process frontier
  with worker-count-independent results.
* :mod:`repro.explore.minimize` — ddmin witness shrinking to local
  minimality, with an obs-layer replay timeline.
* :mod:`repro.explore.detectors` — pluggable lost-wakeup and
  conflicting-access (race) checkers.
* :mod:`repro.explore.targets` — named (problem, mechanism) workloads the
  CLI and worker processes resolve by string.
* :mod:`repro.explore.campaign` — the fault-campaign engine behind
  ``repro robustness|recover|partition|resilience``: fault cells explored
  and classified, fault-set search, and ddmin.

Entry point: ``python -m repro explore <problem> <mechanism>``.
"""

from .detectors import (
    WAKE_KINDS,
    ConflictingAccessChecker,
    LostWakeupChecker,
    SplitBrainChecker,
    compose_checkers,
)
from .engine import (
    ExplorationEngine,
    ExplorationResult,
    RecordingPolicy,
    RunRecord,
    expand_record,
)
from .minimize import MinimizedWitness, minimize_result, minimize_witness
from .parallel import explore_parallel
from .targets import ExplorationTarget, available_targets, get_target

__all__ = [
    "WAKE_KINDS",
    "ConflictingAccessChecker",
    "LostWakeupChecker",
    "SplitBrainChecker",
    "compose_checkers",
    "ExplorationEngine",
    "ExplorationResult",
    "RecordingPolicy",
    "RunRecord",
    "expand_record",
    "MinimizedWitness",
    "minimize_result",
    "minimize_witness",
    "explore_parallel",
    "ExplorationTarget",
    "available_targets",
    "get_target",
]
