"""The solution registry: every (problem × mechanism) implementation, its
machine-readable description, and its oracle battery — the input to the
evaluation engine and the benchmarks.

Each problem package declares its own cells as ``CATALOG`` (see
:func:`repro.problems.base.catalog_cells`); this module only collects them.
``build_evaluator()`` assembles the complete §5-style evaluation in one
call::

    from repro.problems.registry import build_evaluator
    report = build_evaluator().evaluate()
    print(report.render())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import Evaluator
from . import alarm_clock, bounded_buffer, disk_scheduler, fcfs_resource
from . import one_slot_buffer, readers_writers, staged_queue
from .base import RegisteredSolution
from .infeasibility import INFEASIBILITY_RECORDS

#: The packages that declare catalog cells; the eventcount solutions are
#: listed by the packages of the problems they solve.
PACKAGES = (readers_writers, bounded_buffer, one_slot_buffer, fcfs_resource,
            disk_scheduler, alarm_clock, staged_queue)

#: Every registered solution, keyed by (problem, mechanism).
REGISTRY: Dict[Tuple[str, str], RegisteredSolution] = {
    entry.key: entry for package in PACKAGES for entry in package.CATALOG}


def all_solutions() -> List[RegisteredSolution]:
    """Every entry, ordered by problem then mechanism."""
    return sorted(REGISTRY.values(), key=lambda e: e.key)


def get_solution(problem: str, mechanism: str) -> RegisteredSolution:
    """Look up one entry (raises ``KeyError``)."""
    return REGISTRY[(problem, mechanism)]


def solutions_for(problem: Optional[str] = None,
                  mechanism: Optional[str] = None) -> List[RegisteredSolution]:
    """Filter the registry by problem and/or mechanism."""
    return [
        entry for entry in all_solutions()
        if (problem is None or entry.problem == problem)
        and (mechanism is None or entry.mechanism == mechanism)
    ]


def build_evaluator() -> Evaluator:
    """An :class:`Evaluator` pre-loaded with the entire registry.

    It also loads the negative results of
    :mod:`repro.problems.infeasibility`, so the paper's "no way to express"
    findings surface as NONE cells in the expressive-power matrix.
    """
    evaluator = Evaluator()
    for entry in all_solutions():
        evaluator.add(entry.description, entry.verifier)
    for record in INFEASIBILITY_RECORDS:
        evaluator.add(record, verifier=None)
    return evaluator
