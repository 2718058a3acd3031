"""Canonical exploration targets: every (explore workload, mechanism) pair,
addressable by name.

The engine itself takes arbitrary ``build_and_run`` closures; the *targets*
exist so that exploration can be requested by name — from the command line
(``python -m repro explore bounded_buffer monitor``), the ``repro regress
--explore`` gate and the benchmarks.  A target is identified by two
strings and supplies both the runner and the checker.

This module is a view over the solution registry: each problem package
declares its exhaustible explore workloads next to its catalog cells
(:class:`~repro.problems.base.ExploreWorkload`), judged by the oracle
battery the package's verifier runs too (``footnote3`` by the strict
readers-priority oracle alone).  A workload's mechanisms are those
registered for its catalog problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..problems.registry import EXPLORE, get_solution, solutions_for
from ..runtime.faults import FaultPlan
from ..runtime.policies import SchedulingPolicy
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from ..verify.detectors import Checker


@dataclass(frozen=True)
class ExplorationTarget:
    """One (problem, mechanism) pair ready to explore.  Identified by two
    strings, so it crosses process boundaries as data."""

    problem: str
    mechanism: str

    def build_and_run(
        self,
        policy: SchedulingPolicy,
        fault_plan: Optional[FaultPlan] = None,
        sink=None,
    ) -> RunResult:
        """One fresh run of the target's workload under ``policy``."""
        workload = EXPLORE[self.problem]
        factory = get_solution(workload.problem, self.mechanism).factory
        sched = Scheduler(policy=policy, fault_plan=fault_plan, sink=sink)
        return workload.run(factory, sched)

    def runner(self) -> Callable[[SchedulingPolicy], RunResult]:
        """``build_and_run`` curried for the engine's signature."""
        return lambda policy: self.build_and_run(policy)

    @property
    def checker(self) -> Checker:
        """The workload's oracle battery, declared in its problem package."""
        return EXPLORE[self.problem].check


def get_target(problem: str, mechanism: str) -> ExplorationTarget:
    """Resolve a target, validating both coordinates.

    Raises:
        KeyError: unknown problem, or mechanism not registered for it.
    """
    if problem not in EXPLORE:
        raise KeyError(
            "unknown exploration problem {!r}; choose from {}".format(
                problem, ", ".join(sorted(EXPLORE))
            )
        )
    known = [e.mechanism for e in solutions_for(EXPLORE[problem].problem)]
    if mechanism not in known:
        raise KeyError(
            "no {} solution for {!r}; registered mechanisms: {}".format(
                mechanism, problem, ", ".join(sorted(known))
            )
        )
    return ExplorationTarget(problem, mechanism)


def available_targets() -> List[Tuple[str, str]]:
    """Every (problem, mechanism) pair that :func:`get_target` accepts."""
    return [(name, entry.mechanism) for name in sorted(EXPLORE)
            for entry in solutions_for(EXPLORE[name].problem)]
