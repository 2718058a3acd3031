"""Fault-plan search: find and minimize crash sets that defeat recovery.

The chaos layer (:mod:`repro.verify.chaos`) explores schedules around *one*
injected kill.  This module searches the other axis: *which set of kills* —
up to ``max_kills`` of them, aimed at workers **and** the supervisor itself
— drives a supervised system into a wedge or an exclusion violation that
recovery cannot repair.  It is the kill-set configuration of the shared
fault-set search (:func:`repro.explore.campaign.search_fault_sets`), whose
ddmin then yields the minimal crash set that defeats recovery — e.g.
``{kill sup, kill P0 inside the region}``: neither kill alone wedges a
supervised semaphore, both together do.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..explore.campaign import FaultSetSearch, KillSpec, search_fault_sets
# Campaign modules expose the engine class by this name; instrumented
# runs rebind it per module.
from ..explore.engine import ExplorationEngine  # noqa: F401
from ..runtime.faults import FaultPlan
from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult

#: Same shape as the chaos builders: (policy, fault plan) -> RunResult.
Builder = Callable[[ScriptedPolicy, Optional[FaultPlan]], RunResult]


def search_fault_plans(
    build: Builder,
    classify: Callable[[RunResult], str],
    victims: Sequence[str],
    bad_labels: Sequence[str] = ("wedged", "violated"),
    max_kills: int = 2,
    budget: int = 200,
) -> FaultSetSearch:
    """Search kill sets over ``victims``' fault points; minimize the first
    one that defeats recovery.

    Fault points come from a fault-free baseline run (one per step each
    victim takes, as in :func:`repro.verify.chaos.enumerate_fault_points`).
    Candidate plans combine 1..``max_kills`` points aimed at *distinct*
    processes — re-killing a restarted incarnation only pays off past the
    restart budget, which needs more kills than that — singletons first,
    up to ``budget`` plans, each run once under the FIFO schedule.
    """
    baseline = build(ScriptedPolicy([]), None)
    points: List[KillSpec] = []
    for victim in victims:
        steps = baseline.proc_steps.get(victim, 0)
        points.extend(KillSpec(victim, s) for s in range(steps))
    return search_fault_sets(
        lambda policy, netplan, plan: build(policy, plan), classify, points,
        bad_labels, max_faults=max_kills, budget=budget,
        victim_of=lambda kill: kill.process)
