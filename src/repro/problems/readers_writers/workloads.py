"""Workloads and verifiers for the readers/writers problem family.

A *plan* is a list of ``(kind, delay, work)`` steps — ``kind`` is ``"R"`` or
``"W"``, ``delay`` the virtual-time arrival offset, ``work`` the critical-
section length.  :func:`run_workload` spawns one process per step against a
fresh solution instance and returns the run result.

The family's trace battery, :data:`trace_battery`, is exclusion safety on
the ``db`` resource: the registry's ``rw_exclusion`` oracle, which
synthesis checks its repair candidates against too.  :func:`make_verifier`
runs it per solution:

* deterministic (FIFO policy) runs: the battery **and** the problem's
  priority/ordering oracle;
* randomized-policy runs (several seeds): the battery only — priority
  oracles need controlled request timing, as discussed in the oracle module
  docstring — plus resource-integrity errors surfacing as violations.

:func:`run_reader_writer` is the family's exhaustible explore workload.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from ...runtime.errors import ProcessFailed
from ...runtime.policies import RandomPolicy, SchedulingPolicy
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from ...verify import check_fcfs, check_no_overtake, oracle

Step = Tuple[str, int, int]
Factory = Callable[[Scheduler], object]

#: Everyone arrives at once: maximum contention.
BURST_PLAN: List[Step] = [
    ("R", 0, 2), ("W", 0, 2), ("R", 0, 1), ("R", 0, 3),
    ("W", 0, 1), ("R", 0, 2), ("W", 0, 2), ("R", 0, 1),
]

#: Writers lead, readers trail in: exercises the priority decision points.
PHASED_PLAN: List[Step] = [
    ("W", 0, 4), ("W", 1, 3), ("R", 2, 2), ("R", 2, 2),
    ("W", 3, 2), ("R", 4, 1), ("R", 5, 1), ("W", 6, 1),
]


def staggered_plan(seed: int) -> List[Step]:
    """A reproducible random ten-step plan with mixed arrivals and work
    lengths."""
    rng = random.Random(seed)
    plan: List[Step] = []
    for __ in range(10):
        kind = "R" if rng.random() < 0.6 else "W"
        plan.append((kind, rng.randrange(0, 6), rng.randrange(1, 4)))
    return plan


def run_workload(
    factory: Factory,
    plan: Sequence[Step],
    policy: Optional[SchedulingPolicy] = None,
    sched: Optional[Scheduler] = None,
) -> RunResult:
    """Run one plan against a fresh solution; deadlocks are returned, not
    raised, so verifiers can report them as violations.  ``sched`` injects
    a pre-built (e.g. instrumented) scheduler; ``policy`` is ignored then."""
    if sched is None:
        sched = Scheduler(policy=policy)
    impl = factory(sched)
    for index, (kind, delay, work) in enumerate(plan):
        name = "{}{}".format(kind, index)
        sched.spawn(_delayed(sched, delay, impl, kind, index, work), name=name)
    return sched.run(on_deadlock="return")


def _delayed(sched: Scheduler, delay: int, impl, kind: str, index: int, work: int):
    def body():
        yield from sched.sleep(delay)
        if kind == "R":
            yield from impl.read(work=work)
        else:
            yield from impl.write(100 + index, work=work)
    return body


#: The family's trace properties: writers exclusive, readers shared, on db.
trace_battery = oracle("rw_exclusion")


def _exclusion_violations(result: RunResult) -> List[str]:
    violations = trace_battery(result)
    if result.deadlocked:
        violations.append("deadlock: blocked={}".format(result.blocked))
    return violations


def run_reader_writer(factory: Factory, sched: Scheduler) -> RunResult:
    """Explore workload: one reader ``R`` and one writer ``W``."""
    impl = factory(sched)

    def reader():
        yield from impl.read(work=1)

    def writer():
        yield from impl.write(1, work=1)

    sched.spawn(reader, name="R")
    sched.spawn(writer, name="W")
    return sched.run(on_deadlock="return", on_error="record")


def make_verifier(
    factory: Factory,
    problem: str,
) -> Callable[[], List[str]]:
    """Build the standard oracle battery for one readers/writers solution.

    ``problem`` selects the ordering oracle: ``readers_priority``,
    ``writers_priority``, or ``rw_fcfs``.
    """

    def priority_violations(result: RunResult) -> List[str]:
        if problem == "readers_priority":
            return check_no_overtake(result.trace, "db", "read", "write")
        if problem == "writers_priority":
            return check_no_overtake(result.trace, "db", "write", "read")
        if problem == "rw_fcfs":
            return check_fcfs(result.trace, "db", ["read", "write"])
        return []

    def verify() -> List[str]:
        violations: List[str] = []
        plans = [
            ("burst", BURST_PLAN),
            ("phased", PHASED_PLAN),
            ("staggered7", staggered_plan(7)),
            ("staggered23", staggered_plan(23)),
        ]
        for label, plan in plans:
            try:
                result = run_workload(factory, plan)
            except ProcessFailed as failure:
                violations.append("{}: {}".format(label, failure))
                continue
            for message in _exclusion_violations(result):
                violations.append("{}: {}".format(label, message))
            for message in priority_violations(result):
                violations.append("{}: {}".format(label, message))
        for seed in (0, 1, 2, 3):
            try:
                result = run_workload(
                    factory, BURST_PLAN, policy=RandomPolicy(seed)
                )
            except ProcessFailed as failure:
                violations.append("random{}: {}".format(seed, failure))
                continue
            for message in _exclusion_violations(result):
                violations.append("random{}: {}".format(seed, message))
        return violations

    return verify
