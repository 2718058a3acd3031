"""Canonical exploration targets: small, exhaustible workloads for every
(problem, mechanism) pair, addressable by name.

The engine itself takes arbitrary ``build_and_run`` closures; the *targets*
exist so that exploration can be requested by name — from the command line
(``python -m repro explore bounded_buffer monitor``), the ``repro regress
--explore`` gate and the benchmarks.  A target is identified by two
strings and supplies both the runner and the checker.

Each target couples a deliberately small workload (2–3 processes, 1–2
operations each, so the schedule space is exhaustible within CLI budgets)
with a named oracle from :mod:`repro.verify.registry` — the same oracles
the synthesis engine (:mod:`repro.synth`) verifies candidates against, so
exploration and synthesis cannot drift apart on what "correct" means.  All
runs use ``on_deadlock="return"`` / ``on_error="record"`` so pathological
schedules are *reported* by checkers rather than aborting the search.

The ``footnote3`` target is the paper's E5 anomaly as a search problem:
the Figure-1 path-expression arrival pattern checked against the strict
Courtois–Heymans–Parnas oracle — the engine rediscovers the anomaly, and
the minimizer (:mod:`repro.explore.minimize`) shrinks its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime.faults import FaultPlan
from ..runtime.policies import SchedulingPolicy
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from ..verify.registry import oracle

Checker = Callable[[RunResult], List[str]]


def _factory(problem: str, mechanism: str):
    from ..problems.registry import get_solution

    return get_solution(problem, mechanism).factory


# ----------------------------------------------------------------------
# Workloads (sched, mechanism) -> RunResult, resolved by problem name.  The
# matching oracles live in repro.verify.registry under the names listed in
# _SPECS below.
# ----------------------------------------------------------------------
def _run_readers_priority(sched: Scheduler, mechanism: str) -> RunResult:
    impl = _factory("readers_priority", mechanism)(sched)

    def reader():
        yield from impl.read(work=1)

    def writer():
        yield from impl.write(1, work=1)

    sched.spawn(reader, name="R")
    sched.spawn(writer, name="W")
    return sched.run(on_deadlock="return", on_error="record")


def _run_footnote3(sched: Scheduler, mechanism: str) -> RunResult:
    impl = _factory("readers_priority", mechanism)(sched)

    def first_writer():
        yield from impl.write(1, work=6)

    def second_writer():
        yield
        yield from impl.write(2, work=1)

    def reader():
        yield
        yield
        yield from impl.read(work=1)

    sched.spawn(first_writer, name="W1")
    sched.spawn(second_writer, name="W2")
    sched.spawn(reader, name="R1")
    return sched.run(on_deadlock="return", on_error="record")


def _run_bounded_buffer(sched: Scheduler, mechanism: str) -> RunResult:
    impl = _factory("bounded_buffer", mechanism)(sched)
    consumed: List[int] = []
    sched.add_fingerprint_provider(lambda: consumed)

    def producer(value):
        def body():
            yield from impl.put(value)
        return body

    def consumer():
        for __ in range(2):
            item = yield from impl.get()
            consumed.append(item)

    sched.spawn(producer(0), name="P0")
    sched.spawn(producer(1), name="P1")
    sched.spawn(consumer, name="C")
    result = sched.run(on_deadlock="return", on_error="record")
    result.results["consumed"] = list(consumed)
    return result


def _run_one_slot_buffer(sched: Scheduler, mechanism: str) -> RunResult:
    impl = _factory("one_slot_buffer", mechanism)(sched)
    consumed: List[int] = []
    sched.add_fingerprint_provider(lambda: consumed)

    def producer(value):
        def body():
            yield from impl.put(value)
        return body

    def consumer():
        for __ in range(2):
            item = yield from impl.get()
            consumed.append(item)

    # Two independent producers: their pre-put steps commute, which gives
    # the equivalence pruning real work even on this tiny problem.
    sched.spawn(producer(0), name="P0")
    sched.spawn(producer(1), name="P1")
    sched.spawn(consumer, name="Cons")
    result = sched.run(on_deadlock="return", on_error="record")
    result.results["consumed"] = list(consumed)
    return result


def _run_fcfs_resource(sched: Scheduler, mechanism: str) -> RunResult:
    impl = _factory("fcfs_resource", mechanism)(sched)

    def contender():
        yield from impl.use(work=2)

    for i in range(3):
        sched.spawn(contender, name="U{}".format(i))
    return sched.run(on_deadlock="return", on_error="record")


def _run_alarm_clock(sched: Scheduler, mechanism: str) -> RunResult:
    # Inlined (rather than problems.alarm_clock.run_sleepers) so the wake
    # list can be registered as a fingerprint provider *before* the run.
    impl = _factory("alarm_clock", mechanism)(sched)
    delays = (2, 2, 1)
    wakes: List[int] = []
    sched.add_fingerprint_provider(lambda: wakes)
    horizon = max(delays) + 1

    def sleeper(n):
        def body():
            yield from impl.wakeme(n)
            wakes.append(n)
        return body

    def ticker():
        for __ in range(horizon):
            yield from sched.sleep(1)
            yield from impl.tick()

    for index, n in enumerate(delays):
        sched.spawn(sleeper(n), name="S{}_{}".format(index, n))
    sched.spawn(ticker, name="ticker")
    result = sched.run(on_deadlock="return", on_error="record")
    result.results["wakes"] = list(wakes)
    return result


def _run_staged_queue(sched: Scheduler, mechanism: str) -> RunResult:
    from ..problems.staged_queue import run_classes

    return run_classes(
        _factory("staged_queue", mechanism),
        plan=(("B", 0), ("A", 0), ("B", 0)),
        sched=sched,
    )


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
#: problem -> (workload, oracle name, registry problem used for mechanisms)
_SPECS: Dict[str, Tuple[Callable, str, str]] = {
    "readers_priority": (
        _run_readers_priority, "readers_priority_races", "readers_priority"),
    "footnote3": (_run_footnote3, "footnote3_strict", "readers_priority"),
    "bounded_buffer": (
        _run_bounded_buffer, "bounded_buffer_integrity", "bounded_buffer"),
    "one_slot_buffer": (
        _run_one_slot_buffer, "one_slot_alternation", "one_slot_buffer"),
    "fcfs_resource": (
        _run_fcfs_resource, "fcfs_resource", "fcfs_resource"),
    "alarm_clock": (_run_alarm_clock, "alarm_clock", "alarm_clock"),
    "staged_queue": (
        _run_staged_queue, "staged_queue_priority", "staged_queue"),
}


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
        workload, __, __ = _SPECS[self.problem]
        sched = Scheduler(policy=policy, fault_plan=fault_plan, sink=sink)
        return workload(sched, self.mechanism)

    def runner(self) -> Callable[[SchedulingPolicy], RunResult]:
        """``build_and_run`` curried for the engine's signature."""
        return lambda policy: self.build_and_run(policy)

    @property
    def oracle_name(self) -> str:
        """The registry name of this target's oracle battery."""
        __, name, __ = _SPECS[self.problem]
        return name

    @property
    def checker(self) -> Checker:
        """The problem oracle + detectors battery for this target, resolved
        from the shared registry (:mod:`repro.verify.registry`)."""
        return oracle(self.oracle_name)


def get_target(problem: str, mechanism: str) -> ExplorationTarget:
    """Resolve a target, validating both coordinates.

    Raises:
        KeyError: unknown problem, or mechanism not registered for it.
    """
    from ..problems.registry import solutions_for

    if problem not in _SPECS:
        raise KeyError(
            "unknown exploration problem {!r}; choose from {}".format(
                problem, ", ".join(sorted(_SPECS))
            )
        )
    registry_problem = _SPECS[problem][2]
    known = [e.mechanism for e in solutions_for(registry_problem)]
    if mechanism not in known:
        raise KeyError(
            "no {} solution for {!r}; registered mechanisms: {}".format(
                mechanism, problem, ", ".join(sorted(known))
            )
        )
    return ExplorationTarget(problem, mechanism)


def available_targets() -> List[Tuple[str, str]]:
    """Every (problem, mechanism) pair that :func:`get_target` accepts."""
    from ..problems.registry import solutions_for

    pairs: List[Tuple[str, str]] = []
    for problem, (__, __, registry_problem) in sorted(_SPECS.items()):
        for entry in solutions_for(registry_problem):
            pairs.append((problem, entry.mechanism))
    return pairs
