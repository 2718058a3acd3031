"""Shared plumbing for problem solutions.

Every solution in :mod:`repro.problems` follows the same conventions:

* it is constructed with a :class:`Scheduler` and exposes its operations as
  generator methods;
* it emits the uniform trace vocabulary — ``request`` when an operation is
  asked for (before any blocking), ``op_start`` when access is granted,
  ``op_end`` on completion — under ``<resource>.<op>`` object names, which is
  what the oracles key on;
* its impl module defines the variant's ``SolutionDescription``;
* its problem package declares the catalog cell: ``CATALOG`` in the
  package ``__init__`` pairs the class with that description, the
  package's verifier and its profile workload (:func:`catalog_cells`), and
  :mod:`repro.problems.registry` collects every package's ``CATALOG``;
* the same package declares its oracle battery, ``trace_battery(run)``:
  the trace properties every run of the problem must have.  Its verifier
  checks them on each labelled run, and its exhaustible explore workloads
  (``EXPLORE``, a tuple of :class:`ExploreWorkload`) check them on every
  explored schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from ..core import SolutionDescription
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from ..verify.detectors import Checker, compose_checkers
from ..verify.registry import oracle


class SolutionBase:
    """Base class providing the uniform trace-logging helpers."""

    #: Problem name from the catalog (set by subclasses).
    problem: str = ""
    #: Mechanism name: ``semaphore``, ``monitor``, ``serializer``,
    #: ``pathexpr``, ``pathexpr_open``, ``csp``, ``ccr`` or ``eventcount``.
    mechanism: str = ""

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        self._sched = sched
        self.name = name

    # ------------------------------------------------------------------
    def _request(self, op: str, detail: Any = None) -> None:
        """Log that an operation was asked for (pre-blocking)."""
        self._sched.log("request", "{}.{}".format(self.name, op), detail)

    def _start(self, op: str) -> None:
        """Log that access was granted and the operation is executing."""
        self._sched.log("op_start", "{}.{}".format(self.name, op))

    def _finish(self, op: str) -> None:
        """Log that the operation completed."""
        self._sched.log("op_end", "{}.{}".format(self.name, op))

    def _work(self, amount: int):
        """Spend ``amount`` scheduling steps inside the critical region —
        widens the window in which interference would be observable."""
        for __ in range(amount):
            yield


#: A problem package's canonical profile run: ``(factory, sched) -> RunResult``
#: on an injected (instrumented) scheduler.
Workload = Callable[[Any, Scheduler], RunResult]


@dataclass(frozen=True)
class RegisteredSolution:
    """One catalog cell: how to build, describe, verify and profile a
    solution.  ``factory`` is the solution class; ``factory(sched)`` builds
    an instance, and the class names the cell's problem and mechanism."""

    factory: type
    description: SolutionDescription
    verifier: Callable[[], List[str]]
    workload: Workload
    notes: str = ""

    @property
    def problem(self) -> str:
        return self.factory.problem

    @property
    def mechanism(self) -> str:
        return self.factory.mechanism

    @property
    def key(self) -> Tuple[str, str]:
        return (self.problem, self.mechanism)


def catalog_cells(*cells: tuple,
                  verifier: Callable[[type], Callable[[], List[str]]],
                  workload: Workload) -> Tuple[RegisteredSolution, ...]:
    """A problem package's catalog cells.

    Each cell is ``(solution class, description)``, or ``(class,
    description, notes)``; ``verifier(cls)`` builds the class's oracle
    battery and ``workload`` is the package's profile run.
    """
    return tuple(
        RegisteredSolution(cls, description, verifier(cls), workload, *notes)
        for cls, description, *notes in cells)


@dataclass(frozen=True)
class ExploreWorkload:
    """One exhaustible explore workload of a problem package.

    ``run(factory, sched)`` spawns a deliberately small system (2–3
    processes, 1–2 operations each, so the schedule space is exhaustible
    within CLI budgets) on the injected scheduler, with
    ``on_deadlock="return"`` / ``on_error="record"`` so a pathological
    schedule is reported by ``check`` rather than aborting the search.
    ``problem`` is the catalog problem whose solutions it runs.
    """

    name: str
    problem: str
    run: Workload
    check: Checker


def _no_process_failed(run: RunResult) -> List[str]:
    """A process that raised (or was killed) did not finish its work."""
    return ["process {} failed".format(name) for name in run.failed()]


def explore_check(*checks: Checker) -> Checker:
    """An explore workload's checker: no process failed, the package
    battery and the workload's result check, then lost wakeups."""
    return compose_checkers(_no_process_failed, *checks,
                            oracle("lost_wakeup"))


def consumed_both(what: str) -> Checker:
    """Result check of :func:`run_two_producers`: both items were consumed
    exactly once (unless the run deadlocked)."""

    def check(run: RunResult) -> List[str]:
        consumed = run.results.get("consumed", [])
        if not run.deadlocked and sorted(consumed) != [0, 1]:
            return ["{} integrity: consumed {!r}, expected a permutation of "
                    "[0, 1]".format(what, consumed)]
        return []

    return check


def run_two_producers(factory, sched: Scheduler, consumer: str) -> RunResult:
    """Explore workload of the buffer problems: producers ``P0`` and ``P1``
    put one item each, and ``consumer`` gets both.  The two producers'
    pre-put steps commute, which gives the equivalence pruning real work
    even on this tiny problem."""
    impl = factory(sched)
    consumed: List[int] = []
    sched.add_fingerprint_provider(lambda: consumed)

    def producer(value):
        def body():
            yield from impl.put(value)
        return body

    def consume():
        for __ in range(2):
            item = yield from impl.get()
            consumed.append(item)

    sched.spawn(producer(0), name="P0")
    sched.spawn(producer(1), name="P1")
    sched.spawn(consume, name=consumer)
    result = sched.run(on_deadlock="return", on_error="record")
    result.results["consumed"] = list(consumed)
    return result
