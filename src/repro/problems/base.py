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
  :mod:`repro.problems.registry` collects every package's ``CATALOG``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from ..core import SolutionDescription
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult


class SolutionBase:
    """Base class providing the uniform trace-logging helpers."""

    #: Problem name from the catalog (set by subclasses).
    problem: str = ""
    #: Mechanism name: ``semaphore``, ``monitor``, ``serializer``,
    #: ``pathexpr``, or ``pathexpr_open``.
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
