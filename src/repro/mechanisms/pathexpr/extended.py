"""Extended ("open") path expressions.

§5.1.2 of the paper traces how later path-expression versions patched the
weaknesses its methodology exposed:

* Habermann 1975 added a **priority operator** and a conditional operator for
  resource/synchronization state;
* Flon & Habermann 1976 added a **numeric operator** for explicit
  synchronization-state and history counts;
* Andler 1977/78 added **predicates and state variables**.

This module reproduces that lineage as :class:`GuardedPathResource`: a
:class:`~repro.mechanisms.pathexpr.runtime.PathResource` wrapped in a guard
layer.

* ``guards`` attach a predicate to an operation (Andler's predicates): a
  request parks until the predicate is true.  Predicates may read resource
  state, the built-in start/complete counters (the numeric operator), or any
  user state variable.
* ``priorities`` order the wake-up scan (the priority operator): among
  parked requests whose predicates hold, the highest-priority one proceeds
  first; ties break by arrival (FIFO).
* predicates are re-evaluated after every operation start/end — automatic
  signalling, no user code.

The guard layer runs *before* the base path prologues, so base paths still
enforce ordering/exclusion; guards add the conditions base paths cannot
express (parameters T3, local state T5, direct priority).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ...runtime.process import SimProcess
from .runtime import PathResource

GuardPredicate = Callable[["GuardedPathResource", Tuple[Any, ...]], bool]


class GuardedPathResource(PathResource):
    """A path-protected resource with Andler-style predicates and priorities.

    Args:
        guards: ``{op: predicate}``; ``predicate(res, args)`` must be
            side-effect-free and non-blocking.  Operations without a guard
            pass straight through to the base prologue.
        priorities: ``{op: int}``; larger is more urgent.  Default 0.
        (remaining arguments as for :class:`PathResource`)
    """

    def __init__(
        self,
        sched,
        paths,
        operations: Optional[Dict[str, Callable]] = None,
        guards: Optional[Dict[str, GuardPredicate]] = None,
        priorities: Optional[Dict[str, int]] = None,
        name: str = "openpath",
        wake_policy: str = "fifo",
        seed: int = 0,
    ) -> None:
        super().__init__(
            sched,
            paths,
            operations=operations,
            name=name,
            wake_policy=wake_policy,
            seed=seed,
        )
        self.guards: Dict[str, GuardPredicate] = dict(guards or {})
        self.priorities: Dict[str, int] = dict(priorities or {})
        self.state: Dict[str, Any] = {}  # Andler's state variables
        # Parked guarded requests: (neg_priority, arrival, proc, op, args).
        self._gate: List[Tuple[int, int, SimProcess, str, Tuple[Any, ...]]] = []
        self._arrivals = 0

    # ------------------------------------------------------------------
    def set_guard(self, op: str, predicate: GuardPredicate) -> None:
        """Attach (or replace) the predicate for ``op``."""
        self.guards[op] = predicate

    def set_priority(self, op: str, priority: int) -> None:
        """Attach (or replace) the wake priority for ``op``."""
        self.priorities[op] = priority

    def _guard_holds(self, op: str, args: Tuple[Any, ...]) -> bool:
        predicate = self.guards.get(op)
        if predicate is None:
            return True
        return bool(predicate(self, args))

    # ------------------------------------------------------------------
    def invoke(self, op: str, *args: Any) -> Generator:
        """As :meth:`PathResource.invoke`, but first clears the guard.

        The guard is re-checked after every wake-up (Mesa discipline): state
        may have changed between the wake and this process actually running.
        Arrival order is preserved across re-parks so FIFO fairness holds.
        """
        self._arrivals += 1
        arrival = self._arrivals
        while not self._guard_holds(op, args):
            entry = (
                -self.priorities.get(op, 0),
                arrival,
                self._sched.current,
                op,
                args,
            )
            self._gate.append(entry)
            self._gate.sort(key=lambda item: (item[0], item[1]))
            yield from self._sched.park(
                "guard({}.{})".format(self.name, op), op
            )
        result = yield from super().invoke(op, *args)
        return result

    # ------------------------------------------------------------------
    def _notify(self, phase: str, op: str, detail: Any = None) -> None:
        """Automatic signalling: after any state change, admit every parked
        request (best priority first) whose predicate now holds, before
        the listeners hear of it.  An override, not a listener: a bound
        method in :attr:`listeners` would make the resource a cycle."""
        if phase in ("op_start", "op_end"):
            self.recheck_guards()
        super()._notify(phase, op, detail)

    def recheck_guards(self) -> None:
        """Re-evaluate all parked guards; wake the newly-eligible ones.

        Called automatically after each operation event; call it manually
        after mutating :attr:`state` outside any operation.
        """
        admitted = True
        while admitted:
            admitted = False
            for index, entry in enumerate(self._gate):
                __, __, proc, parked_op, parked_args = entry
                if self._guard_holds(parked_op, parked_args):
                    del self._gate[index]
                    self._sched.unpark(proc)
                    admitted = True
                    break

    @property
    def gate_depth(self) -> int:
        """Number of requests currently parked on guards."""
        return len(self._gate)
