"""The Campbell–Habermann semaphore translation for path expressions.

A path declaration compiles to a set of *prologue* and *epilogue* actions per
operation name, exactly following the translation rules of Campbell &
Habermann, "The Specification of Process Synchronization by Path Expressions"
(LNCS 16, 1974):

* the whole (cyclic) path owns one semaphore ``S`` initialized to 1; the
  body is translated with prologue source ``P(S)`` and epilogue sink ``V(S)``;
* a **sequence** ``e1 ; e2`` introduces an internal semaphore ``m`` (init 0):
  ``e1`` keeps the incoming prologue and gets epilogue ``V(m)``, ``e2`` gets
  prologue ``P(m)`` and keeps the outgoing epilogue;
* a **selection** ``e1 , e2`` hands the *same* prologue/epilogue pair to each
  alternative — mutual exclusion between alternatives falls out of the shared
  semaphore, and FIFO semaphores realize the paper's added assumption that
  "the selection operator always chooses the process that has been waiting
  longest" (§5.1);
* a **burst** ``{ e }`` wraps its child's boundary in a counter: the *first*
  activation performs the inherited prologue, the *last* completion performs
  the inherited epilogue, and any number of activations may overlap in
  between.

Actions compose recursively (a burst's boundary action may itself be another
burst's boundary action), which is how nested ``{ { a } }`` and
``{ (a ; b) }`` shapes come out right.

Restriction (as in Campbell–Habermann): an operation name may occur at most
once per path declaration; it may of course occur in many different paths,
in which case its prologues run in path-declaration order.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ...runtime.errors import IllegalOperationError
from ...runtime.primitives import Mutex, Semaphore
from ...runtime.scheduler import Scheduler
from .ast import Burst, Name, PathExpr, PathNode, Selection, Sequence


class PathCompileError(ValueError):
    """Raised when a path declaration cannot be translated."""


class Action:
    """A micro-operation executed as part of an operation's prologue or
    epilogue.  ``execute`` is a generator and may block (prologue side).

    The two ``*_nonblocking`` hooks power crash recovery
    (:meth:`PathResource.invoke`): they perform or undo the action's
    semaphore effect *without blocking* when that is possible, returning
    ``True`` on success.  Burst boundaries need the region lock and so
    cannot recover this way — they return ``False`` and recovery logs the
    abandonment instead of wedging.
    """

    def execute(self) -> Generator:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering (used in solution descriptions)."""
        raise NotImplementedError

    def fire_nonblocking(self) -> bool:
        """Perform the action's effect without blocking (epilogue recovery
        after the body ran); ``False`` when the action may block."""
        return False

    def undo_nonblocking(self) -> bool:
        """Reverse the action's effect without blocking (prologue rollback
        when the body never ran); ``False`` when not reversible this way."""
        return False


class PAction(Action):
    """``P(sem)`` — may block."""

    def __init__(self, sem: Semaphore) -> None:
        self.sem = sem

    def execute(self) -> Generator:
        yield from self.sem.p()

    def undo_nonblocking(self) -> bool:
        self.sem.v()
        return True

    def describe(self) -> str:
        return "P({})".format(self.sem.name)


class VAction(Action):
    """``V(sem)`` — never blocks."""

    def __init__(self, sem: Semaphore) -> None:
        self.sem = sem

    def execute(self) -> Generator:
        self.sem.v()
        return
        yield  # pragma: no cover - makes this a generator function

    def fire_nonblocking(self) -> bool:
        self.sem.v()
        return True

    def describe(self) -> str:
        return "V({})".format(self.sem.name)


class BurstCounter:
    """Shared occupancy counter for one ``{ ... }`` region."""

    def __init__(self, sched: Scheduler, name: str) -> None:
        self.lock = Mutex(sched, name + ".lock")
        self.count = 0
        self.name = name


class BurstEnter(Action):
    """First activation of a burst performs the inherited boundary action.

    Faithful to the original translation, the region lock is *held* while the
    boundary action blocks: a burst that cannot open also holds back everyone
    queued behind it, preserving arrival order into the region.
    """

    def __init__(self, counter: BurstCounter, boundary: Action) -> None:
        self.counter = counter
        self.boundary = boundary

    def execute(self) -> Generator:
        yield from self.counter.lock.acquire()
        self.counter.count += 1
        if self.counter.count == 1:
            try:
                yield from self.boundary.execute()
            except BaseException:
                self.counter.count -= 1  # the region never opened
                try:
                    self.counter.lock.release()
                except IllegalOperationError:
                    pass  # a crash already released the lock for us
                raise
        self.counter.lock.release()

    def describe(self) -> str:
        return "burst_enter({}, {})".format(
            self.counter.name, self.boundary.describe()
        )


class BurstExit(Action):
    """Last completion of a burst performs the inherited boundary action."""

    def __init__(self, counter: BurstCounter, boundary: Action) -> None:
        self.counter = counter
        self.boundary = boundary

    def execute(self) -> Generator:
        yield from self.counter.lock.acquire()
        self.counter.count -= 1
        if self.counter.count == 0:
            try:
                yield from self.boundary.execute()
            except BaseException:
                self.counter.count += 1  # the region never closed
                try:
                    self.counter.lock.release()
                except IllegalOperationError:
                    pass  # a crash already released the lock for us
                raise
        self.counter.lock.release()

    def describe(self) -> str:
        return "burst_exit({}, {})".format(
            self.counter.name, self.boundary.describe()
        )


OpTable = Dict[str, Tuple[Action, Action]]


class PathCompiler:
    """Compiles one :class:`PathExpr` into per-operation action pairs."""

    def __init__(
        self,
        sched: Scheduler,
        path_name: str,
        wake_policy: str = "fifo",
        seed: int = 0,
    ) -> None:
        self._sched = sched
        self._path_name = path_name
        self._wake_policy = wake_policy
        self._seed = seed
        self._sem_counter = 0
        self._burst_counter = 0
        self.table: OpTable = {}

    def compile(self, path: PathExpr) -> OpTable:
        """Return ``{operation: (prologue_action, epilogue_action)}``.

        The cycle semaphore starts at the path's multiplicity: ``path N :
        body end`` keeps up to N cycles in flight (numeric operator).
        """
        start = self._new_semaphore(initial=path.multiplicity, label="cycle")
        self._translate(path.body, PAction(start), VAction(start))
        return self.table

    # ------------------------------------------------------------------
    def _new_semaphore(self, initial: int, label: str) -> Semaphore:
        name = "{}.{}{}".format(self._path_name, label, self._sem_counter)
        self._sem_counter += 1
        return Semaphore(
            self._sched,
            initial=initial,
            name=name,
            wake_policy=self._wake_policy,
            seed=self._seed,
        )

    def _translate(self, node: PathNode, pre: Action, post: Action) -> None:
        if isinstance(node, Name):
            if node.value in self.table:
                raise PathCompileError(
                    "operation {!r} occurs twice in {}; the Campbell-"
                    "Habermann translation requires at most one occurrence "
                    "per path".format(node.value, self._path_name)
                )
            self.table[node.value] = (pre, post)
        elif isinstance(node, Sequence):
            elements = node.elements
            links = [
                self._new_semaphore(initial=0, label="seq")
                for __ in range(len(elements) - 1)
            ]
            for index, element in enumerate(elements):
                element_pre = pre if index == 0 else PAction(links[index - 1])
                element_post = (
                    post if index == len(elements) - 1 else VAction(links[index])
                )
                self._translate(element, element_pre, element_post)
        elif isinstance(node, Selection):
            for alternative in node.alternatives:
                self._translate(alternative, pre, post)
        elif isinstance(node, Burst):
            counter = BurstCounter(
                self._sched,
                "{}.burst{}".format(self._path_name, self._burst_counter),
            )
            self._burst_counter += 1
            self._translate(
                node.body, BurstEnter(counter, pre), BurstExit(counter, post)
            )
        else:  # pragma: no cover - parser only produces the above
            raise PathCompileError("unknown node type {!r}".format(node))
