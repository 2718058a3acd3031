"""Runtime enforcement of path expressions over a resource.

A :class:`PathResource` bundles a set of path declarations with the
operations they govern.  Invoking an operation runs, in order:

1. one prologue action per path that names the operation (in path-declaration
   order) — this is where blocking happens;
2. the operation body (a generator; it may invoke *other* operations of the
   same resource, which is how the paper's Figure 1 programs nest, e.g.
   ``READ = begin requestread end`` with ``requestread = begin read end``);
3. one epilogue action per path, same order.

Operations named in paths but given no body act as pure synchronization
gates — the "synchronization procedures" whose necessity §5.1.1 of the paper
identifies as a path-expression weakness.

Crash semantics (DESIGN.md "Fault model"): an operation that dies (or whose
body raises) is recovered so the compiled semaphore network stays
consistent.  If the body never started, completed prologue ``P``s are undone
in reverse (a ``V`` on the same semaphore); if it did start, the remaining
epilogue ``V``s are fired forward.  Both directions are non-blocking;
burst-region boundaries, which need the region lock, cannot be recovered
this way and are *abandoned with a trace log* (``path_abandon``) — the
honest middle ground between wedging survivors and forging lock ownership.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence as Seq, Tuple, Union

from ...runtime.errors import IllegalOperationError
from ...runtime.process import SimProcess
from ...runtime.scheduler import Scheduler
from .ast import PathExpr
from .compiler import Action, OpTable, PathCompiler
from .parser import parse_path, parse_paths

PathInput = Union[str, PathExpr]
EventListener = Callable[[str, str, Any], None]


class PathResource:
    """A shared resource protected by one or more path expressions.

    Args:
        sched: owning scheduler.
        paths: either one string containing several ``path ... end``
            declarations, or a list of strings / parsed :class:`PathExpr`.
        operations: mapping of operation name to body.  A body is a
            generator function ``body(res, *args)`` (it may block or invoke
            other operations via ``yield from res.invoke(...)``) or a plain
            function for non-blocking bodies.  Operations named in paths but
            absent here are no-op gates; bodies for names not mentioned in
            any path run completely unsynchronized.
        name: trace label.
        wake_policy: passed to every internal semaphore; ``"fifo"`` realizes
            the paper's longest-waiting selection rule (ablated in E9).
    """

    def __init__(
        self,
        sched: Scheduler,
        paths: Union[str, Seq[PathInput]],
        operations: Optional[Dict[str, Callable]] = None,
        name: str = "pathres",
        wake_policy: str = "fifo",
        seed: int = 0,
    ) -> None:
        self._sched = sched
        self.name = name
        self.paths: List[PathExpr] = self._parse_inputs(paths)
        self._tables: List[OpTable] = []
        for index, path in enumerate(self.paths):
            compiler = PathCompiler(
                sched,
                "{}.path{}".format(name, index),
                wake_policy=wake_policy,
                seed=seed,
            )
            self._tables.append(compiler.compile(path))
        self._bodies: Dict[str, Optional[Callable]] = {}
        self._ops: Dict[str, List[Tuple[Action, Action]]] = {}
        for table in self._tables:
            for op, pair in table.items():
                self._ops.setdefault(op, []).append(pair)
                self._bodies.setdefault(op, None)
        for op, body in (operations or {}).items():
            self.define(op, body)
        self.listeners: List[EventListener] = []
        self._started: Dict[str, int] = {}
        self._completed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_inputs(paths: Union[str, Seq[PathInput]]) -> List[PathExpr]:
        if isinstance(paths, str):
            return parse_paths(paths)
        parsed: List[PathExpr] = []
        for item in paths:
            if isinstance(item, PathExpr):
                parsed.append(item)
            else:
                parsed.append(parse_path(item))
        return parsed

    # ------------------------------------------------------------------
    @property
    def operation_names(self) -> List[str]:
        """Every operation known to the resource (path-named or body-only)."""
        return sorted(set(self._ops) | set(self._bodies))

    def define(self, op: str, body: Callable) -> None:
        """Attach (or replace) the body of operation ``op``."""
        self._bodies[op] = body

    def started(self, op: str) -> int:
        """How many executions of ``op`` have begun (history info, T6)."""
        return self._started.get(op, 0)

    def completed(self, op: str) -> int:
        """How many executions of ``op`` have finished (history info, T6)."""
        return self._completed.get(op, 0)

    def active(self, op: str) -> int:
        """Executions of ``op`` currently in progress (sync state, T4)."""
        return self.started(op) - self.completed(op)

    def add_listener(self, listener: EventListener) -> None:
        """Subscribe to (phase, op, detail) notifications; phases are
        ``request``, ``op_start``, ``op_end``.  Used by the extended-path
        engine to re-evaluate predicates."""
        self.listeners.append(listener)

    def _notify(self, phase: str, op: str, detail: Any = None) -> None:
        for listener in self.listeners:
            listener(phase, op, detail)

    # ------------------------------------------------------------------
    def invoke(self, op: str, *args: Any) -> Generator:
        """Execute operation ``op`` under path control.

        Returns the body's return value.  Must be delegated to with
        ``yield from``.  If the operation dies or raises part-way through,
        the semaphore network is recovered (see module docstring).
        """
        if op not in self._bodies and op not in self._ops:
            raise IllegalOperationError(
                "unknown operation {!r} on {}".format(op, self.name)
            )
        pairs = self._ops.get(op, [])
        self._sched.log("request", "{}.{}".format(self.name, op), args or None)
        self._notify("request", op, args)
        # Per-invocation progress record; drives idempotent crash recovery.
        progress = {"prologues": 0, "body": False, "counted": False,
                    "epilogues": 0, "recovered": False}
        key = ("path_op", id(self))
        self._sched.register_cleanup(
            key, lambda proc: self._recover(op, pairs, progress)
        )
        try:
            for index, (prologue, __) in enumerate(pairs):
                yield from prologue.execute()
                progress["prologues"] = index + 1
            self._started[op] = self._started.get(op, 0) + 1
            progress["body"] = True
            self._sched.log("op_start", "{}.{}".format(self.name, op))
            self._sched.probe("path", "path {}.{}".format(self.name, op),
                              self.active(op))
            self._notify("op_start", op, args)
            body = self._bodies.get(op)
            result = None
            if body is not None:
                if inspect.isgeneratorfunction(body):
                    result = yield from body(self, *args)
                else:
                    result = body(self, *args)
            self._completed[op] = self._completed.get(op, 0) + 1
            progress["counted"] = True
            self._sched.log("op_end", "{}.{}".format(self.name, op))
            self._sched.probe("path", "path {}.{}".format(self.name, op),
                              self.active(op))
            self._notify("op_end", op, args)
            for index, (__, epilogue) in enumerate(pairs):
                yield from epilogue.execute()
                progress["epilogues"] = index + 1
            progress["recovered"] = True  # complete: recovery is a no-op
        except BaseException:
            # Covers body exceptions and the GeneratorExit of a kill (where
            # the registered cleanup usually ran first — _recover is
            # idempotent either way).
            self._recover(op, pairs, progress)
            raise
        finally:
            self._sched.unregister_cleanup(key)
        return result

    def _recover(self, op: str, pairs, progress: dict) -> None:
        """Repair the semaphore network after a crashed/failed invocation.

        Idempotent: the first call (registered cleanup or the ``except``
        path in :meth:`invoke`, whichever fires first) does the work."""
        if progress["recovered"]:
            return
        progress["recovered"] = True
        label = "{}.{}".format(self.name, op)
        if progress["body"]:
            # The body started: complete the cycle forward so successors
            # (sequence/cycle semaphores) are not starved.
            if not progress["counted"]:
                self._completed[op] = self._completed.get(op, 0) + 1
                self._sched.log("op_abort", label)
                self._notify("op_end", op, None)
            for __, epilogue in pairs[progress["epilogues"]:]:
                if epilogue.fire_nonblocking():
                    self._sched.log("path_recover", label,
                                    "fired {}".format(epilogue.describe()))
                else:
                    self._sched.log("path_abandon", label,
                                    epilogue.describe())
        else:
            # The body never started: roll the completed prologues back.
            for prologue, __ in reversed(pairs[:progress["prologues"]]):
                if prologue.undo_nonblocking():
                    self._sched.log("path_recover", label,
                                    "undid {}".format(prologue.describe()))
                else:
                    self._sched.log("path_abandon", label,
                                    prologue.describe())

    def crash_reclaim(self, proc: SimProcess) -> Optional[str]:
        """Lease reclamation hook (recovery runtime).

        Path expressions are already self-recovering: every ``invoke``
        registers a per-invocation cleanup that repairs the semaphore
        network the moment its process dies (see :meth:`_recover`), so by
        the time a lease manager sweeps a corpse there is nothing left to
        revoke.  Returns ``None`` (nothing reclaimed) by design.
        """
        return None

    def operation(self, op: str) -> Callable[..., Generator]:
        """A convenience callable: ``read = res.operation('read')`` then
        ``yield from read(args...)``."""
        def call(*args: Any) -> Generator:
            result = yield from self.invoke(op, *args)
            return result

        call.__name__ = op
        return call

    def describe_ops(self) -> Dict[str, List[str]]:
        """For each operation, the compiled prologue/epilogue actions —
        machine-readable structure used by the evaluation methodology."""
        described: Dict[str, List[str]] = {}
        for op, pairs in self._ops.items():
            described[op] = [
                "pre:{} post:{}".format(pre.describe(), post.describe())
                for pre, post in pairs
            ]
        return described
