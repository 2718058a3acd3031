"""Execution traces.

Every observable action taken by a process — acquiring a semaphore, entering a
monitor, starting a resource operation — is recorded as an :class:`Event` in a
:class:`Trace`.  Traces are the ground truth that the correctness oracles in
:mod:`repro.verify` consume: properties such as mutual exclusion, reader
priority, or FCFS ordering are all predicates over traces.

Event kinds are free-form strings; the conventional vocabulary used throughout
the library is:

========================  =====================================================
kind                      meaning
========================  =====================================================
``spawn`` / ``exit``      process lifecycle
``request``               a process asked to run a resource operation
``op_start``/``op_end``   a resource operation began / completed executing
``acquire``/``release``   low-level lock or semaphore transfer
``blocked``/``unblocked`` a process parked / was resumed
``enter``/``leave``       monitor or serializer possession transfer
``wait``/``signal``       condition-variable traffic
``custom``                anything problem-specific (payload in ``detail``)
========================  =====================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

from .errors import SchedulerStateError


class Event(NamedTuple):
    """One observable step in an execution.

    A named tuple: immutable, hashable, and equal by fields.  Being a
    tuple, an ``Event`` also compares equal to a plain tuple holding the
    same seven fields in order.  A traced run keeps every event, so the
    record carries no per-instance ``__dict__``.

    Attributes:
        seq: global sequence number; totally orders all events in a run.
        time: virtual-clock reading when the event occurred.
        pid: id of the acting process (-1 for scheduler-originated events).
        pname: human-readable process name.
        kind: event vocabulary word (see module docstring).
        obj: name of the object acted upon (lock, monitor, operation, ...).
        detail: free-form payload (parameters, queue lengths, ...).
    """

    seq: int
    time: int
    pid: int
    pname: str
    kind: str
    obj: str = ""
    detail: Any = None

    def __str__(self) -> str:
        base = "[{:>4} t={:>4}] {:<14} {:<10} {}".format(
            self.seq, self.time, self.pname, self.kind, self.obj
        )
        if self.detail is not None:
            base += " {!r}".format(self.detail)
        return base

    def to_dict(self) -> dict:
        """The event as a plain dictionary (exporter/round-trip shape)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "pid": self.pid,
            "pname": self.pname,
            "kind": self.kind,
            "obj": self.obj,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output (JSONL re-import)."""
        return cls(
            seq=data["seq"],
            time=data["time"],
            pid=data["pid"],
            pname=data["pname"],
            kind=data["kind"],
            obj=data.get("obj", ""),
            detail=data.get("detail"),
        )


class TraceView:
    """A lazy view over a filtered trace.

    Iterating the view scans the underlying event list once, yielding
    matches as it goes — oracle hot loops that only iterate (or stop early
    via ``next``/``first``) never build an intermediate list.  The list
    protocol (``len``, indexing, slicing, ``==``) still works: the first
    such call materializes the matches once and caches them, so existing
    callers that index into filter results are unaffected.
    """

    __slots__ = ("_source", "_match", "_cache")

    def __init__(self, source: List[Event],
                 match: Callable[[Event], bool]) -> None:
        self._source = source
        self._match = match
        self._cache: Optional[List[Event]] = None

    def __iter__(self) -> Iterator[Event]:
        if self._cache is not None:
            return iter(self._cache)
        return (ev for ev in self._source if self._match(ev))

    def _materialize(self) -> List[Event]:
        if self._cache is None:
            self._cache = [ev for ev in self._source if self._match(ev)]
        return self._cache

    def __len__(self) -> int:
        return len(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __bool__(self) -> bool:
        return next(iter(self), None) is not None

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceView):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return "TraceView({!r})".format(self._materialize())


class Trace:
    """An append-only sequence of :class:`Event` objects with query helpers."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def append(self, event: Event) -> None:
        """Record one event (used by the scheduler; user code should go
        through :meth:`Scheduler.log`)."""
        self._events.append(event)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        kind: Optional[str] = None,
        obj: Optional[str] = None,
        pname: Optional[str] = None,
        pid: Optional[int] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
    ) -> TraceView:
        """A lazy :class:`TraceView` of events matching every criterion.

        ``kind`` may be a single vocabulary word or a ``|``-separated
        alternation, e.g. ``"op_start|op_end"``.  The view iterates without
        building a list; indexing/``len`` materialize (and cache) once.
        """
        kinds = set(kind.split("|")) if kind is not None else None

        def match(ev: Event) -> bool:
            if kinds is not None and ev.kind not in kinds:
                return False
            if obj is not None and ev.obj != obj:
                return False
            if pname is not None and ev.pname != pname:
                return False
            if pid is not None and ev.pid != pid:
                return False
            if predicate is not None and not predicate(ev):
                return False
            return True

        return TraceView(self._events, match)

    def kinds(self) -> List[str]:
        """The distinct event kinds present, in first-occurrence order."""
        seen = []
        for ev in self._events:
            if ev.kind not in seen:
                seen.append(ev.kind)
        return seen

    def first(self, **criteria) -> Optional[Event]:
        """First event matching :meth:`filter` criteria, or ``None``.
        Short-circuits: stops scanning at the first match."""
        return next(iter(self.filter(**criteria)), None)

    def last(self, **criteria) -> Optional[Event]:
        """Last event matching :meth:`filter` criteria, or ``None``."""
        found = None
        for ev in self.filter(**criteria):
            found = ev
        return found

    def projection(self, *kinds: str) -> List[Event]:
        """Events whose kind is one of ``kinds``, preserving order."""
        wanted = set(kinds)
        return [ev for ev in self._events if ev.kind in wanted]

    def per_process(self) -> "dict[str, List[Event]]":
        """Group events by process name, preserving per-process order."""
        grouped: dict = {}
        for ev in self._events:
            grouped.setdefault(ev.pname, []).append(ev)
        return grouped

    def render(self, limit: Optional[int] = None) -> str:
        """A human-readable dump of the trace (optionally truncated)."""
        events = self._events if limit is None else self._events[:limit]
        lines = [str(ev) for ev in events]
        if limit is not None and len(self._events) > limit:
            lines.append("... ({} more events)".format(len(self._events) - limit))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """The trace as plain dictionaries (for external analysis)."""
        return [ev.to_dict() for ev in self._events]

    def to_json(self) -> str:
        """JSON export; non-serializable details are stringified."""
        import json

        return json.dumps(self.to_dicts(), default=repr)


class UnkeptTrace:
    """A trace that is not there to read: that of a run made with
    ``Scheduler(keep_trace=False)``, and a finished scheduler's ``trace``
    (the events belong to the :class:`RunResult` ``run()`` returned).

    Every read raises :class:`~repro.runtime.errors.SchedulerStateError`
    with ``why``.  An empty trace would read as a run in which nothing
    happened, and an oracle handed one would pass."""

    __slots__ = ("_why",)

    def __init__(self, why: str) -> None:
        self._why = why

    def _refuse(self, *args: Any, **kwargs: Any):
        raise SchedulerStateError(self._why)

    __len__ = __iter__ = __getitem__ = __contains__ = __bool__ = _refuse

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        self._refuse()


class Op:
    """One operation as :class:`OpFold` paired it: the requesting process
    (the starter, for an op started without a request), its ``obj``, its
    ``request`` and ``start`` events (``None`` when absent), and ``end``,
    the event that closed it: ``op_end``, ``op_abort``, or the
    ``killed``/``failed`` event of the process holding it (``None`` while
    open)."""

    __slots__ = ("pid", "pname", "obj", "request", "start", "end")

    def __init__(self, first: Event, request: Optional[Event]) -> None:
        self.pid, self.pname, self.obj = first.pid, first.pname, first.obj
        self.request = request
        self.start: Optional[Event] = None
        self.end: Optional[Event] = None

    @property
    def completed(self) -> bool:
        """``True`` when the op ran to its ``op_end``."""
        return self.end is not None and self.end.kind == "op_end"

    def pending_at(self, seq: int) -> bool:
        """Requested before ``seq`` and not started by then.  A request a
        kill dropped stays pending: nothing ever served it."""
        return (self.request is not None and self.request.seq < seq
                and (self.start is None or self.start.seq > seq))


#: the event kinds :class:`OpFold` reads.
OP_KINDS = frozenset(
    ("request", "op_start", "op_end", "op_abort", "killed", "failed"))


class OpFold:
    """The one pairing of ``request`` → ``op_start`` → ``op_end``, read by
    every oracle, liveness query and span that asks which request a start
    served.  The rule:

    * an ``op_start`` takes the oldest open request of its own
      ``(pid, obj)``, else the oldest open request on ``obj`` from any
      process (a CSP server serving a client), else opens an op with no
      request;
    * ``op_end`` / ``op_abort`` close the ender's oldest running op on
      ``obj``;
    * ``killed`` / ``failed`` (victim name in ``obj``) close the victim's
      open requests and the ops it is running.

    Feed events one at a time (:meth:`feed`) or a whole trace
    (:meth:`fold`); ``objects`` restricts the fold to those operation
    objects.  ``ops`` holds every op in order of its first event,
    ``started`` the served ones in ``op_start`` order.
    """

    def __init__(self, objects: Optional[Iterable[str]] = None) -> None:
        self.objects = None if objects is None else frozenset(objects)
        self.ops: List[Op] = []
        self.started: List[Op] = []
        # FIFOs with lazy deletion: an op taken through one index stays in
        # the other until it reaches the front.
        self._own: Dict[Tuple[int, str], Deque[Op]] = {}
        self._waiting: Dict[str, Deque[Op]] = {}
        self._running: Dict[Tuple[int, str], Deque[Op]] = {}

    def fold(self, events: Iterable[Event]) -> "OpFold":
        """Feed every event of ``events``; returns ``self``."""
        feed = self.feed
        for ev in events:
            if ev.kind in OP_KINDS:
                feed(ev)
        return self

    def feed(self, ev: Event) -> None:
        """Fold one event (other kinds are ignored)."""
        kind, obj = ev.kind, ev.obj
        if kind == "killed" or kind == "failed":
            self._drop(obj, ev)
        elif self.objects is not None and obj not in self.objects:
            return
        elif kind == "request":
            op = Op(ev, ev)
            self.ops.append(op)
            self._own.setdefault((ev.pid, obj), deque()).append(op)
            self._waiting.setdefault(obj, deque()).append(op)
        elif kind == "op_start":
            op = (_take_open(self._own.get((ev.pid, obj)))
                  or _take_open(self._waiting.get(obj)))
            if op is None:
                op = Op(ev, None)
                self.ops.append(op)
            op.start = ev
            self.started.append(op)
            self._running.setdefault((ev.pid, obj), deque()).append(op)
        elif kind == "op_end" or kind == "op_abort":
            running = self._running.get((ev.pid, obj))
            if running:
                running.popleft().end = ev

    def _drop(self, victim: str, ev: Event) -> None:
        for fifo in self._own.values():
            for op in fifo:
                if op.pname == victim and op.start is None and op.end is None:
                    op.end = ev
        for running in self._running.values():
            if running and running[0].start.pname == victim:
                for op in running:
                    op.end = ev
                running.clear()


def _take_open(fifo: Optional[Deque[Op]]) -> Optional[Op]:
    """Pop the oldest op of ``fifo`` still waiting for its start."""
    while fifo:
        op = fifo.popleft()
        if op.start is None and op.end is None:
            return op
    return None


@dataclass
class RunResult:
    """Outcome of :meth:`Scheduler.run`.

    Attributes:
        trace: the complete event trace (an :class:`UnkeptTrace`, which
            refuses every read, when the scheduler kept none).
        deadlocked: ``True`` when the run ended with blocked processes and
            nothing runnable (only when ``on_deadlock='return'``).
        blocked: names of processes still blocked at the end of the run.
        steps: number of scheduling steps executed.
        time: final virtual-clock value.
        results: mapping of process name to the value its body returned.
        proc_steps: per-process step counts — the coordinate space a
            :class:`~repro.runtime.faults.FaultPlan` kills at, used by the
            chaos explorer to enumerate fault points.
        graph: the wait-for graph snapshot when the run ended deadlocked
            (``None`` otherwise).
        step_limited: ``True`` when the run was cut off by the step budget
            (only when ``on_steplimit='return'``).
        ready: names of still-runnable processes at the cutoff — non-empty
            means the system was making progress (livelock territory),
            empty means nothing was runnable (a wedge behind timers).
    """

    trace: Trace
    deadlocked: bool = False
    blocked: List[str] = field(default_factory=list)
    steps: int = 0
    time: int = 0
    results: dict = field(default_factory=dict)
    proc_steps: dict = field(default_factory=dict)
    graph: Optional[object] = None
    step_limited: bool = False
    ready: List[str] = field(default_factory=list)

    def failed(self) -> List[str]:
        """Names of processes that died (killed or raised), recovered from
        the trace — crash-semantics tests and the chaos oracles read this."""
        out: List[str] = []
        for ev in self.trace:
            if ev.kind in ("killed", "failed") and ev.obj not in out:
                out.append(ev.obj)
        return out
