"""Happens-before graphs derived from deterministic traces.

The trace layer records *instants*; the span layer (:mod:`repro.obs.spans`)
recovers *durations*; this module recovers **causality**: which event made
which other event possible.  Because every blocking construct in the library
funnels through exactly two scheduler services (``park`` / ``unpark``, see
:mod:`repro.runtime.scheduler`), every cross-process causal edge is visible
in the trace as an ``unblocked`` event attributed to the waker — a monitor
signal, a serializer grant, a semaphore V handoff, a channel send→receive
rendezvous, or a timer firing.  No extra instrumentation runs in the
scheduler hot path: the graph is computed post-hoc from the trace alone
(the E15 null-sink overhead bound is untouched).

Edge kinds
==========

========== ==================================================================
kind       meaning
========== ==================================================================
program    two consecutive events of the same process (program order)
wake       a process's ``unblocked`` event → the woken process's next event
           (signal delivery, monitor/serializer handoff, semaphore V,
           channel rendezvous — subclassified by the wait's *reason*)
timer      a virtual-time wakeup (sleep expiry) → the sleeper's next event
timeout    a timed ``park`` expired → the waiter's next event
delayed    a fault-plan-delayed wakeup; the causal waker is recovered from
           the ``wake_delayed`` event the original unpark logged
spawn      a ``spawn`` event → the child's next event
========== ==================================================================

Vector clocks (one component per process, plus one for the scheduler) are
stamped on every event in seq order: ``VC(e)`` is the component-wise max of
every predecessor's clock with ``e``'s own component incremented.  Two
events are *concurrent* exactly when neither clock dominates the other —
the standard logical-clock construction (Aspnes, arXiv:2001.04235).

Wait classification
===================

Every blocked interval is attributed to the paper's vocabulary: the
**constraint kind** it enforces (exclusion vs priority, §3) and the
**information types** (T1–T6, §4) the guarding decision consults.  The
classification keys off the park *reason* string the scheduler now records
as the ``blocked`` event's detail (``"enter(m)"``, ``"wait(buf.nonempty)"``,
``"P(s)"``...), so it works on re-imported traces too.  The mapping table
is documented in DESIGN.md §10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime.trace import Event

#: Schema version of everything this module derives (bumped with the
#: edge/attribution vocabulary; persisted by the run store).
CAUSALITY_SCHEMA = 1


# ----------------------------------------------------------------------
# Wait classification (constraint kind + information types)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaitClass:
    """Paper-vocabulary attribution of one kind of wait."""

    category: str
    constraint: str  # "exclusion" | "priority" | "time" | "unknown"
    info_types: Tuple[str, ...]


#: park-reason prefix -> attribution.  The reason is the first argument of
#: ``Scheduler.park`` (now logged as the blocked event's detail); prefixes
#: are matched up to the opening parenthesis.  See DESIGN.md §10 for the
#: rationale of each row.
WAIT_CLASSES: Dict[str, WaitClass] = {
    "enter": WaitClass("entry", "exclusion", ("T4",)),
    "urgent": WaitClass("signaler", "exclusion", ("T4",)),
    "rejoin": WaitClass("rejoin", "exclusion", ("T4",)),
    "lock": WaitClass("mutex", "exclusion", ("T4",)),
    "P": WaitClass("semaphore", "exclusion", ("T4",)),
    "region": WaitClass("region", "exclusion", ("T4", "T5")),
    "wait": WaitClass("condition", "priority", ("T5",)),
    "event": WaitClass("event", "priority", ("T5",)),
    "enqueue": WaitClass("queue", "priority", ("T2", "T4")),
    "send": WaitClass("channel", "priority", ("T1", "T5")),
    "recv": WaitClass("channel", "priority", ("T1", "T5")),
    "select": WaitClass("channel", "priority", ("T1", "T5")),
    "await": WaitClass("eventcount", "priority", ("T2", "T6")),
    "guard": WaitClass("guard", "priority", ("T1", "T6")),
    "sleep": WaitClass("timer", "time", ("T3",)),
}

_UNKNOWN = WaitClass("unknown", "unknown", ())


def classify_wait(reason: Optional[str]) -> WaitClass:
    """Map a park reason (``"wait(buf.nonempty)"``) to its attribution."""
    if not reason:
        return _UNKNOWN
    head = reason.split("(", 1)[0]
    return WAIT_CLASSES.get(head, _UNKNOWN)


# ----------------------------------------------------------------------
# Wake records: the cross-process causal skeleton
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Wake:
    """One resolved wait: a process's transition BLOCKED → READY.

    Attributes:
        seq: seq of the ``unblocked`` event.
        woken_pid: the process that became runnable.
        waker_pid: the process whose action delivered the wakeup (-1 when
            the scheduler's timer machinery did: sleeps and timeouts).
        blocked_seq: seq of the woken process's last own event before the
            wakeup — its ``blocked`` event for parks, its final action
            before suspending for sleeps.
        reason: the park reason (``"wait(buf.nonempty)"``), ``"sleep"`` for
            timer waits, or the wait label recovered from the blocked event.
        obj: the blocked event's object (the short construct name).
        kind: edge kind — ``wake`` | ``timer`` | ``timeout`` | ``delayed``.
    """

    seq: int
    woken_pid: int
    waker_pid: int
    blocked_seq: int
    reason: str
    obj: str
    kind: str


def _own_events(events: Iterable[Event]) -> Dict[int, List[Event]]:
    by_pid: Dict[int, List[Event]] = {}
    for ev in events:
        if ev.pid >= 0:
            by_pid.setdefault(ev.pid, []).append(ev)
    return by_pid


def _latest_before(own: List[Event], seq: int) -> Optional[Event]:
    """Latest event in ``own`` (seq-ordered) with ``.seq < seq``."""
    lo, hi = 0, len(own)
    while lo < hi:
        mid = (lo + hi) // 2
        if own[mid].seq < seq:
            lo = mid + 1
        else:
            hi = mid
    return own[lo - 1] if lo else None


def wake_records(events: List[Event]) -> List[Wake]:
    """Extract every resolved wait from a trace, in seq order.

    Every BLOCKED → READY transition logs exactly one ``unblocked`` event
    (obj = the woken process's name) attributed to the waker — or to the
    scheduler (pid -1) for timer-driven wakeups.  Fault-plan-delayed
    wakeups are re-attributed to the process that originally unparked,
    recovered from its ``wake_delayed`` event.
    """
    by_pid = _own_events(events)
    name_to_pid: Dict[str, int] = {}
    for ev in events:
        if ev.pid >= 0 and ev.pname not in name_to_pid:
            name_to_pid[ev.pname] = ev.pid
    #: (woken name, latest wake_delayed event) for delayed-wake recovery.
    delayed: Dict[str, Event] = {}
    wakes: List[Wake] = []
    for ev in events:
        if ev.kind == "wake_delayed":
            delayed[ev.obj] = ev
            continue
        if ev.kind != "unblocked":
            continue
        woken_pid = name_to_pid.get(ev.obj)
        if woken_pid is None:
            continue
        own = by_pid.get(woken_pid, [])
        prev = _latest_before(own, ev.seq)
        if prev is not None and prev.kind == "timeout":
            # A timed wait expired: the real park is one event further back.
            park = _latest_before(own, prev.seq)
            blocked_seq = park.seq if park is not None else prev.seq
            reason = (park.detail if park is not None
                      and isinstance(park.detail, str) else str(prev.obj))
            wakes.append(Wake(ev.seq, woken_pid, -1, blocked_seq,
                              reason or str(prev.obj), str(prev.obj),
                              "timeout"))
            continue
        if prev is None:
            continue
        if prev.kind == "blocked":
            blocked_seq = prev.seq
            reason = prev.detail if isinstance(prev.detail, str) else prev.obj
            obj = prev.obj
        else:
            # No park was logged: a sleep (virtual-time wait).
            blocked_seq = prev.seq
            reason = "sleep"
            obj = "timer"
        if ev.pid >= 0:
            kind, waker = "wake", ev.pid
        elif ev.detail == "timer":
            kind, waker = "timer", -1
        else:
            # Scheduler-delivered: a delayed wakeup if the original unpark
            # left a wake_delayed marker after the park, else a timer.
            marker = delayed.get(ev.obj)
            if marker is not None and marker.seq > blocked_seq:
                kind, waker = "delayed", marker.pid
            else:
                kind, waker = "timer", -1
        wakes.append(Wake(ev.seq, woken_pid, waker, blocked_seq,
                          reason, obj, kind))
    return wakes


# ----------------------------------------------------------------------
# The happens-before graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HBEdge:
    """One happens-before edge between two event seqs."""

    src: int
    dst: int
    kind: str
    label: str = ""


class HBGraph:
    """Vector-clock-stamped happens-before graph over a trace.

    Nodes are events (keyed by seq — the total order).  Edges are program
    order plus the cross-process skeleton from :func:`wake_records` and
    spawn delivery.  Clocks have one component per process plus one for
    the scheduler (index 0).
    """

    def __init__(
        self,
        events: List[Event],
        edges: List[HBEdge],
        clocks: Dict[int, Tuple[int, ...]],
        component_of: Dict[int, int],
    ) -> None:
        self.events = events
        self.edges = edges
        self.clocks = clocks
        self.component_of = component_of
        self._by_seq = {ev.seq: ev for ev in events}
        self._preds: Dict[int, List[HBEdge]] = {}
        for edge in edges:
            self._preds.setdefault(edge.dst, []).append(edge)

    # ------------------------------------------------------------------
    def event(self, seq: int) -> Event:
        return self._by_seq[seq]

    def preds(self, seq: int) -> List[HBEdge]:
        return self._preds.get(seq, [])

    def clock(self, seq: int) -> Tuple[int, ...]:
        return self.clocks[seq]

    def happens_before(self, a: int, b: int) -> bool:
        """True when event ``a`` causally precedes event ``b``
        (vector-clock dominance, strict)."""
        ca, cb = self.clocks[a], self.clocks[b]
        return ca != cb and all(x <= y for x, y in zip(ca, cb))

    def concurrent(self, a: int, b: int) -> bool:
        """True when neither event causally precedes the other."""
        return (a != b and not self.happens_before(a, b)
                and not self.happens_before(b, a))

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-ready shape facts (used by ``repro causal --json``)."""
        kinds: Dict[str, int] = {}
        for edge in self.edges:
            kinds[edge.kind] = kinds.get(edge.kind, 0) + 1
        return {
            "schema": CAUSALITY_SCHEMA,
            "events": len(self.events),
            "edges": len(self.edges),
            "edge_kinds": {k: kinds[k] for k in sorted(kinds)},
            "processes": len(self.component_of) - 1,
        }


def build_hb_graph(trace: Iterable[Event]) -> HBGraph:
    """Derive the happens-before graph (with vector clocks) from a trace."""
    events = list(trace)
    by_pid = _own_events(events)
    name_to_pid: Dict[str, int] = {}
    for ev in events:
        if ev.pid >= 0 and ev.pname not in name_to_pid:
            name_to_pid[ev.pname] = ev.pid

    edges: List[HBEdge] = []
    # Program order.
    for pid, own in sorted(by_pid.items()):
        for prev, nxt in zip(own, own[1:]):
            edges.append(HBEdge(prev.seq, nxt.seq, "program"))

    def next_own_after(pid: int, seq: int) -> Optional[Event]:
        own = by_pid.get(pid, [])
        lo, hi = 0, len(own)
        while lo < hi:
            mid = (lo + hi) // 2
            if own[mid].seq <= seq:
                lo = mid + 1
            else:
                hi = mid
        return own[lo] if lo < len(own) else None

    # Wakeups (the cross-process skeleton).
    for wake in wake_records(events):
        target = next_own_after(wake.woken_pid, wake.seq)
        if target is None:
            continue
        edges.append(HBEdge(wake.seq, target.seq, wake.kind, wake.reason))
    # Spawn delivery: the spawn event is attributed to the child itself
    # (its first own event), so program order already covers it; a spawn
    # performed *by* a running parent interleaves in the parent's program
    # order.  Nothing further to add — documented for graph readers.

    # Vector clocks: one component per process, component 0 = scheduler.
    component_of: Dict[int, int] = {-1: 0}
    for rank, pid in enumerate(sorted(by_pid), start=1):
        component_of[pid] = rank
    width = len(component_of)
    preds: Dict[int, List[HBEdge]] = {}
    for edge in edges:
        preds.setdefault(edge.dst, []).append(edge)
    clocks: Dict[int, Tuple[int, ...]] = {}
    for ev in events:  # seq order = a topological order (edges go forward)
        clock = [0] * width
        for edge in preds.get(ev.seq, []):
            other = clocks.get(edge.src)
            if other is not None:
                for i, value in enumerate(other):
                    if value > clock[i]:
                        clock[i] = value
        me = component_of.get(ev.pid, 0)
        clock[me] += 1
        clocks[ev.seq] = tuple(clock)
    return HBGraph(events, edges, clocks, component_of)
