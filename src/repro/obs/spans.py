"""Span folding: turn a flat :class:`~repro.runtime.trace.Trace` into
intervals.

The trace records *instants* (``blocked``, ``enter``, ``op_start``...); most
questions about behaviour are about *durations* — how long was P blocked on
the condition, who occupied the monitor between seq 40 and 55, how long did
a request sit in the serializer queue.  :func:`fold_spans` reconstructs those
intervals from the uniform event vocabulary alone, so it works on any trace:
a live run, a JSON re-import, or the hand-written sequences in the golden
tests.

Span kinds produced:

========== ===================================================================
kind       meaning
========== ===================================================================
blocked    the process was parked (obj = what it waited on)
possession it held a monitor / serializer / region / mutex (obj = the label);
           a possession suspended by ``wait`` / ``join_crowd`` / a Hoare
           signal and later resumed yields one span per held segment
queue      residency in a named waiter queue: serializer ``enqueue`` from
           ``wait`` to ``proceed``, monitor condition from ``wait`` to its
           ``signal`` — this can exceed the blocked interval (e.g. a
           guarantee that is already true) or end before the wakeup
crowd      serializer crowd membership (resource in use, T4 occupancy)
op_queue   operation latency, request half: ``request`` → ``op_start``
service    operation latency, service half: ``op_start`` → ``op_end``
========== ===================================================================

Outcomes: ``ok`` (closed normally), ``timeout`` (closed by a timed wait
expiring), ``crashed`` (the process was killed / the op aborted while the
span was open — a crash must close spans, never leak them), ``leaked``
(still open when the trace ended: a genuine diagnostic, e.g. a deadlocked
waiter).

Possession bookkeeping follows each mechanism's transfer semantics: a
monitor ``wait`` or serializer ``enqueue``/``join_crowd`` *suspends* the
caller's possession (recording what it is suspended on), and the possession
resumes at the matching ``signal`` handoff / ``proceed`` / ``leave_crowd`` /
wakeup — so a process that blocks on something unrelated while inside a
crowd does not spuriously reclaim possession.

The seq axis is the span clock: virtual time only advances at timer jumps,
so ``seq`` (the total event order) is the meaningful interval measure; both
are recorded on every span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime.trace import OP_KINDS, Event, OpFold

#: possession-opening kinds and their closing counterparts.
_POSSESS_OPEN = {"enter": "leave", "acquire": "release"}


@dataclass
class Span:
    """One reconstructed interval (see module docstring for kinds)."""

    kind: str
    pid: int
    pname: str
    obj: str
    start_seq: int
    end_seq: int = -1
    start_time: int = 0
    end_time: int = 0
    outcome: str = "ok"
    detail: str = ""

    @property
    def duration(self) -> int:
        """Span length on the seq axis (the meaningful clock; see module
        docstring)."""
        return self.end_seq - self.start_seq

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pid": self.pid,
            "pname": self.pname,
            "obj": self.obj,
            "start_seq": self.start_seq,
            "end_seq": self.end_seq,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "outcome": self.outcome,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output (JSONL re-import);
        ``duration`` is derived, not stored."""
        return cls(
            kind=data["kind"],
            pid=data["pid"],
            pname=data["pname"],
            obj=data["obj"],
            start_seq=data["start_seq"],
            end_seq=data["end_seq"],
            start_time=data.get("start_time", 0),
            end_time=data.get("end_time", 0),
            outcome=data.get("outcome", "ok"),
            detail=data.get("detail", ""),
        )


@dataclass
class _Possession:
    span: Span
    #: what the holder is waiting on while possession is released
    #: (condition / queue / crowd / the construct itself), or ``None``
    #: while actually held.
    suspended_on: Optional[str] = None


class _ProcState:
    """Per-process folding state."""

    def __init__(self) -> None:
        self.blocked: Optional[Span] = None
        self.queue: Optional[Span] = None
        #: stack of possessions, innermost last.
        self.possessions: List[_Possession] = []
        #: open crowd spans by crowd name.
        self.crowds: Dict[str, Span] = {}


def fold_spans(trace: Iterable[Event]) -> List[Span]:
    """Fold a trace (or any event iterable, e.g. a golden test's hand-written
    list) into closed :class:`Span` intervals, ordered by ``start_seq``."""
    spans: List[Span] = []
    procs: Dict[str, _ProcState] = {}
    #: request→op_start→op_end pairing; the op spans are read off it at the
    #: end of the trace.
    ops = OpFold()
    last_seq = 0
    last_time = 0

    def state_of(name: str, pid: int = -1) -> _ProcState:
        return procs.setdefault(name, _ProcState())

    def close(span: Span, ev: Event, outcome: str = "ok",
              detail: str = "") -> None:
        span.end_seq = ev.seq
        span.end_time = ev.time
        if outcome != "ok":
            span.outcome = outcome
        if detail:
            span.detail = (span.detail + " " + detail).strip()
        spans.append(span)

    def suspend_top(st: _ProcState, ev: Event, waiting_on: str) -> None:
        """Close the innermost held possession segment; remember what it
        is suspended on so only the matching handback resumes it."""
        if not st.possessions or st.possessions[-1].suspended_on is not None:
            return
        top = st.possessions[-1]
        close(top.span, ev, detail="suspended")
        top.span = Span(
            "possession", top.span.pid, top.span.pname, top.span.obj,
            ev.seq, start_time=ev.time, detail="resumed",
        )
        top.suspended_on = waiting_on

    def resume_top(st: _ProcState, ev: Event, waiting_on: str) -> None:
        """Re-open the innermost suspended possession if it was suspended on
        ``waiting_on``."""
        if not st.possessions:
            return
        top = st.possessions[-1]
        if top.suspended_on != waiting_on:
            return
        top.suspended_on = None
        top.span.start_seq = ev.seq
        top.span.start_time = ev.time

    for ev in trace:
        last_seq = max(last_seq, ev.seq)
        last_time = max(last_time, ev.time)
        kind = ev.kind
        if kind in OP_KINDS:
            ops.feed(ev)

        if kind == "blocked":
            st = state_of(ev.pname)
            st.blocked = Span("blocked", ev.pid, ev.pname, ev.obj,
                              ev.seq, start_time=ev.time)
            # A Hoare signaller parking on the urgent stack waits on the very
            # object it possesses: suspend that possession.
            if (st.possessions
                    and st.possessions[-1].suspended_on is None
                    and st.possessions[-1].span.obj == ev.obj):
                suspend_top(st, ev, ev.obj)

        elif kind == "unblocked":
            # Logged with obj = the woken process's name (the waker or the
            # timer attributes the event; the *woken* process is ev.obj).
            target = procs.get(ev.obj)
            if target is not None and target.blocked is not None:
                waited_on = target.blocked.obj
                close(target.blocked, ev)
                target.blocked = None
                # The wakeup hands a suspended possession back when the park
                # was on the thing the possession is suspended on (monitor
                # urgent / Mesa re-entry / condition timeout re-entry /
                # serializer queue grant).
                resume_top(target, ev, waited_on)

        elif kind == "timeout":
            st = state_of(ev.pname)
            if st.blocked is not None:
                st.blocked.outcome = "timeout"
            if st.queue is not None:
                close(st.queue, ev, outcome="timeout")
                st.queue = None

        elif kind == "wait":
            # Monitor condition wait or serializer enqueue: possession is
            # released until the construct hands it back; queue residency
            # starts now.
            st = state_of(ev.pname)
            suspend_top(st, ev, ev.obj)
            st.queue = Span("queue", ev.pid, ev.pname, ev.obj,
                            ev.seq, start_time=ev.time)

        elif kind == "proceed":
            st = state_of(ev.pname)
            if st.queue is not None and st.queue.obj == ev.obj:
                close(st.queue, ev)
                st.queue = None
            # Immediate grant ("proceed immediate"): possession came back
            # without a park, so no "unblocked" will resume it.
            resume_top(st, ev, ev.obj)

        elif kind == "signal":
            # Hoare handoff: possession and queue residency of the signalled
            # process transfer at signal time.
            detail = ev.detail if isinstance(ev.detail, str) else ""
            if detail.startswith("wake:"):
                woken = procs.get(detail[len("wake:"):])
                if woken is not None:
                    if (woken.queue is not None
                            and woken.queue.obj == ev.obj):
                        close(woken.queue, ev)
                        woken.queue = None
                    resume_top(woken, ev, ev.obj)

        elif kind in _POSSESS_OPEN:
            st = state_of(ev.pname)
            st.possessions.append(_Possession(Span(
                "possession", ev.pid, ev.pname, ev.obj,
                ev.seq, start_time=ev.time,
            )))

        elif kind in ("leave", "release"):
            st = state_of(ev.pname)
            crashed = isinstance(ev.detail, str) and "crash" in ev.detail
            for index in range(len(st.possessions) - 1, -1, -1):
                possession = st.possessions[index]
                if possession.span.obj == ev.obj:
                    del st.possessions[index]
                    if possession.suspended_on is None:
                        close(possession.span, ev,
                              outcome="crashed" if crashed else "ok")
                    break

        elif kind == "join_crowd":
            st = state_of(ev.pname)
            suspend_top(st, ev, ev.obj)
            st.crowds[ev.obj] = Span("crowd", ev.pid, ev.pname, ev.obj,
                                     ev.seq, start_time=ev.time)

        elif kind == "leave_crowd":
            st = state_of(ev.pname)
            crashed = isinstance(ev.detail, str) and "crash" in ev.detail
            crowd = st.crowds.pop(ev.obj, None)
            if crowd is not None:
                close(crowd, ev, outcome="crashed" if crashed else "ok")
            if not crashed:
                # leave_crowd logs after possession was re-acquired; resume
                # covers the synchronous-grant path (the parked path already
                # resumed at its "unblocked").
                resume_top(st, ev, ev.obj)

        elif kind in ("killed", "failed"):
            # kill/failure events carry the victim's name in obj; close every
            # open span of the victim with the crashed marker, never leak.
            victim = procs.get(ev.obj)
            if victim is not None:
                _close_all(victim, ev, spans, outcome="crashed")

    # End of trace: anything still open leaked (deadlocked waiters, daemons
    # parked forever) — closed at the final seq so exporters can draw them.
    end = Event(last_seq, last_time, -1, "<end>", "end")
    for st in procs.values():
        _close_all(st, end, spans, outcome="leaked")
    for op in ops.ops:
        if op.request is not None:
            served = op.start is not None
            spans.append(_op_span("op_queue", op.request,
                                  op.start if served else op.end,
                                  "ok" if served else "crashed", end))
        if op.start is not None:
            spans.append(_op_span("service", op.start, op.end,
                                  "ok" if op.completed else "crashed", end))
    spans.sort(key=lambda s: (s.start_seq, s.end_seq, s.pid))
    return spans


def _close_all(st: _ProcState, ev: Event, spans: List[Span],
               outcome: str) -> None:
    """Close every open span of one process with the given outcome."""

    def close(span: Span) -> None:
        span.end_seq = ev.seq
        span.end_time = ev.time
        span.outcome = outcome
        spans.append(span)

    if st.blocked is not None:
        close(st.blocked)
        st.blocked = None
    if st.queue is not None:
        close(st.queue)
        st.queue = None
    while st.possessions:
        possession = st.possessions.pop()
        if possession.suspended_on is None:
            close(possession.span)
    for crowd in st.crowds.values():
        close(crowd)
    st.crowds.clear()


def _op_span(kind: str, opener: Event, closer: Optional[Event],
             outcome: str, end: Event) -> Span:
    """One half of an op's latency: ``opener`` to ``closer`` with
    ``outcome``, or leaked at ``end`` when nothing closed it."""
    if closer is None:
        closer, outcome = end, "leaked"
    return Span(kind, opener.pid, opener.pname, opener.obj, opener.seq,
                closer.seq, opener.time, closer.time, outcome)


# ----------------------------------------------------------------------
# Queries over folded spans
# ----------------------------------------------------------------------
def spans_by_kind(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    """Group spans by kind."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.kind, []).append(span)
    return grouped


def blocked_time_by_object(spans: Iterable[Span]) -> Dict[str, int]:
    """Total blocked duration (seq units) per waited-on object."""
    totals: Dict[str, int] = {}
    for span in spans:
        if span.kind == "blocked":
            totals[span.obj] = totals.get(span.obj, 0) + span.duration
    return totals


def max_concurrent(spans: Iterable[Span], kind: str,
                   obj: Optional[str] = None) -> Dict[str, int]:
    """Per object: the maximum number of simultaneously open spans of
    ``kind`` — e.g. ``kind="blocked"`` gives the deepest wait queue each
    object ever accumulated (a sweep over span endpoints)."""
    edges: Dict[str, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.kind != kind or (obj is not None and span.obj != obj):
            continue
        edges.setdefault(span.obj, []).append((span.start_seq, 1))
        edges.setdefault(span.obj, []).append((span.end_seq, -1))
    peaks: Dict[str, int] = {}
    for name, points in edges.items():
        depth = peak = 0
        # Close (-1) before open (+1) at the same seq: handoff, not overlap.
        for __, delta in sorted(points, key=lambda p: (p[0], p[1])):
            depth += delta
            peak = max(peak, depth)
        peaks[name] = peak
    return peaks
