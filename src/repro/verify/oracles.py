"""Trace oracles: machine-checkable forms of the paper's correctness claims.

Every oracle takes a :class:`~repro.runtime.trace.Trace` and returns a list
of violation strings (empty = property holds).  They rely on the uniform
event vocabulary: ``request`` (operation asked for), ``op_start`` /
``op_end`` (operation executing), plus problem-specific ``serve`` /
``wakeme`` / ``wake`` events.

Two readers/writers priority oracles are provided deliberately (see
DESIGN.md E5 discussion):

* :func:`check_no_overtake` — arrival-order based, robust under any
  schedule; suited to randomized property tests.
* :func:`check_readers_priority_strict` — the Courtois–Heymans–Parnas
  condition itself ("no writer starts while a read request is pending"),
  used on *scripted* schedules where request/queue timing is controlled.
  This is the oracle that exposes the paper's footnote-3 anomaly in the
  Figure-1 path-expression solution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..runtime.trace import Event, OpFold, Trace


def _full(resource: str, op: str) -> str:
    return "{}.{}".format(resource, op)


# ----------------------------------------------------------------------
# Exclusion
# ----------------------------------------------------------------------
def check_mutual_exclusion(
    trace: Trace,
    resource: str,
    exclusive_ops: Iterable[str],
    shared_ops: Iterable[str] = (),
) -> List[str]:
    """``rw_exclusion``-style safety: an exclusive op overlaps nothing;
    shared ops may overlap each other but not exclusive ops."""
    exclusive = {_full(resource, op) for op in exclusive_ops}
    shared = {_full(resource, op) for op in shared_ops}
    watched = exclusive | shared
    active_exclusive: Set[Tuple[int, str]] = set()
    active_shared: Set[Tuple[int, str]] = set()
    violations: List[str] = []
    for ev in trace.filter(kind="op_start|op_end",
                           predicate=lambda ev: ev.obj in watched):
        key = (ev.pid, ev.obj)
        if ev.kind == "op_start":
            if ev.obj in exclusive:
                if active_exclusive or active_shared:
                    violations.append(
                        "seq {}: exclusive {} by {} started while {} active".format(
                            ev.seq,
                            ev.obj,
                            ev.pname,
                            sorted(o for __, o in active_exclusive | active_shared),
                        )
                    )
                active_exclusive.add(key)
            else:
                if active_exclusive:
                    violations.append(
                        "seq {}: shared {} by {} started during exclusive {}".format(
                            ev.seq,
                            ev.obj,
                            ev.pname,
                            sorted(o for __, o in active_exclusive),
                        )
                    )
                active_shared.add(key)
        else:
            active_exclusive.discard(key)
            active_shared.discard(key)
    return violations


def check_single_occupancy(
    trace: Trace, resource: str, ops: Iterable[str]
) -> List[str]:
    """``resource_mutex``: at most one of the given ops in progress at once."""
    return check_mutual_exclusion(trace, resource, exclusive_ops=ops)


# ----------------------------------------------------------------------
# Ordering / priority
# ----------------------------------------------------------------------
def check_fcfs(
    trace: Trace, resource: str, ops: Iterable[str]
) -> List[str]:
    """``arrival_order``: operations start in the order they were requested.

    Requests and starts are paired by :class:`~repro.runtime.trace.OpFold`,
    so a process may issue several requests.
    """
    fold = OpFold(_full(resource, op) for op in ops).fold(trace)
    violations: List[str] = []
    # FCFS: taken in request order, the starts must already be in seq order.
    last_start = -1
    for op in fold.ops:
        req, start = op.request, op.start
        if req is None or start is None:
            continue  # request never served (blocked at end of run)
        if start.seq < last_start:
            violations.append(
                "seq {}: {} by {} requested earlier but started later "
                "(FCFS violated)".format(req.seq, req.obj, req.pname)
            )
        last_start = max(last_start, start.seq)
    return violations


def check_no_overtake(
    trace: Trace,
    resource: str,
    preferred_op: str,
    deferred_op: str,
) -> List[str]:
    """Weak priority: no ``deferred_op`` that was *requested after* a
    ``preferred_op`` request may start before it.

    Schedule-robust: holds for every correct priority solution regardless of
    entry-queue races, so it is the oracle used under randomized schedules.
    """
    preferred_obj = _full(resource, preferred_op)
    deferred_obj = _full(resource, deferred_op)
    fold = OpFold((preferred_obj, deferred_obj)).fold(trace)
    requested = [op for op in fold.ops if op.request is not None]
    violations: List[str] = []
    for op in requested:
        req, start = op.request, op.start
        if op.obj != deferred_obj or start is None:
            continue
        for p_op in requested:
            p_req, p_start = p_op.request, p_op.start
            if p_op.obj == preferred_obj and p_req.seq < req.seq and (
                p_start is None or p_start.seq > start.seq
            ):
                violations.append(
                    "seq {}: {} by {} (requested seq {}) started before "
                    "earlier-requested {} by {} (seq {})".format(
                        start.seq, req.obj, req.pname, req.seq,
                        p_req.obj, p_req.pname, p_req.seq))
    return violations


def check_readers_priority_strict(trace: Trace, resource: str) -> List[str]:
    """The Courtois–Heymans–Parnas readers-priority condition: a write may
    start only when **no read request is pending** (requested but not yet
    started).  Exposes the footnote-3 anomaly on scripted schedules."""
    return _strict_priority(trace, resource, "read", "write")


def check_writers_priority_strict(trace: Trace, resource: str) -> List[str]:
    """Mirror image: a read may start only when no write request is pending."""
    return _strict_priority(trace, resource, "write", "read")


def _strict_priority(
    trace: Trace, resource: str, preferred_op: str, deferred_op: str
) -> List[str]:
    preferred_obj = _full(resource, preferred_op)
    deferred_obj = _full(resource, deferred_op)
    fold = OpFold((preferred_obj, deferred_obj)).fold(trace)
    preferred = [op for op in fold.ops if op.obj == preferred_obj]
    violations: List[str] = []
    for op in fold.started:
        if op.obj != deferred_obj:
            continue
        ev = op.start
        waiting = [p.request.seq for p in preferred if p.pending_at(ev.seq)]
        if waiting:
            violations.append(
                "seq {}: {} by {} started while {} request(s) "
                "pending since seq {}".format(
                    ev.seq, ev.obj, ev.pname, preferred_op, min(waiting)))
    return violations


def check_alternation(trace: Trace, resource: str) -> List[str]:
    """``slot_alternation``: starts strictly alternate put/get/put…"""
    objects = {_full(resource, "put"): "put", _full(resource, "get"): "get"}
    expected = "put"
    violations: List[str] = []
    for ev in trace.filter(kind="op_start",
                           predicate=lambda ev: ev.obj in objects):
        op = objects[ev.obj]
        if op != expected:
            violations.append(
                "seq {}: expected {} but {} started (alternation broken)".format(
                    ev.seq, expected, op
                )
            )
            # resynchronize to keep reports readable
            expected = op
        expected = "get" if expected == "put" else "put"
    return violations


# ----------------------------------------------------------------------
# Parameter-based disciplines
# ----------------------------------------------------------------------
def check_scan_order(trace: Trace, resource: str = "disk") -> List[str]:
    """Elevator discipline: every ``serve`` event must pick, from the
    requests pending at that moment, the nearest track in the current sweep
    direction (upward first from track 0, where every disk's head starts,
    reversing at the extremes).

    Requests are ``request`` events whose detail carries the track (either
    the bare int or an args tuple); services are ``serve`` events with the
    track in ``detail``.
    """

    def track_of(ev: Event) -> int:
        detail = ev.detail
        if isinstance(detail, tuple):
            detail = detail[0]
        return int(detail)

    pending: List[int] = []
    head = 0
    direction_up = True
    violations: List[str] = []
    # Only the bare-resource parameter stream counts: "<resource>.<op>"
    # request events are the generic op-pairing stream and would double-
    # count tracks.
    for ev in trace.filter(obj=resource):
        if ev.kind == "request" and ev.detail is not None:
            pending.append(track_of(ev))
        elif ev.kind == "serve":
            served = track_of(ev)
            if served not in pending:
                violations.append(
                    "seq {}: served track {} never requested".format(
                        ev.seq, served
                    )
                )
                continue
            ahead = sorted(t for t in pending if t >= head)
            behind = sorted((t for t in pending if t <= head), reverse=True)
            if direction_up:
                expected = ahead[0] if ahead else (behind[0] if behind else None)
                if not ahead:
                    direction_up = False
            else:
                expected = behind[0] if behind else (ahead[0] if ahead else None)
                if not behind:
                    direction_up = True
            if expected is not None and served != expected:
                violations.append(
                    "seq {}: served track {} but elevator order expects {} "
                    "(head={}, pending={})".format(
                        ev.seq, served, expected, head, sorted(pending)
                    )
                )
            pending.remove(served)
            head = served
    return violations


def check_alarm_wakeups(
    trace: Trace, resource: str = "alarm"
) -> List[str]:
    """Alarm-clock discipline: every ``wake`` happens exactly when the
    virtual clock reaches request time + requested delay (ticker period 1).

    Requests are ``wakeme`` events with the delay in ``detail``; completions
    are ``wake`` events from the same process.
    """
    deadlines: Dict[int, List[int]] = {}
    violations: List[str] = []
    for ev in trace.filter(kind="wakeme|wake", obj=resource):
        if ev.kind == "wakeme":
            delay = ev.detail if not isinstance(ev.detail, tuple) else ev.detail[0]
            deadlines.setdefault(ev.pid, []).append(ev.time + int(delay))
        elif ev.kind == "wake":
            queue = deadlines.get(ev.pid)
            if not queue:
                violations.append(
                    "seq {}: {} woke without a wakeme".format(ev.seq, ev.pname)
                )
                continue
            deadline = queue.pop(0)
            if ev.time < deadline:
                violations.append(
                    "seq {}: {} woke at t={} before its deadline t={}".format(
                        ev.seq, ev.pname, ev.time, deadline
                    )
                )
            elif ev.time > deadline:
                violations.append(
                    "seq {}: {} woke at t={} after its deadline t={} "
                    "(missed ticks)".format(ev.seq, ev.pname, ev.time, deadline)
                )
    return violations


def check_class_priority_two_stage(
    trace: Trace,
    resource: str,
    high_op: str,
    low_op: str,
) -> List[str]:
    """The E8 (staged queue) discipline: among *pending* requests when the
    resource is granted, any high-class request beats every low-class one,
    and FCFS holds within each class.

    Grants are ``op_start`` events of either op; pendings are ``request``
    events not yet started.
    """
    high_obj = _full(resource, high_op)
    low_obj = _full(resource, low_op)
    fold = OpFold((high_obj, low_obj)).fold(trace)
    requested = [op for op in fold.ops if op.request is not None]
    violations: List[str] = []
    for op in fold.started:
        if op.request is None:
            continue
        ev = op.start
        if ev.obj == low_obj:
            highs = [r.request.seq for r in requested
                     if r.obj == high_obj and r.pending_at(ev.seq)]
            if highs:
                violations.append(
                    "seq {}: low-class {} served while high-class "
                    "pending since seq {}".format(ev.seq, ev.pname, min(highs))
                )
        if any(r.obj == ev.obj and r.request.seq < op.request.seq
               and r.pending_at(ev.seq) for r in requested):
            violations.append(
                "seq {}: {} served out of FCFS order within its class".format(
                    ev.seq, ev.pname
                )
            )
    return violations
