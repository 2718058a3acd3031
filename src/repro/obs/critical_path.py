"""Critical-path extraction and what-if (virtual-speedup) analysis.

Given a trace, :func:`compute_critical_path` walks **backward** from the
last event, following the waker chain :mod:`repro.obs.causality` recovers:

* while the cursor process was *running*, the elapsed ticks are a ``run``
  segment on the path;
* when the cursor process had been *woken* from a wait, the whole blocked
  window becomes a ``blocked`` segment attributed to the wait's constraint
  kind (exclusion vs priority) and information types (T1–T6, DESIGN.md §8
  and §10), and the walk jumps to the **waker** at the moment the wait
  began — "before P could proceed, it waited on X; X was released by W;
  before that, W was ...";
* timer waits (sleeps, timed-park expiries) become ``timer`` segments —
  virtual time itself was the cause;
* ticks before the cursor process's first event are a ``startup`` segment.

The segments tile the makespan exactly — every tick of ``[first_seq,
last_seq]`` belongs to exactly one segment — which is the conservation
property the tests assert: **critical-path tick totals plus off-path slack
equal the makespan** (slack is computed independently by interval
subtraction and is zero when the walk is sound).  All durations are on the
``seq`` axis, the meaningful clock of this discrete-event runtime.

What-if speedups are causal-profiling style upper-bound estimates: "if
``nonempty`` were signalled ``d`` ticks earlier each time it appears on
the path, the makespan would drop by at most ``sum(min(d, wait))``."

Everything here is computed post-hoc from the trace — nothing runs in the
scheduler hot path, so the E15 null-sink overhead bound is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..runtime.trace import Event, RunResult
from .causality import Wake, classify_wait, wake_records, CAUSALITY_SCHEMA


@dataclass(frozen=True)
class Segment:
    """One critical-path interval (see module docstring for kinds)."""

    start_seq: int
    end_seq: int
    pid: int
    pname: str
    kind: str  # "run" | "blocked" | "timer" | "startup"
    obj: str = ""
    reason: str = ""
    constraint: str = ""
    info_types: Tuple[str, ...] = ()

    @property
    def duration(self) -> int:
        return self.end_seq - self.start_seq

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_seq": self.start_seq,
            "end_seq": self.end_seq,
            "duration": self.duration,
            "pid": self.pid,
            "pname": self.pname,
            "kind": self.kind,
            "obj": self.obj,
            "reason": self.reason,
            "constraint": self.constraint,
            "info_types": list(self.info_types),
        }


@dataclass
class CriticalPathReport:
    """The extracted path plus every derived attribution."""

    segments: List[Segment]  # forward (seq) order
    start_seq: int
    end_seq: int

    @property
    def makespan(self) -> int:
        return self.end_seq - self.start_seq

    @property
    def path_ticks(self) -> int:
        return sum(seg.duration for seg in self.segments)

    @property
    def slack(self) -> int:
        """Ticks of the makespan *not* covered by any path segment,
        computed independently by interval union — the conservation
        counterweight (zero when the walk is sound)."""
        covered = 0
        cursor = self.start_seq
        for seg in sorted(self.segments, key=lambda s: s.start_seq):
            lo = max(seg.start_seq, cursor)
            hi = max(seg.end_seq, cursor)
            covered += hi - lo
            cursor = max(cursor, seg.end_seq)
        return self.makespan - covered

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def ticks_by(self, key) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for seg in self.segments:
            name = key(seg)
            if name is None:
                continue
            totals[name] = totals.get(name, 0) + seg.duration
        return totals

    def constraint_ticks(self) -> Dict[str, int]:
        """Path ticks per constraint kind; running time under ``"run"``."""
        return self.ticks_by(
            lambda seg: seg.constraint if seg.kind in ("blocked", "timer")
            else seg.kind)

    def info_type_ticks(self) -> Dict[str, int]:
        """Blocked path ticks per information type (a wait consulting two
        types counts toward both — shares, not a partition)."""
        totals: Dict[str, int] = {}
        for seg in self.segments:
            for t in seg.info_types:
                totals[t] = totals.get(t, 0) + seg.duration
        return totals

    def blocked_ticks_by_object(self) -> Dict[str, int]:
        return self.ticks_by(
            lambda seg: seg.obj if seg.kind in ("blocked", "timer") else None)

    def per_process(self) -> Dict[str, Dict[str, int]]:
        """Per process: on-path ticks and off-path slack
        (``on_path + slack == makespan`` for every process)."""
        on_path: Dict[str, int] = {}
        for seg in self.segments:
            name = seg.pname if seg.pid >= 0 else "<sched>"
            on_path[name] = on_path.get(name, 0) + seg.duration
        return {
            name: {"on_path": ticks, "slack": self.makespan - ticks}
            for name, ticks in sorted(on_path.items())
        }

    # ------------------------------------------------------------------
    # What-if virtual speedups (causal-profiling style)
    # ------------------------------------------------------------------
    def virtual_speedups(self) -> Dict[str, Dict[str, int]]:
        """Per waited-on object: the estimated makespan reduction if every
        on-path wait on it resolved one tick sooner, plus the upper bound
        (the wait vanishing entirely).  Estimates, not exact
        re-simulations: shortening one chain can expose another."""
        out: Dict[str, Dict[str, int]] = {}
        for seg in self.segments:
            if seg.kind not in ("blocked", "timer") or not seg.obj:
                continue
            entry = out.setdefault(seg.obj, {"earlier_by": 1,
                                             "saved": 0, "bound": 0})
            entry["saved"] += min(1, seg.duration)
            entry["bound"] += seg.duration
        return {obj: out[obj] for obj in sorted(out)}

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CAUSALITY_SCHEMA,
            "start_seq": self.start_seq,
            "end_seq": self.end_seq,
            "makespan": self.makespan,
            "path_ticks": self.path_ticks,
            "slack": self.slack,
            "segments": [seg.to_dict() for seg in self.segments],
            "constraint_ticks": dict(sorted(self.constraint_ticks().items())),
            "info_type_ticks": dict(sorted(self.info_type_ticks().items())),
            "blocked_by_object": dict(
                sorted(self.blocked_ticks_by_object().items())),
            "per_process": self.per_process(),
            "speedups": self.virtual_speedups(),
        }

    def render(self, label: str = "") -> str:
        """Human-readable critical-path report."""
        lines = [
            "critical path{}: makespan {} ticks (seq {}..{}), "
            "{} segment(s), slack {}".format(
                " " + label if label else "", self.makespan,
                self.start_seq, self.end_seq, len(self.segments),
                self.slack),
        ]
        for seg in self.segments:
            who = seg.pname if seg.pid >= 0 else "<sched>"
            line = "  seq %5d..%5d %5d  %-8s %-12s" % (
                seg.start_seq, seg.end_seq, seg.duration, seg.kind, who)
            if seg.kind in ("blocked", "timer"):
                line += " on %s" % (seg.reason or seg.obj)
                if seg.constraint and seg.constraint != "unknown":
                    line += "  [%s%s]" % (
                        seg.constraint,
                        " " + "+".join(seg.info_types)
                        if seg.info_types else "")
            lines.append(line)
        shares = self.constraint_ticks()
        if shares and self.makespan:
            lines.append("attribution: " + "  ".join(
                "%s %d (%d%%)" % (name, ticks,
                                  100 * ticks // self.makespan)
                for name, ticks in sorted(shares.items(),
                                          key=lambda kv: -kv[1])))
        speedups = self.virtual_speedups()
        tops = sorted(speedups.items(), key=lambda kv: -kv[1]["bound"])[:3]
        for obj, entry in tops:
            lines.append(
                "what-if: {} resolved 1 tick earlier -> makespan -{} "
                "(bound -{})".format(obj, entry["saved"], entry["bound"]))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def compute_critical_path(trace) -> CriticalPathReport:
    """Walk the waker chain backward from the last event (see module
    docstring).  Accepts a :class:`~repro.runtime.trace.Trace`, an event
    list, or a :class:`~repro.runtime.trace.RunResult`."""
    if isinstance(trace, RunResult):
        trace = trace.trace
    events: List[Event] = list(trace)
    if not events:
        return CriticalPathReport([], 0, 0)
    start = events[0].seq
    end = events[-1].seq
    by_pid: Dict[int, List[Event]] = {}
    for ev in events:
        if ev.pid >= 0:
            by_pid.setdefault(ev.pid, []).append(ev)
    names = {pid: own[0].pname for pid, own in by_pid.items()}
    wakes_by_pid: Dict[int, List[Wake]] = {}
    for wake in wake_records(events):
        wakes_by_pid.setdefault(wake.woken_pid, []).append(wake)

    def latest_own(pid: int, seq: int) -> Optional[Event]:
        own = by_pid.get(pid, [])
        lo, hi = 0, len(own)
        while lo < hi:
            mid = (lo + hi) // 2
            if own[mid].seq <= seq:
                lo = mid + 1
            else:
                hi = mid
        return own[lo - 1] if lo else None

    def latest_wake(pid: int, seq: int) -> Optional[Wake]:
        wakes = wakes_by_pid.get(pid, [])
        lo, hi = 0, len(wakes)
        while lo < hi:
            mid = (lo + hi) // 2
            if wakes[mid].seq <= seq:
                lo = mid + 1
            else:
                hi = mid
        return wakes[lo - 1] if lo else None

    def blocked_segment(pid: int, lo: int, hi: int, reason: str,
                        obj: str, timer: bool) -> Segment:
        wc = classify_wait(reason)
        kind = "timer" if timer or wc.category == "timer" else "blocked"
        return Segment(lo, hi, pid, names.get(pid, "P{}".format(pid)),
                       kind, obj=obj, reason=reason,
                       constraint=wc.constraint, info_types=wc.info_types)

    segments: List[Segment] = []
    if not by_pid:
        segments.append(Segment(start, end, -1, "<sched>", "startup"))
        return CriticalPathReport(segments, start, end)

    cur = events[-1].pid
    if cur < 0:
        # Final event is the scheduler's (e.g. a timer log); hand the
        # cursor to the last process that acted.
        for ev in reversed(events):
            if ev.pid >= 0:
                cur = ev.pid
                break
    t = end
    while t > start:
        last = latest_own(cur, t)
        if last is None:
            # Before this process's first event: attribute to startup.
            segments.append(Segment(start, t, -1, "<sched>", "startup"))
            break
        wake = latest_wake(cur, t)
        if (last.kind == "blocked" and last.seq < t
                and (wake is None or wake.seq <= last.seq)):
            # Blocked at t with the wakeup outside the window (truncated
            # wait: deadlocked waiter, or a jump landed mid-wait).
            reason = (last.detail if isinstance(last.detail, str)
                      else last.obj)
            segments.append(blocked_segment(cur, last.seq, t, reason,
                                            last.obj, False))
            t = last.seq
            continue
        if wake is None:
            # Running since its first event.
            first = by_pid[cur][0].seq
            lo = max(first, start)
            if lo < t:
                segments.append(Segment(
                    lo, t, cur, names[cur], "run"))
            if lo > start:
                segments.append(Segment(start, lo, -1, "<sched>", "startup"))
            break
        # Running from the wakeup to t ...
        if wake.seq < t:
            segments.append(Segment(wake.seq, t, cur, names[cur], "run"))
        # ... preceded by the wait the wakeup resolved.
        if wake.blocked_seq < wake.seq:
            segments.append(blocked_segment(
                cur, wake.blocked_seq, wake.seq, wake.reason, wake.obj,
                wake.kind in ("timer", "timeout")))
        t = wake.blocked_seq
        # Follow the waker chain: what was the (eventual) waker doing
        # before this wait began?  Timer wakes stay with the sleeper.
        if (wake.waker_pid >= 0 and wake.waker_pid != cur
                and latest_own(wake.waker_pid, t) is not None):
            cur = wake.waker_pid
    segments.reverse()
    segments.sort(key=lambda seg: (seg.start_seq, seg.end_seq))
    return CriticalPathReport(segments, start, end)


def causal_chain(report: CriticalPathReport) -> List[str]:
    """A compact, human-readable causal story: the last six path
    segments, newest last — used by the explore engine to explain a
    minimized witness."""
    lines: List[str] = []
    for seg in report.segments[-6:]:
        who = seg.pname if seg.pid >= 0 else "<sched>"
        if seg.kind in ("blocked", "timer"):
            lines.append("{} waited {} tick(s) on {} [{}]".format(
                who, seg.duration, seg.reason or seg.obj,
                seg.constraint or seg.kind))
        elif seg.kind == "run":
            lines.append("{} ran {} tick(s)".format(who, seg.duration))
        else:
            lines.append("{} {} tick(s)".format(seg.kind, seg.duration))
    return lines
