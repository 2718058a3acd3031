"""Exporters: Chrome trace-event JSON, JSONL, and ASCII views.

The Chrome export is loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: each simulated process becomes a track (``tid``),
spans become complete events (``ph: "X"``), and kills/timeouts become
instant events.  The seq axis is exported as microseconds — in this
discrete-event runtime seq *is* the clock (virtual time only moves at
timer jumps), so one seq unit = 1 µs renders faithfully proportioned
tracks.

JSONL exports one record per line — first the spans, then the raw events —
for ad-hoc processing with ``jq``/pandas.

The ASCII views need no browser: :func:`ascii_timeline` draws one lane per
process with possession/blocked/queue glyphs on the seq axis, and
:func:`ascii_contention` draws a per-object blocked-time bar chart.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..runtime.trace import Event, Trace
from .spans import Span

#: Perfetto category per span kind (used for filtering in the UI).
_CATEGORIES = {
    "possession": "possession",
    "blocked": "wait",
    "queue": "wait",
    "crowd": "occupancy",
    "op_queue": "latency",
    "service": "latency",
}

#: instant-event kinds worth flagging on the timeline.
_INSTANTS = ("killed", "failed", "timeout", "signal", "advance")

#: network-layer kinds (dist.Network + protocol dedup): rendered on their
#: own "network" track rather than attributed to whichever process happened
#: to be running when the network logged them.
_NETWORK = ("msg_send", "msg_deliver", "msg_drop", "msg_dup", "msg_delay",
            "msg_hold", "msg_dedup", "net_partition", "net_heal")


def chrome_trace(
    spans: Sequence[Span],
    trace: Optional[Trace] = None,
    run_label: str = "repro",
    critical: Optional[Sequence] = None,
    harness: Optional[Any] = None,
) -> Dict[str, Any]:
    """Build the Chrome trace-event dict (``{"traceEvents": [...]}``).

    ``critical`` takes the segments of a
    :class:`~repro.obs.critical_path.CriticalPathReport`: each becomes a
    complete event on a dedicated ``critical path`` track (tid one past
    the largest process id), and every ordinary span that overlaps a
    critical segment gains ``args.critical = True`` so the path is
    highlightable in Perfetto.

    ``harness`` takes a :class:`~repro.obs.harness.HarnessTelemetry`
    (duck-typed): its counter samples become ``ph: "C"`` events
    (schedules/sec, frontier depth, pruning ratio) on a ``harness``
    track.  Caveat: harness timestamps are **wall-clock seconds since the
    telemetry epoch** (exported as µs),
    not the seq axis the mechanism tracks use — meaningful on its own
    (``repro explore --export chrome`` passes empty spans) or as a
    separate clock domain alongside a profiled run.
    """
    events: List[Dict[str, Any]] = []
    seen_tids: Dict[int, str] = {}
    crit_windows = [(seg.start_seq, seg.end_seq) for seg in critical or ()]

    def on_path(lo: int, hi: int) -> bool:
        return any(lo < c_hi and c_lo < hi for c_lo, c_hi in crit_windows)

    for span in spans:
        if span.pid >= 0:
            seen_tids.setdefault(span.pid, span.pname)
        args = {
            "obj": span.obj,
            "outcome": span.outcome,
            "detail": span.detail,
            "start_time": span.start_time,
            "end_time": span.end_time,
        }
        if crit_windows and on_path(span.start_seq, span.end_seq):
            args["critical"] = True
        events.append({
            "name": "%s %s" % (span.kind, span.obj),
            "cat": _CATEGORIES.get(span.kind, span.kind),
            "ph": "X",
            "ts": span.start_seq,
            # Zero-length spans still need visible extent in the UI.
            "dur": max(span.duration, 1),
            "pid": 0,
            "tid": span.pid if span.pid >= 0 else 0,
            "args": args,
        })

    extra_tid = max([span.pid for span in spans if span.pid >= 0],
                    default=-1) + 1
    if trace is not None:
        extra_tid = max(extra_tid,
                        max((ev.pid for ev in trace), default=-1) + 1)
    if critical:
        crit_tid = extra_tid
        extra_tid += 1
        seen_tids.setdefault(crit_tid, "critical path")
        for seg in critical:
            events.append({
                "name": "%s %s" % (seg.kind, seg.obj or seg.pname),
                "cat": "critical",
                "ph": "X",
                "ts": seg.start_seq,
                "dur": max(seg.duration, 1),
                "pid": 0,
                "tid": crit_tid,
                "args": {
                    "pname": seg.pname,
                    "reason": seg.reason,
                    "constraint": seg.constraint,
                    "info_types": list(seg.info_types),
                },
            })

    if trace is not None:
        net_tid = extra_tid
        for ev in trace:
            if ev.kind in _NETWORK:
                # One shared track: a message's send/deliver/drop history
                # reads as a single lane, with the acting process kept in
                # args instead of scattering the story across threads.
                seen_tids.setdefault(net_tid, "network")
                events.append({
                    "name": "%s %s" % (ev.kind, ev.obj),
                    "cat": "network",
                    "ph": "i",
                    "s": "t",
                    "ts": ev.seq,
                    "pid": 0,
                    "tid": net_tid,
                    "args": {"detail": str(ev.detail), "pname": ev.pname},
                })
                continue
            if ev.kind not in _INSTANTS:
                continue
            if ev.pid >= 0:
                seen_tids.setdefault(ev.pid, ev.pname)
            events.append({
                "name": "%s %s" % (ev.kind, ev.obj),
                "cat": "instant",
                "ph": "i",
                "s": "t",
                "ts": ev.seq,
                "pid": 0,
                "tid": ev.pid if ev.pid >= 0 else 0,
                "args": {"detail": str(ev.detail)},
            })

    if harness is not None:
        harness_tid = extra_tid + 1  # past the (possibly unused) net lane
        seen_tids.setdefault(harness_tid, "harness")
        for t, runs, frontier, pruned in harness_counter_samples(harness):
            ts = int(round(t * 1_000_000))
            total = runs + pruned
            for counter, value in (
                ("schedules/sec", round(runs / t, 1) if t > 0 else 0),
                ("frontier depth", frontier),
                ("pruning ratio", round(pruned / total, 4) if total else 0),
            ):
                events.append({
                    "name": counter,
                    "cat": "harness",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "tid": harness_tid,
                    "args": {counter: value},
                })

    metadata: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": run_label},
    }]
    for tid, pname in sorted(seen_tids.items()):
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": pname},
        })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "seq", "source": run_label},
    }


def harness_counter_samples(harness: Any):
    """The telemetry's ``(t, runs, frontier, pruned)`` counter samples,
    skipping the t=0 degenerates (no rate is computable there)."""
    for t, runs, frontier, pruned in getattr(harness, "samples", ()):
        if t <= 0:
            continue
        yield t, runs, frontier, pruned


def write_chrome_trace(
    path: str,
    spans: Sequence[Span],
    trace: Optional[Trace] = None,
    run_label: str = "repro",
    critical: Optional[Sequence] = None,
    harness: Optional[Any] = None,
) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, trace, run_label, critical=critical,
                               harness=harness),
                  fh, indent=1)


def jsonl_lines(
    spans: Sequence[Span],
    trace: Optional[Trace] = None,
    harness: Optional[Any] = None,
) -> Iterable[str]:
    """One JSON record per line: spans first, then raw events, then (when
    ``harness`` is given) one ``counter`` record per telemetry sample."""
    for span in spans:
        record = span.to_dict()
        record["record"] = "span"
        yield json.dumps(record, default=str)
    if trace is not None:
        for ev in trace:
            record = ev.to_dict()
            record["record"] = "event"
            yield json.dumps(record, default=str)
    if harness is not None:
        for t, runs, frontier, pruned in harness_counter_samples(harness):
            total = runs + pruned
            yield json.dumps({
                "record": "counter",
                "t": round(t, 6),
                "runs": runs,
                "frontier": frontier,
                "pruned": pruned,
                "schedules_per_sec": round(runs / t, 1),
                "pruning_ratio": round(pruned / total, 4) if total else 0.0,
            })


def parse_jsonl(lines: Iterable[str], with_counters: bool = False):
    """Inverse of :func:`jsonl_lines`: rebuild ``(spans, events)`` — or
    ``(spans, events, counters)`` with ``with_counters=True``, where
    counters are the harness telemetry sample dicts (back-compat: the
    default stays a 2-tuple and silently drops counter records).

    Round-trips exactly for JSON-representable details; a detail that was
    stringified on export stays a string (the exporter's ``default=str``
    is lossy by design).
    """
    from ..runtime.trace import Event

    spans: List[Span] = []
    events: List[Event] = []
    counters: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        what = record.pop("record", "span")
        if what == "span":
            spans.append(Span.from_dict(record))
        elif what == "counter":
            counters.append(record)
        else:
            events.append(Event.from_dict(record))
    if with_counters:
        return spans, events, counters
    return spans, events


def write_jsonl(
    path: str,
    spans: Sequence[Span],
    trace: Optional[Trace] = None,
    harness: Optional[Any] = None,
) -> None:
    with open(path, "w") as fh:
        for line in jsonl_lines(spans, trace, harness=harness):
            fh.write(line + "\n")


# ----------------------------------------------------------------------
# ASCII views
# ----------------------------------------------------------------------
_GLYPHS = {"possession": "#", "blocked": ".", "queue": "~",
           "crowd": "=", "service": "#", "op_queue": "."}
#: which kinds share a lane, in paint order (later overpaints earlier).
_LANE_ORDER = ("op_queue", "queue", "blocked", "crowd",
               "service", "possession")


def ascii_timeline(spans: Sequence[Span], width: int = 72) -> str:
    """One lane per process: ``#`` held/serving, ``.`` blocked,
    ``~`` in queue, ``=`` in crowd, scaled onto ``width`` columns of the
    seq axis."""
    drawable = [s for s in spans if s.pid >= 0 and s.kind in _GLYPHS]
    if not drawable:
        return "(no spans)"
    lo = min(s.start_seq for s in drawable)
    hi = max(max(s.end_seq, s.start_seq + 1) for s in drawable)
    span_range = max(hi - lo, 1)

    def col(seq: int) -> int:
        return min(width - 1, (seq - lo) * width // span_range)

    order = {kind: rank for rank, kind in enumerate(_LANE_ORDER)}
    by_proc: Dict[int, List[Span]] = {}
    names: Dict[int, str] = {}
    for span in drawable:
        by_proc.setdefault(span.pid, []).append(span)
        names.setdefault(span.pid, span.pname)

    label_width = max(len(n) for n in names.values())
    lines = ["%s  seq %d..%d  (# held  . blocked  ~ queued  = crowd)"
             % (" " * label_width, lo, hi)]
    for pid in sorted(by_proc):
        lane = [" "] * width
        for span in sorted(by_proc[pid],
                           key=lambda s: order.get(s.kind, 0)):
            glyph = _GLYPHS[span.kind]
            start = col(span.start_seq)
            end = max(col(max(span.end_seq, span.start_seq + 1)), start + 1)
            for i in range(start, min(end, width)):
                lane[i] = glyph
            if span.outcome == "crashed" and end - 1 < width:
                lane[end - 1] = "X"
            elif span.outcome == "leaked" and end - 1 < width:
                lane[end - 1] = "?"
        lines.append("%-*s |%s|" % (label_width, names[pid], "".join(lane)))
    return "\n".join(lines)


def ascii_contention(totals: Dict[str, int], width: int = 40) -> str:
    """Horizontal bar chart of blocked time per object (seq units)."""
    if not totals:
        return "(no blocking observed)"
    label_width = max(len(name) for name in totals)
    peak = max(totals.values()) or 1
    lines = []
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        bar = "#" * max(1 if value else 0, value * width // peak)
        lines.append("%-*s %6d %s" % (label_width, name, value, bar))
    return "\n".join(lines)
