"""ASCII timeline rendering for traces.

Turns a trace's ``op_start``/``op_end`` pairs into a Gantt-style chart, one
row per process, one column per event-sequence slot — the quickest way to
*see* a schedule (reader bursts, writer exclusivity, the footnote-3
overtake).

Example output for the anomaly run::

    W1 |  WWWWWWWW................
    W2 |  ....------WWW...........
    R1 |  ......--------------RRR.

(``-`` = requested but waiting, letter = executing, ``.`` = elsewhere.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .trace import Trace


def render_timeline(
    trace: Trace,
    ops: Dict[str, str],
    width: Optional[int] = None,
) -> str:
    """Render a Gantt chart of operation activity.

    Args:
        trace: the execution trace.
        ops: mapping of full operation object name to the single letter used
            while it executes, e.g. ``{"db.read": "R", "db.write": "W"}``.
        width: squeeze the chart to at most this many columns (sampling);
            default uses one column per event.

    Returns a multi-line string, one row per process that touches one of
    the ops.
    """
    events = [ev for ev in trace if ev.obj in ops and ev.kind in
              ("request", "op_start", "op_end")]
    if not events:
        return "(no matching events)"
    horizon = max(ev.seq for ev in events) + 1
    # state per process: list of (seq, symbol) transitions
    transitions: Dict[str, List[Tuple[int, str]]] = {}
    for ev in events:
        symbol = None
        if ev.kind == "request":
            symbol = "-"
        elif ev.kind == "op_start":
            symbol = ops[ev.obj]
        else:
            symbol = "."
        transitions.setdefault(ev.pname, []).append((ev.seq, symbol))
    names = list(transitions)
    rows = []
    label_width = max((len(n) for n in names), default=0)
    for name in names:
        cells = ["."] * horizon
        current = "."
        moves = dict(transitions[name])
        for seq in range(horizon):
            if seq in moves:
                current = moves[seq]
            cells[seq] = current
        line = "".join(cells)
        if width is not None and horizon > width:
            step = horizon / width
            line = "".join(
                line[min(int(i * step), horizon - 1)] for i in range(width)
            )
        rows.append("{} | {}".format(name.ljust(label_width), line))
    return "\n".join(rows)
