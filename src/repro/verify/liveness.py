"""Liveness analysis: waiting-time measurement and starvation detection.

The paper's specifications speak about liveness qualitatively ("This
specification allows writers to starve", §5.1.1).  This module quantifies
it from traces:

* :func:`waiting_times` — per completed operation, the ``request`` →
  ``op_start`` gap in event-sequence units;
* :func:`class_wait_summary` — min/mean/max per operation class;
* :func:`check_bounded_waiting` — flags operations that waited longer than
  a bound (a bounded-bypass oracle);
* :func:`starvation_report` — requests that *never* got served in a run
  (the concrete form of "allows starvation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..runtime.trace import OpFold, Trace


@dataclass(frozen=True)
class Wait:
    """One completed request's wait."""

    pname: str
    obj: str
    request_seq: int
    start_seq: int

    @property
    def duration(self) -> int:
        """Wait length in event-sequence units."""
        return self.start_seq - self.request_seq


def waiting_times(
    trace: Trace, resource: str, ops: Iterable[str]
) -> List[Wait]:
    """The waits of the *served* requests, in ``op_start`` order, as
    :class:`~repro.runtime.trace.OpFold` pairs them (a request a csp server
    started counts as served)."""
    fold = OpFold("{}.{}".format(resource, op) for op in ops).fold(trace)
    return [Wait(op.pname, op.obj, op.request.seq, op.start.seq)
            for op in fold.started if op.request is not None]


def unserved_requests(
    trace: Trace, resource: str, ops: Iterable[str]
) -> List[Tuple[str, str, int]]:
    """Requests no ``op_start`` served by the end of the run:
    (process, operation, request seq)."""
    fold = OpFold("{}.{}".format(resource, op) for op in ops).fold(trace)
    return [(op.pname, op.obj, op.request.seq) for op in fold.ops
            if op.request is not None and op.start is None]


@dataclass
class WaitSummary:
    """Aggregate waiting statistics for one operation class."""

    obj: str
    served: int
    min_wait: int
    mean_wait: float
    max_wait: int
    unserved: int = 0

    def row(self) -> List[str]:
        """Table row for report rendering."""
        return [
            self.obj,
            str(self.served),
            str(self.min_wait),
            "{:.1f}".format(self.mean_wait),
            str(self.max_wait),
            str(self.unserved),
        ]


def class_wait_summary(
    trace: Trace, resource: str, ops: Iterable[str]
) -> Dict[str, WaitSummary]:
    """Per-operation waiting statistics, including unserved counts."""
    ops = list(ops)
    waits = waiting_times(trace, resource, ops)
    starved = unserved_requests(trace, resource, ops)
    summaries: Dict[str, WaitSummary] = {}
    for op in ops:
        obj = "{}.{}".format(resource, op)
        durations = [w.duration for w in waits if w.obj == obj]
        unserved = sum(1 for __, o, __s in starved if o == obj)
        if durations:
            summaries[op] = WaitSummary(
                obj=obj,
                served=len(durations),
                min_wait=min(durations),
                mean_wait=sum(durations) / len(durations),
                max_wait=max(durations),
                unserved=unserved,
            )
        else:
            summaries[op] = WaitSummary(obj, 0, 0, 0.0, 0, unserved)
    return summaries


def check_bounded_waiting(
    trace: Trace, resource: str, ops: Iterable[str], bound: int
) -> List[str]:
    """Oracle: no served request waited more than ``bound`` sequence units,
    and no request went unserved."""
    violations: List[str] = []
    for wait in waiting_times(trace, resource, ops):
        if wait.duration > bound:
            violations.append(
                "{} waited {} (> bound {}) for {}".format(
                    wait.pname, wait.duration, bound, wait.obj
                )
            )
    for pname, obj, seq in unserved_requests(trace, resource, ops):
        violations.append(
            "{} never served for {} (requested seq {})".format(
                pname, obj, seq
            )
        )
    return violations


def starvation_report(
    trace: Trace, resource: str, ops: Iterable[str]
) -> str:
    """Human-readable starvation/waiting summary."""
    summaries = class_wait_summary(trace, resource, ops)
    lines = ["{:<14} {:>6} {:>6} {:>8} {:>6} {:>8}".format(
        "operation", "served", "min", "mean", "max", "unserved"
    )]
    for op in sorted(summaries):
        s = summaries[op]
        lines.append("{:<14} {:>6} {:>6} {:>8.1f} {:>6} {:>8}".format(
            s.obj, s.served, s.min_wait, s.mean_wait, s.max_wait, s.unserved
        ))
    return "\n".join(lines)
