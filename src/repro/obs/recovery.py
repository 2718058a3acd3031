"""Recovery observability: MTTR derived post-hoc from traces.

The supervisor (:mod:`repro.recover`) logs ``restart`` events and the
scheduler logs every death (``killed``/``failed``) and completion
(``exit``), all stamped with the virtual clock.  That is enough to
reconstruct, per corpse, the full recovery arc without instrumenting the
recovery runtime itself:

    death  --(ticks_to_restart)-->  restart  --...-->  exit
      `------------------(ticks_to_recovery)------------'

:func:`recovery_spans` folds a trace into one :class:`RecoverySpan` per
death; :func:`compute_recovery_metrics` aggregates them into MTTR ("mean
ticks to recovery" — virtual clock, hence deterministic for a given
(policy, fault plan) pair), restart latency, and counts of the partial
outcomes (giveups, escalations, degradations).  These are the numbers
``bench_recovery`` fingerprints and ``python -m repro recover`` tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core import ascii_table
from ..runtime.trace import RunResult, Trace

__all__ = [
    "RecoverySpan",
    "RecoveryMetrics",
    "recovery_spans",
    "compute_recovery_metrics",
    "PartitionRecoverySpan",
    "PartitionRecoveryMetrics",
    "partition_recovery_spans",
    "compute_partition_mttr",
    "Availability",
    "compute_availability",
    "lease_intervals",
]


@dataclass(frozen=True)
class RecoverySpan:
    """One death and (if any) the restart/completion that healed it."""

    process: str
    death_kind: str  # "killed" | "failed"
    death_seq: int
    death_tick: int
    restart_seq: Optional[int] = None
    restart_tick: Optional[int] = None
    exit_seq: Optional[int] = None
    exit_tick: Optional[int] = None

    @property
    def restarted(self) -> bool:
        return self.restart_seq is not None

    @property
    def recovered(self) -> bool:
        """The replacement incarnation ran to completion."""
        return self.exit_seq is not None

    @property
    def ticks_to_restart(self) -> Optional[int]:
        if self.restart_tick is None:
            return None
        return self.restart_tick - self.death_tick

    @property
    def ticks_to_recovery(self) -> Optional[int]:
        """Death to the replacement's ``exit`` — one MTTR sample."""
        if self.exit_tick is None:
            return None
        return self.exit_tick - self.death_tick

    def describe(self) -> str:
        if self.recovered:
            return "{} {} at t={} recovered in {} tick(s)".format(
                self.process, self.death_kind, self.death_tick,
                self.ticks_to_recovery,
            )
        if self.restarted:
            return "{} {} at t={} restarted, never completed".format(
                self.process, self.death_kind, self.death_tick,
            )
        return "{} {} at t={} never restarted".format(
            self.process, self.death_kind, self.death_tick,
        )


def _trace_of(run: Union[RunResult, Trace]) -> Trace:
    return run.trace if isinstance(run, RunResult) else run


def recovery_spans(run: Union[RunResult, Trace]) -> List[RecoverySpan]:
    """Fold a trace into one span per death.

    Events are matched by name in sequence order: each ``killed``/``failed``
    opens a span, the next ``restart`` of that name closes its restart leg,
    and the next ``exit`` after the restart closes the recovery leg.  A
    second death of the same name (a killed replacement) opens a fresh
    span, so restart storms yield one sample each.
    """
    trace = _trace_of(run)
    open_by_name: Dict[str, dict] = {}
    spans: List[RecoverySpan] = []

    def _close(name: str) -> None:
        pending = open_by_name.pop(name, None)
        if pending is not None:
            spans.append(RecoverySpan(**pending))

    for ev in trace:
        if ev.kind in ("killed", "failed"):
            _close(ev.obj)
            open_by_name[ev.obj] = dict(
                process=ev.obj, death_kind=ev.kind,
                death_seq=ev.seq, death_tick=ev.time,
            )
        elif ev.kind == "restart":
            pending = open_by_name.get(ev.obj)
            if pending is not None and pending.get("restart_seq") is None:
                pending["restart_seq"] = ev.seq
                pending["restart_tick"] = ev.time
        elif ev.kind == "exit":
            pending = open_by_name.get(ev.obj)
            if pending is not None and pending.get("restart_seq") is not None:
                pending["exit_seq"] = ev.seq
                pending["exit_tick"] = ev.time
                _close(ev.obj)
    for name in sorted(open_by_name):
        _close(name)
    spans.sort(key=lambda s: s.death_seq)
    return spans


@dataclass
class RecoveryMetrics:
    """Aggregate recovery behaviour of one run."""

    spans: List[RecoverySpan] = field(default_factory=list)
    giveups: int = 0
    escalations: int = 0
    degradations: int = 0
    reclaims: int = 0

    @property
    def deaths(self) -> int:
        return len(self.spans)

    @property
    def restarts(self) -> int:
        return sum(1 for s in self.spans if s.restarted)

    @property
    def recoveries(self) -> int:
        return sum(1 for s in self.spans if s.recovered)

    @property
    def recovery_rate(self) -> float:
        """Fraction of deaths whose replacement ran to completion."""
        if not self.spans:
            return 1.0
        return self.recoveries / float(self.deaths)

    @property
    def mttr(self) -> Optional[float]:
        """Mean ticks-to-recovery over recovered spans (virtual clock)."""
        samples = [
            s.ticks_to_recovery for s in self.spans if s.recovered
        ]
        if not samples:
            return None
        return sum(samples) / float(len(samples))

    @property
    def max_ttr(self) -> Optional[int]:
        samples = [
            s.ticks_to_recovery for s in self.spans if s.recovered
        ]
        return max(samples) if samples else None

    def render(self) -> str:
        rows = [[
            str(self.deaths), str(self.restarts), str(self.recoveries),
            "{:.2f}".format(self.recovery_rate),
            "-" if self.mttr is None else "{:.2f}".format(self.mttr),
            "-" if self.max_ttr is None else str(self.max_ttr),
            str(self.reclaims), str(self.giveups), str(self.escalations),
            str(self.degradations),
        ]]
        return ascii_table(
            ["deaths", "restarts", "recoveries", "rate", "mttr",
             "max ttr", "reclaims", "giveups", "escalations", "degradations"],
            rows,
            title="Recovery metrics (ticks = virtual clock)",
        )


def compute_recovery_metrics(run: Union[RunResult, Trace]) -> RecoveryMetrics:
    """MTTR and partial-outcome counts for one run's trace."""
    trace = _trace_of(run)
    return RecoveryMetrics(
        spans=recovery_spans(trace),
        giveups=len(trace.filter(kind="restart_giveup")),
        escalations=len(trace.filter(kind="escalate")),
        degradations=len(trace.filter(kind="degrade")),
        reclaims=len(trace.filter(kind="reclaim")),
    )


# ----------------------------------------------------------------------
# Partition recovery (the dist layer's MTTR)
# ----------------------------------------------------------------------

#: Event kinds that mean "service resumed / reconverged": a new leader took
#: over, the lock/lease found a (possibly new) holder, or a stale leader
#: yielded to the higher term it finally heard (the post-heal signature when
#: the majority side's leader simply persists).
PARTITION_RECOVERY_KINDS = ("leader_elected", "lease_acquired",
                            "leader_stepdown")


@dataclass(frozen=True)
class PartitionRecoverySpan:
    """One scripted partition and the service-resumption events around it.

    Two distinct recovery legs, both on the virtual clock:

    * **failover** — partition start to the first resumption event after
      it (the majority side electing/acquiring *during* the outage);
    * **post-heal** — heal to the first resumption event after it (the
      whole cluster reconverging).
    """

    partition: str               # PartitionRule.describe()
    start_tick: int
    heal_tick: Optional[int] = None
    failover_kind: Optional[str] = None
    failover_by: Optional[str] = None
    failover_tick: Optional[int] = None
    post_heal_kind: Optional[str] = None
    post_heal_by: Optional[str] = None
    post_heal_tick: Optional[int] = None

    @property
    def healed(self) -> bool:
        return self.heal_tick is not None

    @property
    def ticks_to_failover(self) -> Optional[int]:
        if self.failover_tick is None:
            return None
        return self.failover_tick - self.start_tick

    @property
    def ticks_to_post_heal(self) -> Optional[int]:
        if self.heal_tick is None or self.post_heal_tick is None:
            return None
        return self.post_heal_tick - self.heal_tick

    def describe(self) -> str:
        bits = [self.partition]
        if self.failover_tick is not None:
            bits.append("failover in {} tick(s) ({} by {})".format(
                self.ticks_to_failover, self.failover_kind,
                self.failover_by))
        else:
            bits.append("no failover")
        if self.healed:
            if self.post_heal_tick is not None:
                bits.append("post-heal recovery in {} tick(s)".format(
                    self.ticks_to_post_heal))
            else:
                bits.append("no post-heal recovery")
        return "; ".join(bits)


def partition_recovery_spans(
    run: Union[RunResult, Trace],
) -> List[PartitionRecoverySpan]:
    """One span per ``net_partition`` event, matched to its ``net_heal``
    (same rule description) and to the first
    :data:`PARTITION_RECOVERY_KINDS` event after each leg's start."""
    trace = _trace_of(run)
    spans: List[PartitionRecoverySpan] = []
    heals = list(trace.filter(kind="net_heal"))
    for start in trace.filter(kind="net_partition"):
        heal = next(
            (h for h in heals
             if h.detail == start.detail and h.seq > start.seq), None)
        failover = next(
            (ev for ev in trace
             if ev.kind in PARTITION_RECOVERY_KINDS
             and ev.seq > start.seq), None)
        post_heal = None
        if heal is not None:
            post_heal = next(
                (ev for ev in trace
                 if ev.kind in PARTITION_RECOVERY_KINDS
                 and ev.seq > heal.seq), None)
        spans.append(PartitionRecoverySpan(
            partition=str(start.detail),
            start_tick=start.time,
            heal_tick=None if heal is None else heal.time,
            failover_kind=None if failover is None else failover.kind,
            failover_by=None if failover is None else failover.obj,
            failover_tick=None if failover is None else failover.time,
            post_heal_kind=None if post_heal is None else post_heal.kind,
            post_heal_by=None if post_heal is None else post_heal.obj,
            post_heal_tick=None if post_heal is None else post_heal.time,
        ))
    return spans


@dataclass
class PartitionRecoveryMetrics:
    """Aggregate partition-recovery behaviour of one run."""

    spans: List[PartitionRecoverySpan] = field(default_factory=list)

    @property
    def partitions(self) -> int:
        return len(self.spans)

    @property
    def mttr_failover(self) -> Optional[float]:
        samples = [s.ticks_to_failover for s in self.spans
                   if s.ticks_to_failover is not None]
        if not samples:
            return None
        return sum(samples) / float(len(samples))

    @property
    def mttr_post_heal(self) -> Optional[float]:
        samples = [s.ticks_to_post_heal for s in self.spans
                   if s.ticks_to_post_heal is not None]
        if not samples:
            return None
        return sum(samples) / float(len(samples))

    def render(self) -> str:
        rows = [[
            s.partition,
            str(s.start_tick),
            "-" if s.heal_tick is None else str(s.heal_tick),
            ("-" if s.ticks_to_failover is None
             else "{} ({} by {})".format(s.ticks_to_failover,
                                         s.failover_kind, s.failover_by)),
            ("-" if s.ticks_to_post_heal is None
             else "{} ({} by {})".format(s.ticks_to_post_heal,
                                         s.post_heal_kind, s.post_heal_by)),
        ] for s in self.spans]
        return ascii_table(
            ["partition", "at", "heal", "failover (ticks)",
             "post-heal (ticks)"],
            rows,
            title="Partition recovery (ticks = virtual clock)",
        )


def compute_partition_mttr(
    run: Union[RunResult, Trace],
) -> PartitionRecoveryMetrics:
    """Failover and post-heal MTTR from one run's trace."""
    return PartitionRecoveryMetrics(spans=partition_recovery_spans(run))


# ----------------------------------------------------------------------
# Availability (the combined-fault layer's headline number)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Availability:
    """Fraction of virtual time a valid leader/holder existed.

    MTTR measures how long each outage lasted; availability measures how
    much of the run was outage at all — the number that actually degrades
    when crash-restart and partitions compose (every restart+re-acquire
    cycle and every quorum-less window subtracts from it).
    """

    held_ticks: int
    horizon: int
    intervals: Tuple[Tuple[int, int], ...] = ()

    @property
    def fraction(self) -> float:
        if self.horizon <= 0:
            return 0.0
        return self.held_ticks / float(self.horizon)

    def describe(self) -> str:
        return "service held {}/{} ticks ({:.0%})".format(
            self.held_ticks, self.horizon, self.fraction)


def lease_intervals(trace: Trace) -> List[Tuple[int, int, str]]:
    """Lease validity intervals ``(start, end, holder)``, sorted — the one
    lease fold: availability unions these and
    :func:`repro.verify.partition.check_lease_exclusion` judges them.

    A holder is valid from ``lease_acquired`` to the earliest of its
    ``until`` horizon, an explicit ``lease_released``, and its own next
    ``lease_acquired`` (a re-acquire closes the earlier interval at the
    re-acquire tick and opens a new one).  So one holder's intervals are
    disjoint: each ends no later than the next one starts.
    """
    intervals: List[Tuple[int, int, str]] = []
    open_lease: Dict[str, Tuple[int, int]] = {}   # holder -> (start, horizon)
    for ev in trace:
        if ev.kind not in ("lease_acquired", "lease_released"):
            continue
        if ev.obj in open_lease:
            start, horizon = open_lease.pop(ev.obj)
            intervals.append((start, min(horizon, ev.time), ev.obj))
        if ev.kind == "lease_acquired":
            open_lease[ev.obj] = (ev.time, int(ev.detail["until"]))
    for holder, (start, horizon) in open_lease.items():
        intervals.append((start, horizon, holder))
    return sorted(intervals)


def _service_intervals(trace: Trace) -> List[Tuple[int, int]]:
    """Intervals of "a valid holder/leader exists":

    * a lease holder is valid over its :func:`lease_intervals`;
    * a leader leads from ``leader_elected`` until its own
      ``leader_stepdown`` (a leader that never steps down leads to the
      end of the trace — clipped by the caller's horizon).
    """
    intervals = [(start, end) for start, end, __ in lease_intervals(trace)]
    open_leader: Dict[str, int] = {}          # leader -> start
    end = 0
    for ev in trace:
        end = max(end, ev.time)
        if ev.kind == "leader_elected":
            open_leader.setdefault(ev.obj, ev.time)
        elif ev.kind == "leader_stepdown":
            if ev.obj in open_leader:
                intervals.append((open_leader.pop(ev.obj), ev.time))
    for start in open_leader.values():
        intervals.append((start, end))
    return intervals


def compute_availability(run: Union[RunResult, Trace]) -> Availability:
    """Union the holder/leader validity intervals and divide by the run
    horizon (the last event's tick).  Overlapping intervals count once —
    availability asks "did *someone* validly hold the service", not "how
    many thought they did" (that is the exclusion oracle's question)."""
    trace = _trace_of(run)
    horizon = max((ev.time for ev in trace), default=0)
    raw = _service_intervals(trace)
    clipped = sorted(
        (max(0, s), min(e, horizon)) for s, e in raw)
    merged: List[List[int]] = []
    for s, e in clipped:
        if e <= s:
            continue
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    held = sum(e - s for s, e in merged)
    return Availability(
        held_ticks=held, horizon=horizon,
        intervals=tuple((s, e) for s, e in merged))
