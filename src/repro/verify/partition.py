"""Partition oracles and the partition-tolerance report.

Safety oracles over the dist layer's trace vocabulary:

* :func:`check_lease_exclusion` — **no-two-holders-across-partition**: the
  validity intervals reconstructed from ``lease_acquired`` /
  ``lease_released`` / horizon ticks never overlap across holders, no
  matter what the network did.  It judges virtual-time horizons, not
  ``cs`` events, so it reads the lease fold availability reads
  (:func:`repro.obs.recovery.lease_intervals`).
* :func:`check_at_most_one_leader` — **at-most-one-leader-per-term**: no
  term carries two ``leader_elected`` events from different nodes.
* :func:`check_fencing` — a resource never accepts a stale fencing token
  after a newer one.
* :func:`make_progress_after_heal` — the liveness half: once every
  scripted partition healed, some resumption event must follow.

The Lamport mutex is judged by the lock rows' exclusion oracle over its
``cs`` intervals (:func:`repro.verify.detectors.exclusion_oracle`).

:func:`partition_report` composes them on the campaign loop
(:func:`explore_net_cells`, shared with :mod:`repro.resilience.report`):
every scenario × :class:`~repro.dist.netplan.NetPlan` cell is explored over
interleavings, each run classified as **split-brain** (safety violated),
**wedged** (safe but stuck: deadlocked, step-limited, or no post-heal
progress), or **partition-tolerant** — precedence in that order, one bad
schedule is enough.  The expected table mirrors
:mod:`repro.verify.chaos`: Lamport mutex *wedges* under an unhealed
partition (safe but not live — the textbook trade), while the quorum
scenarios stay tolerant because a majority side keeps the service up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import ascii_table
from ..dist import NetPlan
from ..explore.campaign import (Builder, Cell, ScenarioResult, explore_cells,
                                fold_net_run)
from ..explore.engine import ExplorationEngine
from ..obs.recovery import lease_intervals
# The scenario builders are read off the module at call time, so a
# rebinding of ``distributed.build_*`` (verdictbench's traced pass)
# reaches every scenario.
from ..problems import distributed
from ..runtime.trace import RunResult
from .detectors import Checker, exclusion_oracle

SPLIT_BRAIN = "split-brain"
WEDGED = "wedged"
TOLERANT = "partition-tolerant"
#: Verdict labels, worst first: one bad schedule earns the worse label.
LABELS = (SPLIT_BRAIN, WEDGED, TOLERANT)
#: (label, column) of each run count the partition and resilience reports
#: show, in column order.
COLUMNS = ((SPLIT_BRAIN, "split-brain"), (WEDGED, "wedged"),
           (TOLERANT, "tolerant"))


# ----------------------------------------------------------------------
# Safety oracles
# ----------------------------------------------------------------------
def check_lease_exclusion(run: RunResult) -> List[str]:
    """No two holders' validity intervals may overlap — at every virtual
    tick at most one client may believe it holds the quorum lease.

    Checking adjacent pairs of the start-sorted intervals is complete.
    If interval ``i`` overlaps some later interval of another holder, the
    interval right after ``i`` starts no later than that one, so it starts
    before ``i`` ends.  It cannot be the same holder's, because
    :func:`~repro.obs.recovery.lease_intervals` keeps one holder's
    intervals disjoint.  So the pair ``(i, i + 1)`` is itself flagged."""
    intervals = lease_intervals(run.trace)
    messages: List[str] = []
    for (s1, e1, h1), (s2, e2, h2) in zip(intervals, intervals[1:]):
        if h1 != h2 and s2 < e1:
            messages.append(
                "two lease holders at once: {} valid [{}, {}) and {} "
                "valid [{}, {})".format(h1, s1, e1, h2, s2, e2))
    return messages


def check_fencing(run: RunResult) -> List[str]:
    """Fencing tokens must be respected at the resource: once the
    resource has accepted a write with token ``t``, accepting a write
    with a *smaller* token from a different actor means a stale session
    touched the data after its successor — the split-brain signature of
    the crash-restart-under-partition scenarios.  Judged over
    ``fence_accept`` events (rejections are the mechanism *working*)."""
    messages: List[str] = []
    highest = 0
    highest_by: Optional[str] = None
    for ev in run.trace.filter(kind="fence_accept"):
        token = int(ev.detail["token"])
        if token < highest and ev.obj != highest_by:
            messages.append(
                "fencing violated: {} wrote with stale token {} after "
                "{} wrote with token {} (seq {})".format(
                    ev.obj, token, highest_by, highest, ev.seq))
        if token > highest:
            highest, highest_by = token, ev.obj
    return messages


def check_at_most_one_leader(run: RunResult) -> List[str]:
    """No term may crown two leaders."""
    by_term: Dict[int, List[str]] = {}
    for ev in run.trace.filter(kind="leader_elected"):
        term = int(ev.detail["term"])
        nodes = by_term.setdefault(term, [])
        if ev.obj not in nodes:
            nodes.append(ev.obj)
    return [
        "term {} has {} leaders: {}".format(term, len(nodes),
                                            ", ".join(nodes))
        for term, nodes in sorted(by_term.items()) if len(nodes) > 1
    ]


def make_progress_after_heal(plan: NetPlan,
                             progress_kinds: Tuple[str, ...]) -> Checker:
    """Liveness oracle bound to one plan: after the *last* heal tick, some
    ``progress_kinds`` event must occur — the evidence that the side cut
    off by the partition reintegrated.  Pass the kinds that constitute
    recovery for the scenario at hand (a stranded client re-acquiring, a
    stale leader stepping down, a blocked requester finally finishing);
    an empty tuple disables the oracle.  Plans with no healing partition
    never fire (an unhealed partition is allowed to wedge — that is the
    classification's job to report, not a safety bug)."""
    heal_ticks = [p.heal_at for p in plan.partitions
                  if p.heal_at is not None]

    def check(run: RunResult) -> List[str]:
        if (not progress_kinds or not heal_ticks
                or len(heal_ticks) != len(plan.partitions)):
            return []
        last_heal = max(heal_ticks)
        for ev in run.trace:
            if ev.kind in progress_kinds and ev.time >= last_heal:
                return []
        return ["no progress after heal at t={} (expected one of {})"
                .format(last_heal, "/".join(progress_kinds))]

    return check


# ----------------------------------------------------------------------
# Scenario success predicates (the liveness half of classification)
# ----------------------------------------------------------------------
# A scenario run can reach its deadline and "complete" without achieving
# anything, so deadlock detection alone cannot spot a wedge: each scenario
# defines what *getting the job done* means in its nodes' results (only a
# process that returned has one).
Success = Callable[[RunResult], bool]


def _flags(run: RunResult, names: Sequence[str], key: str) -> List[bool]:
    """Whether each named process returned a result with ``key`` set."""
    return [isinstance(run.results.get(n), dict)
            and bool(run.results[n].get(key)) for n in names]


def lamport_succeeded(nodes: Sequence[str]) -> Success:
    """Every surviving node completed its critical-section pass."""

    def success(run: RunResult) -> bool:
        killed = {ev.obj for ev in run.trace.filter(kind="killed")}
        alive = [n for n in nodes if n not in killed]
        return bool(alive) and all(_flags(run, alive, "exited"))

    return success


def quorum_lock_succeeded(clients: Sequence[str]) -> Success:
    """Some client completed a fenced hold (the lock stayed usable)."""
    return lambda run: any(_flags(run, clients, "locked"))


def election_succeeded(nodes: Sequence[str]) -> Success:
    """A leader was elected and someone still leads at the end."""
    return lambda run: (run.trace.first(kind="leader_elected") is not None
                        and any(_flags(run, nodes, "leader")))


# ----------------------------------------------------------------------
# Classification (shared with the resilience campaign)
# ----------------------------------------------------------------------
def classify_net_run(
    run: RunResult,
    safety: Checker,
    success: Success,
    progress: Optional[Checker] = None,
) -> Tuple[str, List[str]]:
    """One distributed run's label and any safety-violation messages:
    split-brain (safety violated) > wedged (deadlocked, step-limited, the
    job not done, or no post-heal ``progress``) > partition-tolerant."""
    unsafe = safety(run)
    if unsafe:
        return SPLIT_BRAIN, unsafe
    if (run.deadlocked or run.step_limited or not success(run)
            or (progress is not None and progress(run))):
        return WEDGED, []
    return TOLERANT, []


def explore_net_cells(
    name: str,
    build: Builder,
    cells: List[Cell],
    safety: Checker,
    success: Success,
    engine: Callable,
    max_runs: int,
    **fields,
) -> ScenarioResult:
    """Explore one distributed scenario under every cell, classifying each
    run with :func:`classify_net_run` (the cell's ``check`` is its
    post-heal progress oracle) and folding MTTR, availability, restarts
    and message counts into it."""
    return explore_cells(
        name, build, cells,
        lambda run, cell: classify_net_run(run, safety, success, cell.check),
        LABELS, engine=engine, max_runs=max_runs, max_depth=40,
        fold=fold_net_run, **fields)


def fmt_optional(value: Optional[float], spec: str) -> str:
    return "-" if value is None else spec.format(value)


# ----------------------------------------------------------------------
# The standard scenario × plan table
# ----------------------------------------------------------------------
#: Plan cell: (label, plan, expected classification, post-heal evidence —
#: the event kinds whose appearance after the heal tick proves the cut
#: side reintegrated; empty = nothing to prove).
PlanCell = Tuple[str, NetPlan, str, Tuple[str, ...]]


def _lamport_plans() -> List[PlanCell]:
    return [
        ("clean", NetPlan(), TOLERANT, ()),
        ("lossy", NetPlan().drop("*", "*", nth=2).duplicate("*", "*", nth=5)
                           .delay("n0", "n1", ticks=4, nth=3),
         TOLERANT, ()),
        # All three requesters are stuck until the heal, so recovery means
        # the critical-section passes finally run.
        ("partition-heal",
         NetPlan().isolate("n0", at=1, heal_at=40), TOLERANT, ("cs",)),
        # Safe but not live: requesters never assemble the full ack set.
        ("partition-forever", NetPlan().isolate("n0", at=1), WEDGED, ()),
    ]


def _quorum_lock_plans() -> List[PlanCell]:
    return [
        ("clean", NetPlan(), TOLERANT, ()),
        ("lossy", NetPlan().drop("*", "*", nth=2).duplicate("*", "*", nth=4),
         TOLERANT, ()),
        # c0 is cut off mid-acquisition; c1 takes the lock on the majority
        # side, and the stranded c0 must re-acquire after the heal.
        ("partition-heal",
         NetPlan().isolate("c0", at=2, heal_at=60), TOLERANT,
         ("lease_acquired",)),
        # The majority side still reclaims the lock once any grants the
        # stranded client held expire — tolerant without ever healing.
        ("partition-forever", NetPlan().isolate("c0", at=2), TOLERANT, ()),
    ]


def _election_plans() -> List[PlanCell]:
    return [
        ("clean", NetPlan(), TOLERANT, ()),
        ("lossy", NetPlan().drop("*", "*", nth=3).duplicate("*", "*", nth=6),
         TOLERANT, ()),
        # Post-heal reconvergence: either one more election or the stale
        # minority leader stepping down to the higher term.
        ("partition-heal",
         NetPlan().isolate("n0", at=20, heal_at=70), TOLERANT,
         ("leader_elected", "leader_stepdown")),
        # The majority elects a higher-term leader and keeps beating.
        ("partition-forever", NetPlan().isolate("n0", at=20), TOLERANT, ()),
    ]


def partition_scenarios() -> List[Tuple]:
    """(scenario name, builder, safety oracle, success predicate,
    plan-set factory) — built per call, so each builder is looked up on
    :mod:`repro.problems.distributed` when the report runs."""
    return [
        ("lamport_mutex", distributed.build_lamport_mutex,
         exclusion_oracle(distributed.LAMPORT_REGION),
         lamport_succeeded(distributed.LAMPORT_NODES), _lamport_plans),
        ("quorum_lock", distributed.build_quorum_lock,
         check_lease_exclusion,
         quorum_lock_succeeded(distributed.LOCK_CLIENTS), _quorum_lock_plans),
        ("leader_election", distributed.build_leader_election,
         check_at_most_one_leader,
         election_succeeded(distributed.ELECTION_NODES), _election_plans),
    ]


def partition_report(
    fast: bool = False,
) -> Tuple[List[ScenarioResult], str]:
    """Run every scenario × plan cell; return (results, rendered table).

    One :class:`NetPlan` instance serves every explored run of its cell —
    the network's ``begin()`` resets its fired/announced state each run,
    the same replay contract :class:`~repro.runtime.faults.FaultPlan` has.
    """
    results = [
        explore_net_cells(
            name, build,
            [Cell(plan_name, None, plan, expected,
                  make_progress_after_heal(plan, heal_kinds))
             for plan_name, plan, expected, heal_kinds in plan_factory()],
            safety, success, engine=ExplorationEngine,
            max_runs=2 if fast else 6)
        for name, build, safety, success, plan_factory
        in partition_scenarios()]
    table = ascii_table(
        ["scenario", "net plan", "runs"]
        + [column for __, column in COLUMNS]
        + ["failover mttr", "post-heal mttr", "classification"],
        [[res.name, o.plan_name, str(o.runs)]
         + [str(o.count(label)) for label, __ in COLUMNS]
         + [fmt_optional(o.mttr_failover, "{:.1f}"),
            fmt_optional(o.mttr_post_heal, "{:.1f}"), o.classification]
         for res in results for o in res.outcomes],
        title="Partition tolerance by scenario (schedules explored per "
              "plan; mttr in virtual ticks)",
    )
    return results, table


def expected_partition_classifications() -> Dict[Tuple[str, str], str]:
    """(scenario, plan) -> predicted classification, for the regression
    tests."""
    out: Dict[Tuple[str, str], str] = {}
    for name, __, __, __, plan_factory in partition_scenarios():
        for plan_name, __, expected, __ in plan_factory():
            out[(name, plan_name)] = expected
    return out
