"""One fault-campaign engine: inject, explore, classify, minimize.

Every fault campaign asks one question of a system under test: inject
faults, explore schedules around them, classify each run, and shrink the
fault set that ends badly.  ``repro robustness``, ``recover``,
``partition`` and ``resilience`` differ only in their builders,
classifiers, expected labels and budgets, which their own modules hold as
data.  This module is the machinery they share:

* fault atoms — :class:`KillSpec` (at a process step), :class:`CrashSpec`
  (at a virtual tick) and :class:`CutSpec` (a partition window) — and
  :func:`compile_faults`, which turns a set of them into the
  ``(FaultPlan, NetPlan)`` pair every builder takes;
* :class:`Cell` (one fault configuration), :class:`Outcome` (runs per
  label over one cell's explored schedules) and :class:`ScenarioResult`
  (every cell of one scenario, classified by its worst label), counted
  per report column by :func:`label_counts`;
* :func:`explore_cells`, the loop: one schedule exploration per cell with
  every run classified, and for distributed cells folded by
  :func:`fold_net_run`;
* :func:`search_fault_sets`: a singletons-first search over fault atoms,
  then 1-minimization of the first defeating set by
  :func:`~repro.explore.ddmin.ddmin`.

A builder runs one *fresh* system: ``build(policy, netplan, fault_plan)``.
Callers pass the exploration engine class in.  This module imports only
the runtime, the checker contract, the minimizer, :mod:`repro.dist`'s
``NetPlan`` and the MTTR folds of :mod:`repro.obs.recovery`; the campaigns that configure it (:mod:`repro.verify.chaos`,
:mod:`repro.verify.recovery`, :mod:`repro.verify.partition`,
:mod:`repro.recover.search`, :mod:`repro.resilience.report`) sit above it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple, Union)

from ..dist.netplan import NetPlan
from ..obs.recovery import compute_availability, compute_partition_mttr
from ..runtime.errors import StepLimitExceeded
from ..runtime.faults import FaultPlan
from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult, Trace
from ..verify.detectors import Checker
from .ddmin import ddmin

#: ``(policy, netplan, fault_plan) -> RunResult`` for one fresh system.
Builder = Callable[[ScriptedPolicy, Any, Optional[FaultPlan]], RunResult]


# ----------------------------------------------------------------------
# Fault atoms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KillSpec:
    """Kill ``process`` at its ``step``-th step."""

    process: str
    step: int

    def describe(self) -> str:
        return "kill {} at step {}".format(self.process, self.step)


@dataclass(frozen=True)
class CrashSpec:
    """Kill ``process`` once virtual time reaches ``at_time`` (even if it
    is blocked — crashes do not wait for a convenient step)."""

    process: str
    at_time: int

    def describe(self) -> str:
        return "kill {} at t={}".format(self.process, self.at_time)


@dataclass(frozen=True)
class CutSpec:
    """Isolate ``node`` from every other node on ``[at, heal_at)``
    (``heal_at=None`` = the partition never heals)."""

    node: str
    at: int
    heal_at: Optional[int] = None

    def describe(self) -> str:
        healed = ("never heals" if self.heal_at is None
                  else "heals at t={}".format(self.heal_at))
        return "isolate {} at t={} ({})".format(self.node, self.at, healed)


FaultAtom = Union[KillSpec, CrashSpec, CutSpec]


def compile_faults(faults: Sequence[FaultAtom]) -> Tuple[Any, Any]:
    """Compile a fault set into its ``(FaultPlan, NetPlan)`` pair, ``None``
    for an empty side so builders keep their defaults."""
    fault_plan = netplan = None
    for f in faults:
        if isinstance(f, CutSpec):
            if netplan is None:
                netplan = NetPlan()
            netplan.isolate(f.node, at=f.at, heal_at=f.heal_at)
            continue
        if fault_plan is None:
            fault_plan = FaultPlan()
        if isinstance(f, KillSpec):
            fault_plan.kill(f.process, at_step=f.step)
        else:
            fault_plan.kill(f.process, at_time=f.at_time)
    return fault_plan, netplan


def describe_faults(faults: Sequence[FaultAtom]) -> str:
    return "; ".join(f.describe() for f in faults)


# ----------------------------------------------------------------------
# Cells, outcomes, scenario results
# ----------------------------------------------------------------------
@dataclass
class Cell:
    """One fault configuration of a scenario.  ``expected`` is the label
    the cell must earn (``None``: judged at scenario level); ``check`` is
    an extra oracle of this cell alone (e.g. post-heal progress)."""

    name: str
    fault_plan: Optional[FaultPlan] = None
    netplan: Any = None
    expected: Optional[str] = None
    check: Optional[Checker] = None


def _mean(samples: Sequence[float]) -> Optional[float]:
    if not samples:
        return None
    return sum(samples) / float(len(samples))


def _worst(labels: Sequence[str], counts: Callable[[str], int]) -> str:
    """The first label (worst first) with any run; the last otherwise."""
    for label in labels:
        if counts(label):
            return label
    return labels[-1]


@dataclass
class Outcome:
    """Runs per label over every explored schedule of one cell.

    ``labels`` orders the verdict labels worst first; labels outside it
    (a chaos run whose kill never fired is ``"missed"``) are counted but
    never classify.  The remaining fields are filled by
    :func:`fold_net_run` on distributed cells.
    """

    cell: Cell
    labels: Tuple[str, ...]
    runs: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    failover_samples: List[int] = field(default_factory=list)
    post_heal_samples: List[int] = field(default_factory=list)
    availability_samples: List[float] = field(default_factory=list)
    restarts: int = 0
    message_stats: Dict[str, Any] = field(default_factory=dict)

    def add(self, label: str, messages: Sequence[str] = ()) -> None:
        self.runs += 1
        self.counts[label] = self.counts.get(label, 0) + 1
        self.violations.extend(messages)

    def count(self, label: str) -> int:
        return self.counts.get(label, 0)

    @property
    def classification(self) -> str:
        return _worst(self.labels, self.count)

    @property
    def cell_name(self) -> str:
        return self.cell.name

    plan_name = cell_name

    @property
    def expected(self) -> Optional[str]:
        return self.cell.expected

    @property
    def faults(self) -> List[str]:
        out: List[str] = []
        for plan in (self.cell.fault_plan, self.cell.netplan):
            if plan is not None:
                out.extend(plan.describe())
        return out

    @property
    def mttr_failover(self) -> Optional[float]:
        return _mean(self.failover_samples)

    @property
    def mttr_post_heal(self) -> Optional[float]:
        return _mean(self.post_heal_samples)

    @property
    def availability(self) -> Optional[float]:
        return _mean(self.availability_samples)


@dataclass
class ScenarioResult:
    """Every explored cell of one scenario.

    ``classification`` is the worst label any run earned.  ``expected``
    lists the labels acceptable for the scenario as a whole (empty when
    only cells carry expectations); ``surprises`` names every scenario or
    cell whose label is not the expected one.
    """

    name: str
    labels: Tuple[str, ...]
    outcomes: List[Outcome] = field(default_factory=list)
    expected: Tuple[str, ...] = ()
    victim: Optional[str] = None
    cluster: Optional[int] = None

    @property
    def runs(self) -> int:
        return sum(o.runs for o in self.outcomes)

    def count(self, label: str) -> int:
        return sum(o.count(label) for o in self.outcomes)

    @property
    def violations(self) -> List[str]:
        return [v for o in self.outcomes for v in o.violations]

    @property
    def classification(self) -> str:
        return _worst(self.labels, self.count)

    @property
    def surprises(self) -> List[str]:
        out: List[str] = []
        if self.expected and self.classification not in self.expected:
            out.append("{}: got {}, expected {}".format(
                self.name, self.classification, "/".join(self.expected)))
        out.extend(
            "{} under {}: expected {}, observed {}".format(
                self.name, o.cell.name, o.cell.expected, o.classification)
            for o in self.outcomes
            if o.cell.expected is not None
            and o.classification != o.cell.expected)
        return out

    # Pooled over every cell's samples (not a mean of means).
    @property
    def mttr_failover(self) -> Optional[float]:
        return _mean([s for o in self.outcomes for s in o.failover_samples])

    @property
    def mttr_post_heal(self) -> Optional[float]:
        return _mean([s for o in self.outcomes for s in o.post_heal_samples])

    @property
    def availability(self) -> Optional[float]:
        return _mean([s for o in self.outcomes
                      for s in o.availability_samples])


def label_counts(result: Union[Outcome, ScenarioResult],
                 columns: Sequence[Tuple[str, str]]) -> Dict[str, int]:
    """Runs per label of a campaign's ``(label, column)`` table, keyed by
    column name in ``--json`` spelling (``-`` becomes ``_``)."""
    return {column.replace("-", "_"): result.count(label)
            for label, column in columns}


# ----------------------------------------------------------------------
# The explore-cells loop
# ----------------------------------------------------------------------
def fold_net_run(outcome: Outcome, run: RunResult) -> None:
    """Fold one distributed run into its cell: failover and post-heal MTTR
    samples, availability, the most restarts any run saw, and message
    statistics (counters summed, per-node gauges max-merged)."""
    for span in compute_partition_mttr(run).spans:
        if span.ticks_to_failover is not None:
            outcome.failover_samples.append(span.ticks_to_failover)
        if span.ticks_to_post_heal is not None:
            outcome.post_heal_samples.append(span.ticks_to_post_heal)
    avail = compute_availability(run)
    if avail.intervals:
        # Scenarios with no lease/leader service notion (lamport)
        # contribute no sample rather than a meaningless 0%.
        outcome.availability_samples.append(avail.fraction)
    outcome.restarts = max(outcome.restarts,
                           len(run.trace.filter(kind="restart")))
    for key, val in (getattr(run, "network_stats", None) or {}).items():
        if isinstance(val, dict):
            gauges = outcome.message_stats.setdefault(key, {})
            for node, peak in val.items():
                if peak > gauges.get(node, 0):
                    gauges[node] = peak
        else:
            outcome.message_stats[key] = (
                outcome.message_stats.get(key, 0) + val)


def explore_cells(
    name: str,
    build: Builder,
    cells: Sequence[Cell],
    classify: Callable[[RunResult, Cell], Tuple[str, List[str]]],
    labels: Tuple[str, ...],
    engine: Callable,
    max_runs: int,
    max_depth: int,
    fold: Optional[Callable[[Outcome, RunResult], None]] = None,
    **fields: Any,
) -> ScenarioResult:
    """Explore the schedules of ``build`` under each cell's faults.

    ``engine`` is the exploration engine class (callers pass the name
    they resolve at call time).  Every run is classified by ``classify``
    into ``(label, violations)``, tallied into the cell's
    :class:`Outcome`, then handed to ``fold``.  ``fields`` go to the
    :class:`ScenarioResult`.  A cell's plans are reused across its runs:
    both reset their fired state when a run begins.
    """
    result = ScenarioResult(name=name, labels=labels, **fields)
    for cell in cells:
        outcome = Outcome(cell=cell, labels=labels)

        def run_one(policy: ScriptedPolicy) -> RunResult:
            try:
                return build(policy, cell.netplan, cell.fault_plan)
            except StepLimitExceeded as exc:
                # A builder that raises at the step budget: rebuild a
                # result from the diagnostics so the run still counts.
                trace = Trace()
                for ev in exc.recent_events or []:
                    trace.append(ev)
                return RunResult(trace=trace, step_limited=True,
                                 ready=list(exc.ready or []))

        def tally(run: RunResult) -> List[str]:
            outcome.add(*classify(run, cell))
            if fold is not None:
                fold(outcome, run)
            return []  # classification is tallied, not a violation

        engine(run_one, max_runs=max_runs, max_depth=max_depth).explore(
            tally)
        result.outcomes.append(outcome)
    return result


# ----------------------------------------------------------------------
# Fault-set search
# ----------------------------------------------------------------------
@dataclass
class FaultSetSearch:
    """Outcome of :func:`search_fault_sets`."""

    tried: int = 0
    #: Every defeating fault set found: (fault set, label).
    defeating: List[Tuple[Tuple[FaultAtom, ...], str]] = field(
        default_factory=list)
    #: ddmin-minimized first defeating set (None: nothing defeated).
    witness: Optional[Tuple[FaultAtom, ...]] = None
    witness_label: Optional[str] = None
    minimize_tests: int = 0

    @property
    def witness_kills(self) -> int:
        return sum(not isinstance(f, CutSpec) for f in self.witness or ())

    @property
    def witness_cuts(self) -> int:
        return sum(isinstance(f, CutSpec) for f in self.witness or ())

    def witness_plans(self) -> Tuple[Any, Any]:
        """The witness compiled to its replayable ``(FaultPlan, NetPlan)``."""
        return compile_faults(self.witness or ())

    def describe(self, what: str = "fault set") -> str:
        if self.witness is None:
            return "no {} found ({} plans tried)".format(what, self.tried)
        return "minimal {} ({}): {}".format(
            what, self.witness_label, describe_faults(self.witness))

    def to_dict(self) -> dict:
        fp, np = self.witness_plans()
        return {
            "tried": self.tried,
            "defeating": len(self.defeating),
            "witness": (None if self.witness is None
                        else [f.describe() for f in self.witness]),
            "witness_label": self.witness_label,
            "witness_kills": self.witness_kills,
            "witness_cuts": self.witness_cuts,
            "witness_fault_plan": None if fp is None else fp.to_dict(),
            "witness_net_plan": None if np is None else np.to_dict(),
            "minimize_tests": self.minimize_tests,
        }


def search_fault_sets(
    build: Builder,
    classify: Callable[[RunResult], str],
    atoms: Sequence[FaultAtom],
    bad_labels: Sequence[str],
    max_faults: int = 2,
    budget: int = 120,
    victim_of: Optional[Callable[[FaultAtom], Hashable]] = None,
) -> FaultSetSearch:
    """Search 1..``max_faults``-sized subsets of ``atoms`` for one whose
    FIFO run classifies into ``bad_labels``; ddmin the first one found.

    Candidates are enumerated deterministically, singletons first (so a
    pair witness proves no single fault suffices), in ``atoms`` order
    within each size, at most ``budget`` of them.  With ``victim_of``,
    sets striking one victim twice are skipped without counting.
    """

    def defeats(faults: Sequence[FaultAtom]) -> Optional[str]:
        fault_plan, netplan = compile_faults(faults)
        label = classify(build(ScriptedPolicy([]), netplan, fault_plan))
        return label if label in bad_labels else None

    result = FaultSetSearch()
    for size in range(1, max_faults + 1):
        for combo in itertools.combinations(atoms, size):
            if (victim_of is not None
                    and len({victim_of(a) for a in combo}) < size):
                continue
            if result.tried >= budget:
                break
            result.tried += 1
            label = defeats(combo)
            if label is not None:
                result.defeating.append((combo, label))
    if result.defeating:
        faults, result.witness_label = result.defeating[0]
        result.witness, result.minimize_tests = ddmin(
            faults, lambda subset: defeats(subset) is not None)
    return result
