"""The exploration engine: pruned stateless search over schedule space.

Because all nondeterminism flows through the scheduling policy, a run is a
pure function of its decision string.  The engine enumerates decision
strings (run a prefix, read back how many alternatives existed at each
step, queue every first-deviation sibling) exactly like the naive DFS it
replaces — but with **equivalence pruning**: a :class:`RecordingPolicy`
captures the scheduler's canonical state fingerprint before every decision
the search reads
(:meth:`~repro.runtime.scheduler.Scheduler.fingerprint`), and a work item
that would re-enter an already-claimed ``(state, chosen process)`` subtree
is dropped.  Interleavings that are permutations of independent steps
converge to the same canonical state, so each equivalence class is visited
once — a sleep-set/state-caching reduction in the DPOR family (see
DESIGN.md §9 for the soundness argument and its boundary).  A work item
carries the event digest its parent run had where the item branches off,
so a run hashes nothing while it replays the parent's prefix.

This is the one schedule-space search: the CLI, the regression gate, the
synthesis engine and every fault campaign run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult
from ..verify.detectors import Checker

BuildAndRun = Callable[[ScriptedPolicy], RunResult]

#: A pruning key: (canonical state fingerprint, pid chosen from it).  Two
#: work items with the same key root isomorphic subtrees.
PruneKey = Tuple[int, int]

#: A frontier item: a decision string and the event digest its parent run
#: had at the item's branch decision (``None`` when pruning is off).
WorkItem = Tuple[Tuple[int, ...], Optional[int]]


class RecordingPolicy(ScriptedPolicy):
    """A :class:`ScriptedPolicy` that additionally records the canonical
    state fingerprint, the event digest and the pid of every ready process
    at the decisions a search reads — the raw material of equivalence
    pruning.  The scheduler invokes :meth:`observe_state` right before each
    ``choose`` (duck-typed hook).

    With a branching ``horizon`` (a search's ``max_depth``) the policy
    snapshots only decisions ``len(decisions) <= i < horizon``: the ones
    :func:`expand_record` can branch on.  The replayed prefix and the
    decisions past the horizon are never read, so they are never hashed.
    Without a horizon it snapshots every decision.  :attr:`first` is the
    index of the first decision snapshotted.

    With ``claimed`` — the search's own ``seen`` set, read and never
    written — the policy also stops where :func:`expand_record` will stop
    reading: at the first decision whose default key ``(fingerprint,
    ready[0])`` is in ``claimed`` or among the keys the expansion adds
    before it (kept in a run-local set).  That snapshot is the last one
    taken, and the scheduler stops folding the event digest for the rest
    of the run.  Exact only when ``claimed`` is the ``seen`` the record is
    expanded against (DESIGN.md §9).  ``claimed`` needs a ``horizon``:
    without one the prefix, where the pick is not the default, is
    snapshotted too.

    With ``digest`` — the event digest the parent run had at decision
    ``len(decisions) - 1``, where this run branches off it — the scheduler
    folds no digest term while the run replays its prefix and starts
    folding at that decision from ``digest``; the root's digest is ``0``,
    at decision 0.  Without it the digest is folded from decision 0.  A
    run is a pure function of its decision string, so the replay logs the
    events the parent logged and both ways give the same digest
    (DESIGN.md §9).  ``digest`` needs a ``horizon``: without one the
    prefix, folded by no one, is snapshotted too.

    :attr:`fp_seconds` accumulates the wall clock spent taking snapshots
    (canonical-state hashing), so harness telemetry can attribute it
    apart from scheduler stepping.  Timing is passive: decisions are the
    same whether or not anyone reads it.
    """

    def __init__(
        self,
        decisions: Optional[Sequence[int]] = None,
        horizon: Optional[int] = None,
        claimed: Optional[Set[PruneKey]] = None,
        digest: Optional[int] = None,
    ) -> None:
        if horizon is None and (claimed is not None or digest is not None):
            raise ValueError("a RecordingPolicy with claimed keys or an "
                             "inherited digest needs a horizon")
        super().__init__(decisions)
        self.horizon = horizon
        self._claimed = claimed
        self.first = 0 if horizon is None else len(self.decisions)
        if digest is None:
            self._fold_from, self._inherited = 0, 0
        else:
            self._fold_from = max(len(self.decisions) - 1, 0)
            self._inherited = digest
        self.fingerprints: List[int] = []
        self.digests: List[int] = []
        self.ready_pids: List[Tuple[int, ...]] = []
        self._stop = horizon
        self._local: Set[PruneKey] = set()
        self.fp_seconds = 0.0

    def observe_state(self, sched) -> None:
        index = self._cursor
        if index == self._fold_from:
            # Enabled here whether or not this decision is snapshotted, so
            # the event digest covers the run from the branch to the cut.
            sched.enable_fingerprinting(self._inherited)
        if index < self.first or (self._stop is not None
                                  and index >= self._stop):
            return
        start = perf_counter()
        fingerprint = sched.fingerprint()
        ready = tuple(p.pid for p in sched._ready)
        self.fp_seconds += perf_counter() - start
        self.fingerprints.append(fingerprint)
        self.digests.append(sched._fp_digest)
        self.ready_pids.append(ready)
        claimed = self._claimed
        if claimed is None:
            return
        # Past the prefix the pick is 0, so ready[0] is the default.  The
        # keys expand_record adds at this decision: every sibling's, then
        # the default's unless the default is claimed and it breaks.
        local = self._local
        for pid in ready[1:]:
            local.add((fingerprint, pid))
        default = (fingerprint, ready[0])
        if default in claimed or default in local:
            self._stop = index + 1
            sched.disable_fingerprinting()
        else:
            local.add(default)

    def reset(self) -> None:
        super().reset()
        self.fingerprints = []
        self.digests = []
        self.ready_pids = []
        self._stop = self.horizon
        self._local = set()
        self.fp_seconds = 0.0


@dataclass(frozen=True)
class RunRecord:
    """Everything the search needs from one executed schedule: a
    reduction of the run, so the trace can be dropped as soon as the
    oracles have read it.

    ``fingerprints[i]``, ``digests[i]`` (the event digest folded into
    ``fingerprints[i]``) and ``ready_pids[i]`` describe decision
    ``len(prefix) + i``; they run up to the branching horizon at most, or
    up to the decision where a policy with claimed keys cut (and are empty
    when pruning is off)."""

    prefix: Tuple[int, ...]
    taken: Tuple[int, ...]
    branch_log: Tuple[int, ...]
    fingerprints: Tuple[int, ...]
    digests: Tuple[int, ...]
    ready_pids: Tuple[Tuple[int, ...], ...]
    messages: Tuple[str, ...]

    @classmethod
    def from_run(
        cls,
        prefix: Sequence[int],
        policy: ScriptedPolicy,
        messages: Sequence[str],
    ) -> "RunRecord":
        # Drop any snapshots of the replayed prefix (a policy without a
        # horizon takes them) so the tuples start at decision len(prefix).
        skip = len(prefix) - getattr(policy, "first", 0)
        return cls(
            prefix=tuple(prefix),
            taken=tuple(policy.taken),
            branch_log=tuple(policy.branch_log),
            fingerprints=tuple(getattr(policy, "fingerprints", ())[skip:]),
            digests=tuple(getattr(policy, "digests", ())[skip:]),
            ready_pids=tuple(getattr(policy, "ready_pids", ())[skip:]),
            messages=tuple(messages),
        )


@dataclass
class DecisionCounts:
    """Where a search's scheduling decisions went, summed over its runs.

    Every decision of a run is exactly one of:

    * ``replayed`` — re-executing the work item's prefix (process bodies
      are generators, so a prefix cannot be restored, only re-run);
    * ``read`` — a decision the search reads to branch on: from the end
      of the prefix up to the branching horizon or the claimed-key cut;
    * ``after_cut`` — run past the cut or the horizon; the search never
      reads it.
    """

    replayed: int = 0
    read: int = 0
    after_cut: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"replayed": self.replayed, "read": self.read,
                "after_cut": self.after_cut}


@dataclass
class ExplorationResult:
    """Outcome of a schedule-space search.

    Attributes:
        runs: number of schedules executed.
        violations: list of (decision string, violation messages).
        exhausted: True when the whole (depth-bounded) space was covered —
            i.e. the frontier drained, even if that happened exactly at the
            run budget.
        pruned: work items skipped because their (state, choice) subtree
            was already claimed (0 when pruning is off).
        states: distinct (state, choice) subtrees claimed during the search
            (0 when pruning is off).
        decisions: :class:`DecisionCounts` over every executed run.
        runs_cut: runs that stopped reading before the branching horizon
            because a claimed-key cut ended them (0 when pruning is off).
        witness: decisions of the first violating schedule, if any.
    """

    runs: int = 0
    violations: List[Tuple[Tuple[int, ...], List[str]]] = field(
        default_factory=list
    )
    exhausted: bool = True
    pruned: int = 0
    states: int = 0
    decisions: DecisionCounts = field(default_factory=DecisionCounts)
    runs_cut: int = 0

    def count_decisions(self, record: RunRecord, max_depth: int,
                        prune: bool) -> None:
        """Add one executed run's decisions, from its record's lengths."""
        total = len(record.taken)
        replayed = min(len(record.prefix), total)
        horizon = max(replayed, min(total, max_depth))
        read = len(record.fingerprints) if prune else horizon - replayed
        self.decisions.replayed += replayed
        self.decisions.read += read
        self.decisions.after_cut += total - replayed - read
        if replayed + read < horizon:
            self.runs_cut += 1

    @property
    def witness(self) -> Optional[Tuple[int, ...]]:
        if self.violations:
            return self.violations[0][0]
        return None

    @property
    def ok(self) -> bool:
        """True when no schedule violated the property."""
        return not self.violations


def expand_record(
    record: RunRecord,
    max_depth: int,
    seen: Optional[Set[PruneKey]],
) -> Tuple[List[WorkItem], int]:
    """First-deviation children of one executed schedule.

    Each child is a :data:`WorkItem`: its decision string and, with
    pruning on, the record's event digest at the child's branch decision
    (the last of its string), which the child's run starts folding from.

    With ``seen`` (pruning on), sibling items whose ``(fingerprint, pid)``
    subtree is already claimed are dropped, the default continuation's key
    is claimed at every depth, and expansion stops early when the default
    continuation re-enters a subtree some earlier item owns — everything
    deeper is a reordering of schedules explored from that item.  Returns
    ``(children, pruned_count)``.  Mutates ``seen``.
    """
    children: List[WorkItem] = []
    pruned = 0
    start = len(record.prefix)
    horizon = min(len(record.branch_log), max_depth)
    for position in range(start, horizon):
        alternatives = record.branch_log[position]
        base = record.taken[:position]
        digest = None
        if seen is not None:
            fingerprint = record.fingerprints[position - start]
            digest = record.digests[position - start]
            ready = record.ready_pids[position - start]
        for choice in range(1, alternatives):
            if seen is not None:
                key = (fingerprint, ready[choice])
                if key in seen:
                    pruned += 1
                    continue
                seen.add(key)
            children.append((base + (choice,), digest))
        if seen is not None:
            default_key = (fingerprint, ready[record.taken[position]])
            if default_key in seen:
                # The run's own continuation from here on retraces a subtree
                # an earlier item claimed; deeper deviations live inside it.
                pruned += 1
                break
            seen.add(default_key)
    return children, pruned


class ExplorationEngine:
    """Depth-first pruned search over the schedule space of one system.

    Args:
        build_and_run: builds a *fresh* system with the given policy and
            runs it to completion, returning the :class:`RunResult`.  It
            must not share mutable state across calls.
        max_runs: schedule budget.
        max_depth: decisions beyond this depth are not branched on
            (the default choice is taken), bounding the tree width.
        prune: enable canonical-fingerprint equivalence pruning.  Requires
            the system's shared *user* state (if any) to be registered via
            :meth:`Scheduler.add_fingerprint_provider`; mechanism state is
            always captured.  Off by default for drop-in compatibility with
            the naive DFS.
        telemetry: optional :class:`~repro.obs.harness.HarnessTelemetry`
            receiving phase-attributed wall-clock accounting and progress
            counters.  Duck-typed (the explore package never imports obs):
            a sink whose class sets ``IS_NULL = True`` is normalized to
            ``None`` here.  Observed or not, a search executes the same
            code path; an unobserved one skips only the additions.
            Telemetry is passive — results are byte-identical with or
            without it.
    """

    def __init__(
        self,
        build_and_run: BuildAndRun,
        max_runs: int = 2000,
        max_depth: int = 60,
        prune: bool = False,
        telemetry=None,
    ) -> None:
        self._build_and_run = build_and_run
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.prune = prune
        if telemetry is not None and getattr(telemetry, "IS_NULL", False):
            telemetry = None
        self.telemetry = telemetry
        #: The running search's ``seen`` set (``None`` outside a pruned
        #: :meth:`explore`): its runs stop hashing where expansion stops.
        self._seen: Optional[Set[PruneKey]] = None

    def run_one(self, prefix: Sequence[int], digest: Optional[int],
                check: Checker) -> RunRecord:
        """Execute a single schedule and reduce it to a :class:`RunRecord`.

        ``digest`` is the work item's inherited event digest (see
        :class:`RecordingPolicy`); it is ignored when pruning is off.

        With telemetry, its wall clock is charged to the phases ``step``
        (scheduler stepping, fingerprint time subtracted), ``fingerprint``,
        ``check`` (oracle battery) and ``record`` (the reduction)."""
        policy = (RecordingPolicy(prefix, self.max_depth, self._seen, digest)
                  if self.prune else ScriptedPolicy(prefix))
        start = perf_counter()
        run = self._build_and_run(policy)
        ran = perf_counter()
        messages = check(run)
        checked = perf_counter()
        record = RunRecord.from_run(prefix, policy, messages)
        telemetry = self.telemetry
        if telemetry is not None:
            fp_seconds = getattr(policy, "fp_seconds", 0.0)
            telemetry.add("step", max(0.0, (ran - start) - fp_seconds))
            telemetry.add("fingerprint", fp_seconds)
            telemetry.add("check", checked - ran)
            telemetry.add("record", perf_counter() - checked)
        return record

    def explore(
        self,
        check: Checker,
        stop_at_first: bool = False,
    ) -> ExplorationResult:
        """Search for schedules where ``check`` reports violations.

        Every search starts from an empty ``seen`` set: prune keys are
        never carried between searches (DESIGN.md §14).

        Args:
            check: maps a run result to violation messages (empty = ok).
            stop_at_first: return as soon as one violating schedule is
                found (used when hunting for a witness, e.g. experiment E5).
        """
        result = ExplorationResult()
        frontier: List[WorkItem] = [((), 0)]
        seen: Optional[Set[PruneKey]] = set() if self.prune else None
        self._seen = seen
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.begin(max_runs=self.max_runs)
        try:
            while frontier:
                if result.runs >= self.max_runs:
                    result.exhausted = False
                    break
                prefix, digest = frontier.pop()
                record = self.run_one(prefix, digest, check)
                result.runs += 1
                result.count_decisions(record, self.max_depth, self.prune)
                if record.messages:
                    result.violations.append(
                        (record.taken, list(record.messages)))
                    if stop_at_first:
                        # Covered iff neither the frontier nor this
                        # record's own children are left; expanding against
                        # a copy of seen counts them without moving
                        # `states`.
                        children, __ = expand_record(
                            record, self.max_depth,
                            set(seen) if seen is not None else None)
                        result.exhausted = not (frontier or children)
                        break
                mark = perf_counter() if telemetry is not None else 0.0
                children, pruned = expand_record(record, self.max_depth,
                                                 seen)
                result.pruned += pruned
                frontier.extend(children)
                if telemetry is not None:
                    telemetry.note_progress(result.runs, len(frontier),
                                            result.pruned)
                    telemetry.add("collect", perf_counter() - mark)
        except BaseException:
            if telemetry is not None:
                telemetry.release()
            raise
        result.states = len(seen) if seen is not None else 0
        self._seen = None
        if telemetry is not None:
            telemetry.finish()
        return result

    def find_schedule(self, predicate: Checker) -> Optional[Tuple[int, ...]]:
        """Return the decision string of the first schedule satisfying
        ``predicate`` (non-empty result = found), or ``None``."""
        found = self.explore(predicate, stop_at_first=True)
        return found.witness
