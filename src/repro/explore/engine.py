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
DESIGN.md §9 for the soundness argument and its boundary).

This is the one schedule-space search: the CLI, the regression gate, the
synthesis engine and every fault campaign run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult

BuildAndRun = Callable[[ScriptedPolicy], RunResult]
Checker = Callable[[RunResult], List[str]]

#: A pruning key: (canonical state fingerprint, pid chosen from it).  Two
#: work items with the same key root isomorphic subtrees.
PruneKey = Tuple[int, int]


class RecordingPolicy(ScriptedPolicy):
    """A :class:`ScriptedPolicy` that additionally records the canonical
    state fingerprint and the pid of every ready process at the decisions
    a search reads — the raw material of equivalence pruning.  The
    scheduler invokes :meth:`observe_state` right before each ``choose``
    (duck-typed hook).

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
    """

    def __init__(
        self,
        decisions: Optional[Sequence[int]] = None,
        horizon: Optional[int] = None,
        claimed: Optional[Set[PruneKey]] = None,
    ) -> None:
        if claimed is not None and horizon is None:
            raise ValueError("a RecordingPolicy with claimed keys needs a "
                             "horizon")
        super().__init__(decisions)
        self.horizon = horizon
        self._claimed = claimed
        self.first = 0 if horizon is None else len(self.decisions)
        self.fingerprints: List[int] = []
        self.ready_pids: List[Tuple[int, ...]] = []
        self._stop = horizon
        self._local: Set[PruneKey] = set()

    def observe_state(self, sched) -> None:
        index = self._cursor
        if index == 0:
            # Enabled at the first decision whether or not it is
            # snapshotted, so the event digest covers the run up to the cut.
            sched.enable_fingerprinting()
        if index < self.first or (self._stop is not None
                                  and index >= self._stop):
            return
        fingerprint = sched.fingerprint()
        ready = tuple(p.pid for p in sched._ready)
        self.fingerprints.append(fingerprint)
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
        self.ready_pids = []
        self._stop = self.horizon
        self._local = set()


class TimedRecordingPolicy(RecordingPolicy):
    """A :class:`RecordingPolicy` that additionally accumulates the wall
    clock spent inside :meth:`observe_state` — i.e. in canonical-state
    fingerprint hashing — so harness telemetry can attribute fingerprint
    time separately from scheduler stepping.  Decisions are identical to
    the untimed policy (timing is passive), which is what keeps
    telemetry-on results byte-identical to telemetry-off ones."""

    def __init__(
        self,
        decisions: Optional[Sequence[int]] = None,
        horizon: Optional[int] = None,
        claimed: Optional[Set[PruneKey]] = None,
    ) -> None:
        super().__init__(decisions, horizon, claimed)
        self.fp_seconds = 0.0

    def observe_state(self, sched) -> None:
        start = perf_counter()
        super().observe_state(sched)
        self.fp_seconds += perf_counter() - start

    def reset(self) -> None:
        super().reset()
        self.fp_seconds = 0.0


def run_one_timed(
    build_and_run: BuildAndRun,
    prefix: Sequence[int],
    check: Checker,
    prune: bool,
    telemetry,
    max_depth: int,
    claimed: Optional[Set[PruneKey]] = None,
) -> RunRecord:
    """Execute one schedule with phase-attributed wall-clock accounting:
    ``step`` (scheduler stepping, fingerprint time subtracted),
    ``fingerprint``, ``check`` (oracle battery), ``record`` (RunRecord
    reduction).  The observed twin of :meth:`ExplorationEngine.run_one`;
    ``claimed`` is passed to the :class:`RecordingPolicy`.
    """
    policy = (TimedRecordingPolicy(prefix, max_depth, claimed) if prune
              else ScriptedPolicy(prefix))
    start = perf_counter()
    run = build_and_run(policy)
    ran = perf_counter()
    messages = check(run)
    checked = perf_counter()
    record = RunRecord.from_run(prefix, policy, messages)
    reduced = perf_counter()
    fp_seconds = getattr(policy, "fp_seconds", 0.0)
    telemetry.add("step", max(0.0, (ran - start) - fp_seconds))
    telemetry.add("fingerprint", fp_seconds)
    telemetry.add("check", checked - ran)
    telemetry.add("record", reduced - checked)
    return record


@dataclass(frozen=True)
class RunRecord:
    """Everything the search needs from one executed schedule: a
    reduction of the run, so the trace can be dropped as soon as the
    oracles have read it.

    ``fingerprints[i]`` and ``ready_pids[i]`` describe decision
    ``len(prefix) + i``; they run up to the branching horizon at most, or
    up to the decision where a policy with claimed keys cut (and are empty
    when pruning is off)."""

    prefix: Tuple[int, ...]
    taken: Tuple[int, ...]
    branch_log: Tuple[int, ...]
    fingerprints: Tuple[int, ...]
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
            ready_pids=tuple(getattr(policy, "ready_pids", ())[skip:]),
            messages=tuple(messages),
        )


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
        witness: decisions of the first violating schedule, if any.
    """

    runs: int = 0
    violations: List[Tuple[Tuple[int, ...], List[str]]] = field(
        default_factory=list
    )
    exhausted: bool = True
    pruned: int = 0
    states: int = 0

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
) -> Tuple[List[Tuple[int, ...]], int]:
    """First-deviation children of one executed schedule.

    With ``seen`` (pruning on), sibling items whose ``(fingerprint, pid)``
    subtree is already claimed are dropped, the default continuation's key
    is claimed at every depth, and expansion stops early when the default
    continuation re-enters a subtree some earlier item owns — everything
    deeper is a reordering of schedules explored from that item.  Returns
    ``(children, pruned_count)``.  Mutates ``seen``.
    """
    children: List[Tuple[int, ...]] = []
    pruned = 0
    start = len(record.prefix)
    horizon = min(len(record.branch_log), max_depth)
    for position in range(start, horizon):
        alternatives = record.branch_log[position]
        base = record.taken[:position]
        if seen is not None:
            fingerprint = record.fingerprints[position - start]
            ready = record.ready_pids[position - start]
        for choice in range(1, alternatives):
            if seen is not None:
                key = (fingerprint, ready[choice])
                if key in seen:
                    pruned += 1
                    continue
                seen.add(key)
            children.append(base + (choice,))
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
            ``None`` here, so an unobserved search executes the identical
            code path and pays only one ``is not None`` test per run.
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

    def run_one(self, prefix: Sequence[int], check: Checker) -> RunRecord:
        """Execute a single schedule and reduce it to a :class:`RunRecord`."""
        policy = (RecordingPolicy(prefix, self.max_depth, self._seen)
                  if self.prune else ScriptedPolicy(prefix))
        run = self._build_and_run(policy)
        return RunRecord.from_run(prefix, policy, check(run))

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
        frontier: List[Tuple[int, ...]] = [()]
        seen: Optional[Set[PruneKey]] = set() if self.prune else None
        self._seen = seen
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.begin(max_runs=self.max_runs)
        while frontier:
            if result.runs >= self.max_runs:
                result.exhausted = False
                break
            prefix = frontier.pop()
            if telemetry is None:
                record = self.run_one(prefix, check)
            else:
                record = run_one_timed(self._build_and_run, prefix, check,
                                       self.prune, telemetry, self.max_depth,
                                       seen)
            result.runs += 1
            if record.messages:
                result.violations.append((record.taken, list(record.messages)))
                if stop_at_first:
                    # Covered iff neither the frontier nor this record's own
                    # children are left; expanding against a copy of seen
                    # counts them without moving `states`.
                    children, __ = expand_record(
                        record, self.max_depth,
                        set(seen) if seen is not None else None)
                    result.exhausted = not (frontier or children)
                    break
            mark = perf_counter() if telemetry is not None else 0.0
            children, pruned = expand_record(record, self.max_depth, seen)
            result.pruned += pruned
            frontier.extend(children)
            if telemetry is not None:
                telemetry.note_progress(result.runs, len(frontier),
                                        result.pruned)
                telemetry.add("collect", perf_counter() - mark)
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
