"""The CEGIS loop: counterexample-guided search for a correct synchronizer.

The loop (after Samanta's synthesis-of-synchronization blueprint, with the
explore engine as the verifier) judges candidates smallest-first.  A
correct candidate must pass two conjunctive gates — footnote-3 safety and
reader concurrency — and each candidate meets the checks cheapest first:

1. **Oracle-cache lookup** (one file read) — a previous run already judged
   this exact candidate; replay the logged verdict
   (:mod:`repro.synth.cache`).
2. **Counterexample screening** (one scheduled run per banked trace) —
   every violation found so far is banked as a ddmin-minimized decision
   string; a new candidate that fails any banked schedule is rejected
   without exploration.  Replaying a decision string against a *different*
   candidate is well-defined because scripted policies clamp decisions to
   the live ready-set, and sound as a rejector because the battery judges
   the actual resulting run.
3. **Reader concurrency** (one run per banked overlap witness, then a
   search of at most 400 runs) — a correct repair must still *admit* a
   schedule with overlapping reads; safety via serialization is not a
   repair.  Overlap witnesses found on earlier candidates are replayed
   before any new search is spent, and a candidate that admits no overlap
   is rejected as ``no_concurrency`` without a safety search.
4. **Safety search** (an exhaustive pruned exploration) — only candidates
   that pass both screens pay this.  One counterexample refutes: the
   search stops at the first violating schedule, which is the same
   schedule a full search would report first (the DFS and its ``seen``
   set evolve identically up to that run), so the banked witness is
   unchanged and the verdict's ``runs`` is that schedule's 1-based index.
   A violation found within the budget is a ``violation`` and is banked
   ddmin-minimized; a search that finds none but hits the budget is
   ``inconclusive``, never a pass.

The first candidate in enumeration order that passes both gates wins, so
the gate order decides only what a rejection costs, never the winner: a
banked witness stays within ``max_depth`` and rejects only a candidate
that really violates.

Determinism: candidate order, exploration, ddmin, and screening order are
all deterministic, so two runs with the same configuration judge the same
candidates the same way — which is what lets the oracle cache resume an
interrupted run verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..explore.engine import ExplorationEngine
from ..explore.minimize import minimize_witness
from ..runtime.policies import ScriptedPolicy
from ..verify.registry import SYNTH_RW_BATTERY, battery
from .cache import (
    CORRECT,
    INCONCLUSIVE,
    NO_CONCURRENCY,
    VIOLATION,
    OracleCache,
)
from .candidates import (
    CONCURRENCY_WORKLOAD,
    FOOTNOTE3_WORKLOAD,
    reads_overlap,
    run_candidate_footnote3,
    run_candidate_two_readers,
)
from .grammar import Candidate, enumerate_candidates


@dataclass(frozen=True)
class Counterexample:
    """One banked, minimized violating schedule."""

    decisions: Tuple[int, ...]
    messages: Tuple[str, ...]
    source: str  # fingerprint of the candidate that produced it


@dataclass
class SynthConfig:
    """Search-space and budget knobs for one synthesis run."""

    max_size: int = 8
    max_candidates: int = 600
    max_runs: int = 4000          # exploration budget per candidate
    max_depth: int = 60
    include_serializer: bool = True
    use_cache: bool = True
    cache_root: Optional[str] = None

    @classmethod
    def fast(cls) -> "SynthConfig":
        """The CI smoke configuration: monitor+path families only."""
        return cls(max_size=7, max_candidates=200, max_runs=2000,
                   include_serializer=False)


@dataclass
class SynthStats:
    """E20's raw numbers: what each gate saved."""

    candidates_tried: int = 0
    cache_hits: int = 0
    cex_rejected: int = 0
    cex_replays: int = 0
    concurrency_rejected: int = 0
    explored: int = 0
    exploration_runs: int = 0
    overlap_searches: int = 0
    overlap_reused: int = 0
    minimize_tests: int = 0
    bank_size: int = 0
    by_family: Dict[str, int] = field(default_factory=dict)

    @property
    def explorations_skipped(self) -> int:
        """Candidates judged without a full exploration."""
        return (self.cache_hits + self.cex_rejected
                + self.concurrency_rejected)

    def to_dict(self) -> Dict[str, object]:
        return {
            "candidates_tried": self.candidates_tried,
            "cache_hits": self.cache_hits,
            "cex_rejected": self.cex_rejected,
            "cex_replays": self.cex_replays,
            "concurrency_rejected": self.concurrency_rejected,
            "explored": self.explored,
            "exploration_runs": self.exploration_runs,
            "overlap_searches": self.overlap_searches,
            "overlap_reused": self.overlap_reused,
            "minimize_tests": self.minimize_tests,
            "bank_size": self.bank_size,
            "explorations_skipped": self.explorations_skipped,
            "by_family": dict(sorted(self.by_family.items())),
        }


@dataclass
class SynthOutcome:
    """Result of one synthesis run."""

    winner: Optional[Candidate]
    stats: SynthStats
    bank: List[Counterexample]
    verification: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.winner is not None


def synthesize(
    config: Optional[SynthConfig] = None,
    log: Optional[Callable[[str], None]] = None,
) -> SynthOutcome:
    """Search the candidate grammar for the smallest correct synchronizer.

    Returns the first (therefore minimal) candidate which admits a
    reader-overlap schedule AND whose footnote-3 exploration is
    exhaustively violation-free — or ``winner=None`` when the bounded space
    contains no such candidate (raise ``max_size``).
    """
    config = config or SynthConfig()
    say = log or (lambda message: None)
    check = battery(*SYNTH_RW_BATTERY)
    cache = (OracleCache(config.cache_root) if config.cache_root
             else OracleCache()) if config.use_cache else None
    stats = SynthStats()
    bank: List[Counterexample] = []
    overlap_witnesses: List[Tuple[int, ...]] = []

    def store(candidate: Candidate, verdict: Dict[str, object]) -> None:
        if cache is not None:
            verdict = dict(verdict)
            verdict["battery"] = list(SYNTH_RW_BATTERY)
            cache.store(candidate, FOOTNOTE3_WORKLOAD, SYNTH_RW_BATTERY,
                        verdict)

    def bank_add(cex: Counterexample) -> None:
        if all(c.decisions != cex.decisions for c in bank):
            bank.append(cex)
            stats.bank_size = len(bank)

    for candidate in enumerate_candidates(
            config.max_size, include_serializer=config.include_serializer):
        if stats.candidates_tried >= config.max_candidates:
            say("candidate budget exhausted")
            break
        stats.candidates_tried += 1
        family = candidate.family
        stats.by_family[family] = stats.by_family.get(family, 0) + 1

        # Gate 1: the oracle cache.
        cached = (cache.lookup(candidate, FOOTNOTE3_WORKLOAD,
                               SYNTH_RW_BATTERY)
                  if cache is not None else None)
        if cached is not None:
            stats.cache_hits += 1
            if cached.get("witness") is not None:
                bank_add(Counterexample(
                    decisions=tuple(int(d) for d in cached["witness"]),
                    messages=tuple(cached.get("messages", ())),
                    source=candidate.fingerprint,
                ))
            if cached.get("status") == CORRECT:
                say("cache: {} already certified".format(
                    candidate.describe()))
                return SynthOutcome(candidate, stats, bank,
                                    verification=dict(cached))
            continue

        # Gate 2: banked counterexamples, one scripted run each.
        screened = None
        for cex in bank:
            stats.cex_replays += 1
            run = run_candidate_footnote3(
                candidate, ScriptedPolicy(list(cex.decisions)))
            messages = check(run)
            if messages:
                screened = (cex, messages)
                break
        if screened is not None:
            cex, messages = screened
            stats.cex_rejected += 1
            store(candidate, {
                "status": VIOLATION,
                "via": "counterexample",
                "witness": list(cex.decisions),
                "messages": list(messages),
                "runs": 1,
            })
            continue

        # Gate 3: reader concurrency.  Banked overlap witnesses first,
        # then a small search on the two-reader probe.
        overlap: Optional[Tuple[int, ...]] = None
        for witness in overlap_witnesses:
            run = run_candidate_two_readers(
                candidate, ScriptedPolicy(list(witness)))
            if reads_overlap(run):
                overlap = witness
                stats.overlap_reused += 1
                break
        if overlap is None:
            stats.overlap_searches += 1
            probe = ExplorationEngine(
                (lambda cand: lambda policy:
                 run_candidate_two_readers(cand, policy))(candidate),
                max_runs=400,
                max_depth=config.max_depth, prune=True)
            found = probe.explore(reads_overlap, stop_at_first=True)
            overlap = found.witness
            if overlap is None:
                stats.concurrency_rejected += 1
                say("size {} {}: serializes readers — rejected".format(
                    candidate.size, candidate.describe()))
                store(candidate, {"status": NO_CONCURRENCY,
                                  "runs": found.runs})
                continue
            overlap_witnesses.append(overlap)

        # Gate 4: the exhaustive safety search, refuted at the first
        # violating schedule.
        runner = (lambda cand: lambda policy:
                  run_candidate_footnote3(cand, policy))(candidate)
        engine = ExplorationEngine(runner, max_runs=config.max_runs,
                                   max_depth=config.max_depth, prune=True)
        result = engine.explore(check, stop_at_first=True)
        stats.explored += 1
        stats.exploration_runs += result.runs
        if not result.ok:
            minimized = minimize_witness(runner, check, result.witness)
            stats.minimize_tests += minimized.tests
            bank_add(Counterexample(
                decisions=minimized.minimized,
                messages=minimized.messages,
                source=candidate.fingerprint,
            ))
            say("size {} {}: violated (schedule {}; banked cex of {} "
                "decision(s))".format(
                    candidate.size, candidate.describe(), result.runs,
                    len(minimized.minimized)))
            store(candidate, {
                "status": VIOLATION,
                "via": "exploration",
                "witness": list(minimized.minimized),
                "messages": list(minimized.messages),
                "runs": result.runs,
            })
            continue
        if not result.exhausted:
            say("budget hit on {} — rejected as inconclusive".format(
                candidate.describe()))
            store(candidate, {"status": INCONCLUSIVE,
                              "runs": result.runs})
            continue

        verification = {
            "status": CORRECT,
            "runs": result.runs,
            "states": result.states,
            "pruned": result.pruned,
            "overlap_witness": list(overlap),
            "concurrency_workload": CONCURRENCY_WORKLOAD,
        }
        say("size {} {}: CORRECT ({} schedules, exhaustive)".format(
            candidate.size, candidate.describe(), result.runs))
        store(candidate, verification)
        return SynthOutcome(candidate, stats, bank,
                            verification=verification)

    return SynthOutcome(None, stats, bank)
