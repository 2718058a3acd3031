"""Auto-repair of the paper's footnote-3 anomaly, end to end.

The paper's Figure-1 path-expression readers/writers program is reproduced
verbatim in :mod:`repro.problems.readers_writers.pathexpr_impl`, anomaly
included: footnote 3 concedes that under the Figure-1 program a second
writer can overtake a reader that arrived while the first writer was
writing — readers priority, the stated goal, is not actually enforced.

:func:`repair_footnote3` closes the loop the paper could only gesture at:

1. **Diagnose** — explore the verbatim Figure-1 program under the
   footnote-3 arrival pattern until the strict priority oracle finds a
   violating schedule; ddmin the witness and attach the causal chain that
   explains *why* the overtake happens (who ran, who waited on what).
2. **Repair** — run the CEGIS loop (:func:`repro.synth.cegis.synthesize`)
   over the candidate grammar until it finds a minimal synchronizer that
   is exhaustively violation-free on the same arrival pattern *and* still
   admits concurrent readers.

The report carries both halves, so the artifact reads as: here is the
bug, here is the schedule that triggers it, here is why, and here is the
smallest program in the grammar that does not have it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..explore.engine import ExplorationEngine
from ..explore.minimize import MinimizedWitness, minimize_witness
from ..explore.targets import get_target
from ..problems.readers_writers.pathexpr_impl import FIGURE1_PATHS
from .cegis import SynthConfig, SynthOutcome, synthesize


@dataclass
class RepairReport:
    """Diagnosis + synthesized repair for the footnote-3 anomaly."""

    broken_paths: str
    diagnosis_runs: int
    witness: MinimizedWitness
    outcome: SynthOutcome

    @property
    def ok(self) -> bool:
        return self.outcome.ok

    def to_dict(self) -> Dict[str, object]:
        winner = self.outcome.winner
        return {
            "broken": {
                "paths": self.broken_paths,
                "diagnosis_runs": self.diagnosis_runs,
                "witness": list(self.witness.minimized),
                "messages": list(self.witness.messages),
                "causal": list(self.witness.causal),
            },
            "repair": {
                "found": self.ok,
                "winner": winner.to_dict() if winner else None,
                "verification": dict(self.outcome.verification),
            },
            "stats": self.outcome.stats.to_dict(),
        }

    def render(self) -> str:
        """Human-readable repair report."""
        out: List[str] = []
        out.append("== broken program (Figure 1, verbatim) ==")
        out.append(self.broken_paths.strip())
        out.append("")
        out.append("== diagnosis ==")
        out.append("violation found after {} run(s); minimized witness: "
                   "{} decision(s)".format(
                       self.diagnosis_runs, len(self.witness.minimized)))
        for message in self.witness.messages:
            out.append("  violation: {}".format(message))
        if self.witness.causal:
            out.append("  causal chain:")
            for line in self.witness.causal:
                out.append("    {}".format(line))
        out.append("")
        out.append(self.witness.timeline)
        out.append("")
        out.append("== synthesized repair ==")
        if self.ok:
            winner = self.outcome.winner
            out.append(winner.describe())
            out.append("  size {} ({} family)".format(
                winner.size, winner.family))
            verification = self.outcome.verification
            out.append(
                "  verified: {} schedule(s), exhaustive, violation-free; "
                "reader-overlap witness {}".format(
                    verification.get("runs", "?"),
                    tuple(verification.get("overlap_witness", ()))))
        else:
            out.append("no correct candidate within bounds — raise "
                       "--max-size")
        out.append("")
        stats = self.outcome.stats
        out.append("== search ==")
        out.append(
            "  {} candidate(s): {} via cache, {} via banked "
            "counterexample, {} via the concurrency gate, {} explored ({} "
            "schedules)".format(
                stats.candidates_tried, stats.cache_hits,
                stats.cex_rejected, stats.concurrency_rejected,
                stats.explored, stats.exploration_runs))
        out.append("  counterexample bank: {} trace(s); overlap witnesses "
                   "reused {}x".format(stats.bank_size,
                                       stats.overlap_reused))
        return "\n".join(out)


def repair_footnote3(
    config: Optional[SynthConfig] = None,
    log: Optional[Callable[[str], None]] = None,
) -> RepairReport:
    """Diagnose the Figure-1 anomaly, then synthesize a minimal repair."""
    say = log or (lambda message: None)
    target = get_target("footnote3", "pathexpr")
    say("diagnosing Figure 1 under the footnote-3 arrival pattern...")
    engine = ExplorationEngine(target.runner(), max_runs=2000, max_depth=60,
                               prune=True)
    found = engine.explore(target.checker, stop_at_first=True)
    if found.witness is None:
        raise RuntimeError(
            "Figure-1 exploration found no violation in 2000 schedules of "
            "depth 60 — the anomaly demo needs a witness")
    witness = minimize_witness(target.runner(), target.checker,
                               found.witness)
    say("anomaly reproduced in {} run(s); witness minimized to {} "
        "decision(s)".format(found.runs, len(witness.minimized)))
    say("synthesizing a repair...")
    outcome = synthesize(config, log=log)
    return RepairReport(
        broken_paths=FIGURE1_PATHS,
        diagnosis_runs=found.runs,
        witness=witness,
        outcome=outcome,
    )
