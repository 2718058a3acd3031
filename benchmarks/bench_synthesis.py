"""E20 — CEGIS synthesis & repair of the footnote-3 anomaly.

The synthesis engine (DESIGN.md §14) must not just *find* the repair — it
must find it economically and resumably.  This bench runs the full
pipeline in an isolated cache directory and asserts the three properties
the subsystem is sold on:

* **repair found** — the CEGIS loop terminates with a minimal candidate
  that is exhaustively violation-free on the footnote-3 arrival pattern
  and still admits concurrent readers;
* **counterexample leverage** — banked ddmin-minimized counterexamples
  reject at least 2x as many candidates as full explorations are paid
  for (the CEGIS economy: one exploration's witness prices out a family
  of candidates at one run each);
* **replayable oracle cache** — a second run over the same cache judges
  every candidate without a single exploration, and each cached
  violation verdict re-derives from its logged witness in one run.

Numbers land in ``BENCH_synthesis.json``.
"""

import os
import shutil
import tempfile
import time

from conftest import emit, persist

from repro.synth import (
    OracleCache,
    SynthConfig,
    repair_footnote3,
    replay_verdict,
)
from repro.synth.cache import VIOLATION
from repro.synth.grammar import Candidate


def _config(root: str) -> SynthConfig:
    config = SynthConfig.fast()
    config.cache_root = os.path.join(root, "oracle")
    return config


def test_e20_synthesis_repair():
    root = tempfile.mkdtemp(prefix="bench_synth_")
    try:
        config = _config(root)

        start = time.perf_counter()
        report = repair_footnote3(config)
        cold_s = time.perf_counter() - start
        stats = report.outcome.stats

        # The flagship claim: the anomaly is diagnosed and repaired.
        assert report.witness.messages, "diagnosis must reproduce footnote 3"
        assert report.ok, "no repair found within --fast bounds"
        winner = report.outcome.winner
        assert report.outcome.verification.get("runs", 0) > 0
        assert report.outcome.verification.get("overlap_witness") is not None

        # The CEGIS economy: counterexamples must carry >=2x the load of
        # exploration (E20 acceptance threshold).
        assert stats.explored > 0
        assert stats.cex_rejected >= 2 * stats.explored, (
            "counterexample reuse pruned only {} candidates vs {} "
            "explorations".format(stats.cex_rejected, stats.explored))

        # Warm resume: same cache, zero explorations, same winner.
        start = time.perf_counter()
        resumed = repair_footnote3(config)
        warm_s = time.perf_counter() - start
        rstats = resumed.outcome.stats
        assert resumed.outcome.winner == winner
        assert rstats.explored == 0, "resume must not re-explore"
        assert rstats.cache_hits == rstats.candidates_tried

        # Replayable verdicts: every cached violation re-derives from its
        # logged witness in exactly one scheduled run.
        cache = OracleCache(config.cache_root)
        replayed = audited = 0
        for entry in cache.entries():
            verdict = entry["verdict"]
            if verdict.get("status") != VIOLATION:
                continue
            audited += 1
            candidate = Candidate(
                paths_text=entry["candidate"]["paths"],
                read_guard=tuple(entry["candidate"]["read_guard"]),
                write_guard=tuple(entry["candidate"]["write_guard"]),
                path_size=(entry["candidate"]["size"]
                           - len(entry["candidate"]["read_guard"])
                           - len(entry["candidate"]["write_guard"])),
            )
            if replay_verdict(candidate, verdict):
                replayed += 1
        assert audited > 0
        assert replayed == audited, (
            "{}/{} cached violations failed to re-derive from their "
            "witness".format(audited - replayed, audited))

        payload = {
            "winner": winner.to_dict(),
            "diagnosis": {
                "runs": report.diagnosis_runs,
                "witness_decisions": len(report.witness.minimized),
                "messages": list(report.witness.messages),
            },
            "verification": dict(report.outcome.verification),
            "cold": dict(stats.to_dict(), seconds=round(cold_s, 3)),
            "warm": dict(rstats.to_dict(), seconds=round(warm_s, 3)),
            "cex_leverage": round(
                stats.cex_rejected / float(stats.explored), 2),
            "violation_verdicts_replayed": replayed,
        }
        persist("synthesis", payload)
        emit(
            "E20: CEGIS synthesis & repair (footnote-3)",
            "winner: {}\n"
            "cold: {} candidate(s), {} explored ({} schedules), {} "
            "rejected by banked counterexamples ({:.1f}x leverage), "
            "{:.2f}s\n"
            "warm: {} cache hit(s), 0 explorations, {:.2f}s\n"
            "cache audit: {}/{} violation verdicts re-derived from logged "
            "witnesses".format(
                winner.describe(),
                stats.candidates_tried, stats.explored,
                stats.exploration_runs, stats.cex_rejected,
                stats.cex_rejected / float(stats.explored), cold_s,
                rstats.cache_hits, warm_s,
                replayed, audited,
            ),
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
