"""Tests for the synthesis subsystem: grammar, CEGIS loop, oracle cache,
and the footnote-3 auto-repair.

The expensive full pipeline (``synthesize`` / ``repair_footnote3``) runs
once per module via fixtures; everything else asserts against those
shared outcomes or uses single scheduled runs.
"""

import os

import pytest

from repro.explore import ExplorationEngine
from repro.explore.minimize import minimize_witness
from repro.runtime.policies import ScriptedPolicy
from repro.synth import (
    Candidate,
    OracleCache,
    SynthConfig,
    cache_key,
    enumerate_candidates,
    enumerate_path_programs,
    reads_overlap,
    repair_footnote3,
    replay_verdict,
    run_candidate_footnote3,
    run_candidate_two_readers,
    synthesize,
)
from repro.synth.cache import CORRECT, VIOLATION
from repro.verify import SYNTH_RW_BATTERY, battery


def _config(tmp_root):
    config = SynthConfig.fast()
    config.cache_root = os.path.join(str(tmp_root), "oracle")
    return config


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("synth_cache")


@pytest.fixture(scope="module")
def outcome(cache_root):
    """One cold synthesis run, shared by every assertion below."""
    return synthesize(_config(cache_root))


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
def test_path_programs_deterministic_and_sized():
    first = enumerate_path_programs()
    second = enumerate_path_programs()
    assert [p.text for p in first] == [p.text for p in second]
    assert [p.size for p in first] == sorted(p.size for p in first)
    # The paper's own shapes are in the space: the exclusion selection and
    # the unconstrained two-path program.
    texts = [p.text for p in first]
    assert any("path { read } , write end" in t for t in texts)
    assert any("path read end" in t and "path write end" in t
               for t in texts)


def test_candidates_smallest_first_and_deterministic():
    a = list(enumerate_candidates(max_size=6))
    b = list(enumerate_candidates(max_size=6))
    assert a == b
    sizes = [c.size for c in a]
    assert sizes == sorted(sizes)
    assert all(c.size <= 6 for c in a)
    # Distinct candidates get distinct fingerprints (cache-key safety).
    prints = [c.fingerprint for c in a]
    assert len(set(prints)) == len(prints)


def test_serializer_family_gating():
    full = list(enumerate_candidates(max_size=6, include_serializer=True))
    fast = list(enumerate_candidates(max_size=6, include_serializer=False))
    assert len(fast) < len(full)
    assert any(c.family == "serializer" for c in full)
    assert not any(c.family == "serializer" for c in fast)


# ----------------------------------------------------------------------
# The CEGIS loop
# ----------------------------------------------------------------------
def test_synthesize_finds_minimal_correct_candidate(outcome):
    assert outcome.ok
    winner = outcome.winner
    # Smallest-first enumeration: nothing strictly smaller can be correct,
    # and the known-minimal repair is the burst-selection path plus a
    # single write guard (size 5).
    assert winner.size == 5
    assert "path { read } , write end" in winner.paths_text
    assert winner.write_guard == ("active(write)==0",)
    assert outcome.verification["status"] == CORRECT
    assert outcome.verification["runs"] > 0


def test_counterexamples_prune_without_exploration(outcome):
    stats = outcome.stats
    # The concurrency gate runs before the safety search, and one
    # counterexample refutes, so only the winner pays a full search: one
    # candidate is refuted at its first violating schedule.
    assert stats.concurrency_rejected > 0
    assert stats.explored == 2
    # The E20 acceptance bar: banked counterexamples reject at least 2x
    # as many candidates as full explorations are paid for.
    assert stats.cex_rejected >= 2 * stats.explored
    assert stats.explorations_skipped == (
        stats.cache_hits + stats.cex_rejected + stats.concurrency_rejected)
    assert stats.bank_size >= 1


def test_banked_counterexample_rejects_known_bad_candidate(outcome):
    """A banked witness rejects the broken pure-selection program in ONE
    scheduled run — no exploration."""
    broken = Candidate(paths_text="path read end\npath write end\n",
                       read_guard=(), write_guard=(), path_size=2)
    check = battery(*SYNTH_RW_BATTERY)
    rejected = False
    for cex in outcome.bank:
        run = run_candidate_footnote3(
            broken, ScriptedPolicy(list(cex.decisions)))
        if check(run):
            rejected = True
            break
    assert rejected, "no banked counterexample rejects the broken program"


def _cached(cache_root, status, via=None):
    """``(candidate, verdict)`` for each cached verdict of ``status``."""
    cache = OracleCache(os.path.join(str(cache_root), "oracle"))
    out = []
    for entry in cache.entries():
        verdict = entry["verdict"]
        if verdict.get("status") != status or (
                via is not None and verdict.get("via") != via):
            continue
        data = entry["candidate"]
        out.append((Candidate(
            paths_text=data["paths"],
            read_guard=tuple(data["read_guard"]),
            write_guard=tuple(data["write_guard"]),
            path_size=(data["size"] - len(data["read_guard"])
                       - len(data["write_guard"])),
        ), verdict))
    return out


def _safety_search(candidate):
    config = SynthConfig.fast()

    def runner(policy):
        return run_candidate_footnote3(candidate, policy)
    engine = ExplorationEngine(runner, max_runs=config.max_runs,
                               max_depth=config.max_depth, prune=True)
    return runner, engine


def test_refuting_at_the_first_violation_banks_the_full_search_witness(
        outcome, cache_root):
    """Stopping the safety search at its first violating schedule finds
    the witness a full search reports first, so the minimized, banked
    counterexample is the same."""
    refuted = _cached(cache_root, VIOLATION, via="exploration")
    assert refuted, "the fast search must refute a candidate by exploration"
    check = battery(*SYNTH_RW_BATTERY)
    for candidate, verdict in refuted:
        runner, engine = _safety_search(candidate)
        first = engine.explore(check, stop_at_first=True)
        full = engine.explore(check)
        assert first.witness is not None
        assert first.witness == full.witness
        first_min = minimize_witness(runner, check, first.witness)
        full_min = minimize_witness(runner, check, full.witness)
        assert first_min.minimized == full_min.minimized
        assert first_min.messages == full_min.messages
        assert list(first_min.minimized) == verdict["witness"]


def test_exploration_verdict_runs_is_the_first_violation_index(
        outcome, cache_root):
    """A refuted verdict's ``runs`` is the 1-based index, in a full
    search, of the first schedule that violates."""
    check = battery(*SYNTH_RW_BATTERY)
    for candidate, verdict in _cached(cache_root, VIOLATION,
                                      via="exploration"):
        indices = []

        def counting(run):
            messages = check(run)
            indices.append(bool(messages))
            return messages
        __, engine = _safety_search(candidate)
        engine.explore(counting)
        assert verdict["runs"] == indices.index(True) + 1


def test_default_config_finds_the_fast_winner(tmp_path, outcome):
    """The gate order decides what a rejection costs, never the winner."""
    config = SynthConfig()
    config.cache_root = str(tmp_path / "oracle")
    found = synthesize(config)
    assert found.winner == outcome.winner
    assert found.stats.explored == 2


def test_winner_admits_concurrent_readers(outcome):
    witness = outcome.verification["overlap_witness"]
    run = run_candidate_two_readers(
        outcome.winner, ScriptedPolicy([int(d) for d in witness]))
    assert reads_overlap(run)


# ----------------------------------------------------------------------
# The replayable oracle cache
# ----------------------------------------------------------------------
def test_cache_resume_skips_all_exploration(outcome, cache_root):
    resumed = synthesize(_config(cache_root))
    assert resumed.winner == outcome.winner
    assert resumed.stats.explored == 0
    assert resumed.stats.cex_replays == 0
    assert resumed.stats.cache_hits == resumed.stats.candidates_tried


def test_cached_violations_replay_deterministically(outcome, cache_root):
    entries = _cached(cache_root, VIOLATION)
    assert entries, "synthesis must have cached violation verdicts"
    for candidate, verdict in entries[:10]:
        # Twice, to pin determinism — same witness, same messages.
        first = replay_verdict(candidate, verdict)
        second = replay_verdict(candidate, verdict)
        assert first and first == second


def test_cache_key_covers_all_verdict_inputs():
    a = Candidate(paths_text="path read end\n", read_guard=(),
                  write_guard=(), path_size=1)
    b = Candidate(paths_text="path read end\n", read_guard=(),
                  write_guard=("active(write)==0",), path_size=1)
    assert cache_key(a, "w", ("o",)) != cache_key(b, "w", ("o",))
    assert cache_key(a, "w", ("o",)) != cache_key(a, "w2", ("o",))
    assert cache_key(a, "w", ("o",)) != cache_key(a, "w", ("o", "p"))
    assert cache_key(a, "w", ("o",)) == cache_key(a, "w", ("o",))


def test_cache_miss_on_empty_store(tmp_path):
    cache = OracleCache(str(tmp_path / "nowhere"))
    probe = Candidate(paths_text="path read end\n", read_guard=(),
                      write_guard=(), path_size=1)
    assert cache.lookup(probe, "w", ("o",)) is None
    assert cache.entries() == []


def _stored_probe(tmp_path):
    cache = OracleCache(str(tmp_path / "oracle"))
    probe = Candidate(paths_text="path read end\n", read_guard=(),
                      write_guard=(), path_size=1)
    path = cache.store(probe, "w", ("o",), {"status": CORRECT, "runs": 3})
    assert cache.lookup(probe, "w", ("o",)) == {"status": CORRECT,
                                                 "runs": 3}
    return cache, probe, path


def test_cache_entry_of_another_schema_is_a_miss(tmp_path):
    import json

    cache, probe, path = _stored_probe(tmp_path)
    with open(path) as fh:
        entry = json.load(fh)
    entry["schema"] = 0
    with open(path, "w") as fh:
        json.dump(entry, fh)
    assert cache.lookup(probe, "w", ("o",)) is None


def test_cache_verdict_goes_stale_when_the_source_changes(tmp_path,
                                                          monkeypatch):
    from repro.synth import cache as cache_module

    cache, probe, _ = _stored_probe(tmp_path)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "edited")
    assert cache.lookup(probe, "w", ("o",)) is None


def test_source_digest_is_computed_once_and_stable():
    from repro.synth.cache import source_digest

    first = source_digest()
    assert len(first) == 24
    assert source_digest() is first
    source_digest.cache_clear()
    assert source_digest() == first


# ----------------------------------------------------------------------
# The flagship repair
# ----------------------------------------------------------------------
def test_repair_footnote3_end_to_end(tmp_path):
    report = repair_footnote3(_config(tmp_path))
    # Diagnosis: the verbatim Figure-1 program violates, with a causal
    # explanation of the overtake.
    assert any("pending" in m for m in report.witness.messages)
    assert report.witness.causal
    assert "W2" in "\n".join(report.witness.causal)
    # Repair: a correct minimal candidate, machine-checked.
    assert report.ok
    assert report.outcome.winner.size == 5
    rendered = report.render()
    assert "synthesized repair" in rendered
    assert "path { read } , write end" in rendered
    payload = report.to_dict()
    assert payload["repair"]["found"] is True
    assert payload["broken"]["messages"]


def test_synth_cli_fast_json(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    rc = main(["synth", "--fast", "--json",
               "--cache-root", str(tmp_path / "oracle")])
    assert rc == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["repair"]["found"] is True
    stats = payload["stats"]
    assert stats["cex_rejected"] >= 2 * stats["explored"]
