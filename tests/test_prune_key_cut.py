"""The prune-key cut: a search fingerprints exactly the decisions
:func:`~repro.explore.engine.expand_record` reads.

A search passes its own ``seen`` set to :class:`RecordingPolicy` as
``claimed``; the policy stops snapshotting (and the scheduler stops
folding the event digest) at the first decision whose default key is
claimed, which is where the expansion breaks.  These tests check that
every record holds exactly the snapshots its expansion reads, that a
search recording to the horizon reaches the same results and children,
that nothing is hashed after the cut, and that a child run hashes nothing
before its branch decision.
"""

import dataclasses

import pytest

from repro.explore import engine as engine_module
from repro.explore.engine import ExplorationEngine, RecordingPolicy
from repro.explore.targets import available_targets, get_target
from repro.obs import HarnessTelemetry
from repro.runtime import scheduler as scheduler_module

from .test_fingerprint_equivalence import (
    ADDRESS_FREE,
    BUDGET,
    engine_with,
    outcome,
)


class _CountingReads(tuple):
    """A tuple that remembers how far into it a reader indexed."""

    read = 0

    def __getitem__(self, index):
        self.read = max(self.read, index + 1)
        return tuple.__getitem__(self, index)


@pytest.fixture
def expansions(monkeypatch):
    """Every pruned expansion of the searches run under it, as
    ``(prefix, snapshots recorded, snapshots read, children)``."""
    seen_expansions = []
    expand = engine_module.expand_record

    def counting(record, max_depth, seen):
        if seen is None:
            return expand(record, max_depth, seen)
        fingerprints = _CountingReads(record.fingerprints)
        children, pruned = expand(
            dataclasses.replace(record, fingerprints=fingerprints),
            max_depth, seen)
        seen_expansions.append((record.prefix, len(record.fingerprints),
                                fingerprints.read, tuple(children)))
        return children, pruned

    monkeypatch.setattr(engine_module, "expand_record", counting)
    return seen_expansions


def _search(problem, mechanism, max_runs, telemetry=None):
    target = get_target(problem, mechanism)
    return ExplorationEngine(target.runner(), max_runs=max_runs, prune=True,
                             telemetry=telemetry).explore(target.checker)


# ----------------------------------------------------------------------
# (a) Every record holds exactly the snapshots its expansion reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "problem,mechanism,max_runs",
    [pair + (BUDGET,) for pair in available_targets()]
    + [("footnote3", "monitor", 6000), ("footnote3", "csp", 6000)])
def test_records_hold_exactly_the_snapshots_expansion_reads(
        problem, mechanism, max_runs, expansions):
    _search(problem, mechanism, max_runs)
    assert expansions
    inexact = [(prefix, recorded, read)
               for prefix, recorded, read, __ in expansions
               if recorded != read]
    assert inexact == []


# ----------------------------------------------------------------------
# (b) Recording to the horizon reaches the same results and children
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem,mechanism", ADDRESS_FREE)
def test_cut_search_matches_search_recording_to_horizon(
        problem, mechanism, expansions):
    target = get_target(problem, mechanism)
    full = engine_with(RecordingPolicy, target,
                       max_runs=BUDGET).explore(target.checker)
    full_children = [(prefix, children)
                     for prefix, __, __, children in expansions]
    expansions.clear()
    cut = _search(problem, mechanism, BUDGET)
    cut_children = [(prefix, children)
                    for prefix, __, __, children in expansions]
    assert outcome(cut) == outcome(full)
    assert cut_children == full_children


# ----------------------------------------------------------------------
# (c) The timed path cuts at the same decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem,mechanism", [
    ("footnote3", "monitor"),
    ("footnote3", "pathexpr"),
    ("readers_priority", "semaphore"),
    ("bounded_buffer", "serializer"),
])
def test_telemetry_search_cuts_like_the_plain_search(
        problem, mechanism, expansions):
    plain = _search(problem, mechanism, BUDGET)
    plain_counts = [(prefix, recorded)
                    for prefix, recorded, __, __ in expansions]
    expansions.clear()
    telemetry = HarnessTelemetry()
    timed = _search(problem, mechanism, BUDGET, telemetry=telemetry)
    timed_counts = [(prefix, recorded)
                    for prefix, recorded, __, __ in expansions]
    assert outcome(timed) == outcome(plain)
    assert timed_counts == plain_counts
    assert telemetry.phase_seconds.get("fingerprint", 0.0) > 0.0


# ----------------------------------------------------------------------
# (d) Nothing is hashed after the cut
# ----------------------------------------------------------------------
class _DigestWatch(RecordingPolicy):
    """Records the scheduler's event digest at every decision."""

    def __init__(self, decisions=None, horizon=None, claimed=None,
                 digest=None):
        super().__init__(decisions, horizon, claimed, digest)
        self.watched = []

    def observe_state(self, sched) -> None:
        super().observe_state(sched)
        self.watched.append(sched._fp_digest)


def _root_snapshots(target):
    full = _DigestWatch([], 60)
    target.build_and_run(full)
    return full


def _count_event_terms(monkeypatch):
    """Start from an empty term memo and record every term computed."""
    terms = []
    event_term = scheduler_module._event_term

    def counting(*args):
        terms.append(args)
        return event_term(*args)

    monkeypatch.setattr(scheduler_module, "_event_term", counting)
    monkeypatch.setattr(scheduler_module, "_EVENT_TERMS", {})
    return terms


def test_digest_stops_moving_after_the_cut():
    target = get_target("footnote3", "monitor")
    full = _root_snapshots(target)
    cut_at = 3
    claimed = {(full.fingerprints[cut_at], full.ready_pids[cut_at][0])}
    cut = _DigestWatch([], 60, claimed)
    target.build_and_run(cut)
    assert cut.fingerprints == full.fingerprints[:cut_at + 1]
    assert cut.watched[:cut_at] == full.watched[:cut_at]
    assert len(cut.watched) > cut_at + 1, "the run goes on past the cut"
    assert all(d is None for d in cut.watched[cut_at:])
    assert all(d is not None for d in full.watched)


def test_no_event_term_is_computed_after_a_cut_at_the_root(monkeypatch):
    target = get_target("footnote3", "monitor")
    full = _root_snapshots(target)
    terms = _count_event_terms(monkeypatch)
    claimed = {(full.fingerprints[0], full.ready_pids[0][0])}
    cut = RecordingPolicy([], 60, claimed)
    target.build_and_run(cut)
    assert len(cut.fingerprints) == 1
    assert terms == []
    target.build_and_run(RecordingPolicy([], 60))
    assert terms, "an uncut run folds its events into the digest"


class _TermWatch(_DigestWatch):
    """Also records how many event terms were computed before each
    decision."""

    def __init__(self, terms, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.terms = terms
        self.terms_before = []

    def observe_state(self, sched) -> None:
        self.terms_before.append(len(self.terms))
        super().observe_state(sched)


def test_no_event_term_is_computed_before_a_childs_branch(monkeypatch):
    target = get_target("footnote3", "monitor")
    parent = _root_snapshots(target)
    branch = next(i for i, n in enumerate(parent.branch_log)
                  if i >= 2 and n > 1)
    prefix = parent.taken[:branch] + [1]
    inherited = parent.digests[branch]
    # The child's first snapshot, with the digest folded from decision 0.
    refolded = RecordingPolicy(prefix)
    target.build_and_run(refolded)
    terms = _count_event_terms(monkeypatch)
    child = _TermWatch(terms, prefix, 60, digest=inherited)
    target.build_and_run(child)
    assert child.terms_before[branch] == 0
    assert child.watched[:branch] == [None] * branch
    assert child.watched[branch] == inherited
    assert terms, "the child folds its own events from the branch on"
    assert child.fingerprints[0] == refolded.fingerprints[len(prefix)]


def test_claimed_keys_need_a_horizon():
    with pytest.raises(ValueError):
        RecordingPolicy([], claimed=set())
    RecordingPolicy([], 60, set())  # with a horizon it is accepted


def test_an_inherited_digest_needs_a_horizon():
    with pytest.raises(ValueError):
        RecordingPolicy([1], digest=0)
    RecordingPolicy([1], 60, digest=0)  # with a horizon it is accepted


def test_reset_clears_the_cut():
    target = get_target("footnote3", "monitor")
    full = _root_snapshots(target)
    claimed = {(full.fingerprints[2], full.ready_pids[2][0])}
    policy = RecordingPolicy([], 60, claimed)
    target.build_and_run(policy)
    first = list(policy.fingerprints)
    policy.reset()
    target.build_and_run(policy)
    assert policy.fingerprints == first == full.fingerprints[:3]
