"""The fast fingerprint path against its specification.

The specification is the from-scratch canonical fingerprint kept below as
:func:`reference_fingerprint`: the coordinates gathered one by one, written
as one flat integer sequence (every string by its BLAKE2b-64 id, every
variable-length part prefixed with its length), packed and hashed, with
the event digest refolded from the trace with one BLAKE2b per event.  The
scheduler's own path builds the same sequence in one pass, memoizes string
ids and per-event digest terms, snapshots only the decisions a search
reads, and starts each child run from the event digest its parent had at
the branch instead of refolding the replayed prefix.  These tests check
that every prune key and digest the search reads is bit-identical to the
reference, that a search recording the reference at every decision reaches
the same results, and that the integer key partitions states exactly like
the ``repr`` payload it replaced (:func:`legacy_fingerprint`).
"""

import functools
import hashlib
import json
import os
import struct
import subprocess
import sys

import pytest

import repro
from repro.explore.engine import ExplorationEngine, RecordingPolicy, RunRecord
from repro.explore.targets import available_targets, get_target
from repro.runtime.process import ProcessState

#: Targets whose ``send`` events carry a ``Channel`` as ``detail``:
#: ``Channel`` has no ``__repr__``, so their event digest hashes a memory
#: address and their prune keys depend on allocation.
ADDRESS_DEPENDENT = {
    ("alarm_clock", "csp"),
    ("fcfs_resource", "csp"),
    ("staged_queue", "csp"),
}

ADDRESS_FREE = [pair for pair in available_targets()
                if pair not in ADDRESS_DEPENDENT]

BUDGET = 300


def blake64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big")


def reference_event_term(event) -> int:
    return blake64(
        repr((event.pid, event.kind, event.obj, event.detail)).encode())


def coordinates(sched, digest: int) -> tuple:
    """The fingerprint's coordinates, each gathered on its own, with
    ``digest`` as the commutative event digest."""
    procs = tuple(
        (p.pid, p.state.value, p.steps, p.blocked_on or "",
         str(p.wait_obj or ""), p.daemon)
        for p in sched._processes
    )
    ready = tuple(p.pid for p in sched._ready)
    park_order = tuple(
        p.pid for p in sorted(
            (p for p in sched._processes
             if p.state is ProcessState.BLOCKED),
            key=lambda p: p.park_seq,
        )
    )
    holds = tuple(sorted(
        (resource, tuple(sorted(p.pid for p in holders)))
        for resource, holders in sched._holds.items()
        if holders
    ))
    timers = tuple(sorted(
        (deadline - sched._time, entry.proc.pid, entry.kind)
        for deadline, __, entry in sched._timers
        if not entry.cancelled
        and entry.proc.state is ProcessState.BLOCKED
    ))
    extra = tuple(repr(fn()) for fn in sched._fp_providers)
    return (sched._time, ready, procs, park_order, holds, timers, digest,
            extra)


def legacy_fingerprint(sched, digest: int) -> int:
    """The key the integer encoding replaced: BLAKE2b-64 of the ``repr``
    of the nested coordinate tuple."""
    return blake64(repr(coordinates(sched, digest)).encode())


def string_id(text: str) -> int:
    return blake64(text.encode())


def reference_fingerprint(sched, digest: int) -> int:
    """The canonical state fingerprint, computed from scratch, with
    ``digest`` as the commutative event digest."""
    (time, ready, procs, park_order, holds, timers, digest,
     extra) = coordinates(sched, digest)
    flat = [time, len(ready), *ready, len(procs)]
    for pid, state, steps, blocked_on, wait_obj, daemon in procs:
        flat += [pid, string_id(state), steps, string_id(blocked_on),
                 string_id(wait_obj), int(daemon)]
    flat += [len(park_order), *park_order, len(holds)]
    for resource, holders in holds:
        flat += [string_id(resource), len(holders), *holders]
    flat.append(len(timers))
    for delta, pid, kind in timers:
        flat += [delta, pid, string_id(kind)]
    flat += [digest, len(extra), *(string_id(text) for text in extra)]
    return blake64(struct.pack("={}Q".format(len(flat)), *flat))


class _ReferenceDigest:
    """Refolds the event digest from the trace, one BLAKE2b per event, no
    memo: every event logged since decision ``start``, added to
    ``value``."""

    def __init__(self, start: int = 0, value: int = 0) -> None:
        self.start = start
        self.mark = None
        self.value = value

    def advance(self, sched, index: int):
        """The digest at decision ``index`` (``None`` before ``start``);
        called at every decision."""
        if index < self.start:
            return None
        if self.mark is None:
            self.mark = len(sched.trace)
        for event in sched.trace[self.mark:]:
            self.value = (self.value + reference_event_term(event)) \
                & 0xFFFFFFFFFFFFFFFF
        self.mark = len(sched.trace)
        return self.value


class CheckingPolicy(RecordingPolicy):
    """The search's own policy, also comparing each snapshot it takes
    with the reference.  The reference digest is refolded from the whole
    trace, or, with ``since_branch``, from the branch decision on, starting
    at the inherited digest."""

    def __init__(self, decisions=None, horizon=None, digest=None,
                 since_branch=False):
        super().__init__(decisions, horizon, digest=digest)
        if since_branch and digest is not None:
            self.reference = _ReferenceDigest(
                max(len(self.decisions) - 1, 0), digest)
        else:
            self.reference = _ReferenceDigest()
        self.compared = 0
        self.mismatches = []

    def observe_state(self, sched) -> None:
        index = self._cursor
        taken = len(self.fingerprints)
        super().observe_state(sched)
        digest = self.reference.advance(sched, index)
        if len(self.fingerprints) > taken:
            self.compared += 1
            got = (self.digests[-1], self.fingerprints[-1])
            want = (digest, reference_fingerprint(sched, digest))
            if got != want:
                self.mismatches.append((index, want, got))


class ReferenceRecordingPolicy(RecordingPolicy):
    """Records the reference fingerprint at every decision, prefix and
    past-horizon ones included, with the digest refolded from the whole
    trace (the horizon and the inherited digest are accepted and
    ignored)."""

    def __init__(self, decisions=None, horizon=None, digest=None):
        super().__init__(decisions)
        self.reference = _ReferenceDigest()

    def observe_state(self, sched) -> None:
        digest = self.reference.advance(sched, self._cursor)
        self.fingerprints.append(reference_fingerprint(sched, digest))
        self.digests.append(digest)
        self.ready_pids.append(tuple(p.pid for p in sched._ready))


def engine_with(policy_class, target, **kwargs):
    """A serial pruned engine whose runs record with ``policy_class``,
    to the horizon and with the inherited digest."""
    build_and_run = target.runner()

    class Engine(ExplorationEngine):
        def run_one(self, prefix, digest, check):
            policy = policy_class(prefix, self.max_depth, digest=digest)
            run = build_and_run(policy)
            self.policies.append(policy)
            return RunRecord.from_run(prefix, policy, check(run))

    engine = Engine(build_and_run, prune=True, **kwargs)
    engine.policies = []
    return engine


def outcome(result):
    return (result.runs, result.states, result.pruned, result.exhausted,
            result.violations)


# ----------------------------------------------------------------------
# Every prune key and digest the search reads equals the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem,mechanism", available_targets())
def test_fast_fingerprint_matches_reference_where_read(problem, mechanism):
    """On an address-free target the digest a child inherits, plus its
    own events since the branch, equals the digest refolded from its
    whole trace.  On an address-dependent one a replay allocates new
    channels, so the reference refolds from the branch only."""
    target = get_target(problem, mechanism)
    policy = functools.partial(
        CheckingPolicy,
        since_branch=(problem, mechanism) in ADDRESS_DEPENDENT)
    engine = engine_with(policy, target, max_runs=BUDGET)
    engine.explore(target.checker)
    children = [p for p in engine.policies if p.decisions]
    mismatches = [m for p in engine.policies for m in p.mismatches]
    assert sum(p.compared for p in engine.policies) > 0
    assert sum(p.compared for p in children) > 0
    assert mismatches == []


def test_catalog_has_44_targets_41_address_free():
    targets = set(available_targets())
    assert len(targets) == 44
    assert ADDRESS_DEPENDENT <= targets
    assert len(ADDRESS_FREE) == 41


# ----------------------------------------------------------------------
# The integer key partitions states exactly like the repr key
# ----------------------------------------------------------------------
class PartitionPolicy(RecordingPolicy):
    """The search's own policy, also pairing each snapshot's key with the
    legacy key of the same state."""

    def __init__(self, decisions=None, horizon=None, digest=None):
        super().__init__(decisions, horizon, digest=digest)
        self.pairs = []

    def observe_state(self, sched) -> None:
        taken = len(self.fingerprints)
        super().observe_state(sched)
        if len(self.fingerprints) > taken:
            self.pairs.append((self.fingerprints[-1],
                               legacy_fingerprint(sched, self.digests[-1])))


@pytest.mark.parametrize("problem,mechanism", ADDRESS_FREE)
def test_integer_key_partitions_states_like_the_repr_key(problem,
                                                         mechanism):
    target = get_target(problem, mechanism)
    engine = engine_with(PartitionPolicy, target, max_runs=BUDGET)
    engine.explore(target.checker)
    pairs = {pair for p in engine.policies for pair in p.pairs}
    new = {key for key, __ in pairs}
    legacy = {key for __, key in pairs}
    assert len(pairs) > 1
    # Each key determines the other: new(a) == new(b) iff
    # legacy(a) == legacy(b).
    assert len(new) == len(pairs) == len(legacy)


# ----------------------------------------------------------------------
# A reference-recording search reaches the same results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem,mechanism", ADDRESS_FREE)
def test_reference_search_matches_fast_search(problem, mechanism):
    target = get_target(problem, mechanism)
    fast = ExplorationEngine(target.runner(), max_runs=BUDGET,
                             prune=True).explore(target.checker)
    reference = engine_with(ReferenceRecordingPolicy, target,
                            max_runs=BUDGET).explore(target.checker)
    assert outcome(fast) == outcome(reference)


@pytest.mark.parametrize("problem,mechanism", [
    ("footnote3", "monitor"),
    ("readers_priority", "semaphore"),
    ("alarm_clock", "monitor"),
])
def test_depth_bounded_search_matches_reference_recording(problem,
                                                          mechanism):
    target = get_target(problem, mechanism)
    fast = ExplorationEngine(target.runner(), max_runs=BUDGET, max_depth=40,
                             prune=True).explore(target.checker)
    reference = engine_with(ReferenceRecordingPolicy, target,
                            max_runs=BUDGET,
                            max_depth=40).explore(target.checker)
    assert outcome(fast) == outcome(reference)


# ----------------------------------------------------------------------
# The digest does not depend on PYTHONHASHSEED
# ----------------------------------------------------------------------
_RECORD_FINGERPRINTS = """
import json
from repro.explore.engine import RecordingPolicy
from repro.explore.targets import get_target

target = get_target("footnote3", "monitor")
out = []
# The second pass over the same schedules hits the event-term memo.
for __ in range(2):
    for prefix in ([], [1], [0, 1, 1], [1, 0, 2, 1]):
        policy = RecordingPolicy(prefix)
        target.build_and_run(policy)
        out.append(policy.fingerprints)
print(json.dumps(out))
"""


def test_digest_is_independent_of_pythonhashseed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    recorded = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _RECORD_FINGERPRINTS],
                              env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        recorded.append(json.loads(done.stdout))
    assert recorded[0][0]
    assert recorded[0] == recorded[1]


# ----------------------------------------------------------------------
# Digest payloads are address-free, except on three csp targets (a known
# defect: the strict xfail turns into a failure once it is fixed)
# ----------------------------------------------------------------------
_ADDRESS_DEFECT = pytest.mark.xfail(strict=True, reason=(
    "Channel has no __repr__: csp send events carrying a reply channel "
    "put a memory address into the event digest"))


@pytest.mark.parametrize("problem,mechanism", [
    pytest.param(*pair, marks=_ADDRESS_DEFECT)
    if pair in ADDRESS_DEPENDENT else pair
    for pair in available_targets()
])
def test_digest_payloads_are_address_free(problem, mechanism):
    target = get_target(problem, mechanism)
    payloads = []
    for prefix in ([], [1], [1, 1]):
        run = target.build_and_run(RecordingPolicy(prefix))
        payloads.extend(repr((e.pid, e.kind, e.obj, e.detail))
                        for e in run.trace)
    assert payloads
    assert not [p for p in payloads if " at 0x" in p]
