"""The fast fingerprint path against its specification.

The specification is the from-scratch canonical fingerprint kept below as
:func:`reference_fingerprint`: every process tuple, sort and ``repr`` built
separately, and the event digest refolded from the trace with one BLAKE2b
per event.  The scheduler's own path builds the same payload in one pass,
memoizes per-event digest terms, and snapshots only the decisions a search
reads.  These tests check that every prune key the search reads is
bit-identical to the reference, and that a search recording the reference
at every decision reaches the same results.
"""

import hashlib
import json
import os
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

BUDGET = 300


def reference_event_term(event) -> int:
    return int.from_bytes(
        hashlib.blake2b(
            repr((event.pid, event.kind, event.obj, event.detail)).encode(),
            digest_size=8,
        ).digest(),
        "big",
    )


def reference_fingerprint(sched, digest: int) -> int:
    """The canonical state fingerprint, computed from scratch, with
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
    payload = repr((sched._time, ready, procs, park_order, holds, timers,
                    digest, extra)).encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


class _ReferenceDigest:
    """Refolds the event digest from the trace: every event logged since
    the first decision, one BLAKE2b each, no memo."""

    def __init__(self) -> None:
        self.mark = None
        self.value = 0

    def advance(self, sched) -> int:
        if self.mark is None:
            self.mark = len(sched.trace)
        for event in sched.trace[self.mark:]:
            self.value = (self.value + reference_event_term(event)) \
                & 0xFFFFFFFFFFFFFFFF
        self.mark = len(sched.trace)
        return self.value


class CheckingPolicy(RecordingPolicy):
    """The search's own policy, also comparing each snapshot it takes
    with the reference."""

    def __init__(self, decisions=None, horizon=None):
        super().__init__(decisions, horizon)
        self.reference = _ReferenceDigest()
        self.compared = 0
        self.mismatches = []

    def observe_state(self, sched) -> None:
        taken = len(self.fingerprints)
        super().observe_state(sched)
        digest = self.reference.advance(sched)
        if len(self.fingerprints) > taken:
            self.compared += 1
            want = reference_fingerprint(sched, digest)
            if self.fingerprints[-1] != want:
                self.mismatches.append((self._cursor, want,
                                        self.fingerprints[-1]))


class ReferenceRecordingPolicy(RecordingPolicy):
    """Records the reference fingerprint at every decision, prefix and
    past-horizon ones included (the horizon is accepted and ignored)."""

    def __init__(self, decisions=None, horizon=None):
        super().__init__(decisions)
        self.reference = _ReferenceDigest()

    def observe_state(self, sched) -> None:
        sched.enable_fingerprinting()
        digest = self.reference.advance(sched)
        self.fingerprints.append(reference_fingerprint(sched, digest))
        self.ready_pids.append(tuple(p.pid for p in sched._ready))


def engine_with(policy_class, target, **kwargs):
    """A serial pruned engine whose runs record with ``policy_class``."""
    build_and_run = target.runner()

    class Engine(ExplorationEngine):
        def run_one(self, prefix, check):
            policy = policy_class(prefix, self.max_depth)
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
# Every prune key the search reads equals the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem,mechanism", available_targets())
def test_fast_fingerprint_matches_reference_where_read(problem, mechanism):
    target = get_target(problem, mechanism)
    engine = engine_with(CheckingPolicy, target, max_runs=BUDGET)
    engine.explore(target.checker)
    compared = sum(p.compared for p in engine.policies)
    mismatches = [m for p in engine.policies for m in p.mismatches]
    assert compared > 0
    assert mismatches == []


def test_catalog_has_44_targets_41_address_free():
    targets = set(available_targets())
    assert len(targets) == 44
    assert ADDRESS_DEPENDENT <= targets


# ----------------------------------------------------------------------
# A reference-recording search reaches the same results
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "problem,mechanism",
    [pair for pair in available_targets() if pair not in ADDRESS_DEPENDENT])
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
