"""Partition oracles, scenario classification, partition MTTR, and the
``repro partition`` CLI."""

import json

from repro.dist import NetPlan
from repro.obs.recovery import (
    PARTITION_RECOVERY_KINDS,
    compute_availability,
    compute_partition_mttr,
    lease_intervals,
    partition_recovery_spans,
)
from repro.runtime.trace import Event, RunResult, Trace
from repro.verify.detectors import exclusion_oracle
from repro.verify.partition import (
    TOLERANT,
    WEDGED,
    check_at_most_one_leader,
    check_lease_exclusion,
    expected_partition_classifications,
    make_progress_after_heal,
    partition_report,
)


def _run_with(events):
    """A synthetic RunResult: events are (time, pname, kind, obj, detail);
    each process name gets its own pid."""
    trace = Trace()
    pids = {}
    for seq, (time, pname, kind, obj, detail) in enumerate(events):
        pid = pids.setdefault(pname, len(pids))
        trace.append(Event(seq, time, pid, pname, kind, obj, detail))
    return RunResult(trace=trace)


# ----------------------------------------------------------------------
# Safety oracles on synthetic traces
# ----------------------------------------------------------------------
class TestLeaseExclusionOracle:
    def test_disjoint_holders_pass(self):
        run = _run_with([
            (0, "c0", "lease_acquired", "c0", {"until": 10}),
            (6, "c0", "lease_released", "c0", {"at": 6}),
            (8, "c1", "lease_acquired", "c1", {"until": 20}),
        ])
        assert check_lease_exclusion(run) == []

    def test_overlapping_holders_flagged(self):
        run = _run_with([
            (0, "c0", "lease_acquired", "c0", {"until": 10}),
            (6, "c1", "lease_acquired", "c1", {"until": 16}),
        ])
        messages = check_lease_exclusion(run)
        assert len(messages) == 1
        assert "two lease holders at once" in messages[0]

    def test_release_truncates_the_validity_interval(self):
        # Released at 4, so a second holder from 5 is fine even though the
        # first horizon ran to 10.
        run = _run_with([
            (0, "c0", "lease_acquired", "c0", {"until": 10}),
            (4, "c0", "lease_released", "c0", {"at": 4}),
            (5, "c1", "lease_acquired", "c1", {"until": 15}),
        ])
        assert check_lease_exclusion(run) == []

    def test_reacquire_by_same_holder_never_conflicts(self):
        run = _run_with([
            (0, "c0", "lease_acquired", "c0", {"until": 10}),
            (6, "c0", "lease_acquired", "c0", {"until": 16}),
        ])
        assert check_lease_exclusion(run) == []

    # c0 acquires at 0 until 10, re-acquires at 1 until 11 and releases
    # at 2; then c1 acquires at 5.
    REACQUIRE = [
        (0, "c0", "lease_acquired", "c0", {"until": 10}),
        (1, "c0", "lease_acquired", "c0", {"until": 11}),
        (2, "c0", "lease_released", "c0", {"at": 2}),
        (5, "c1", "lease_acquired", "c1", {"until": 15}),
    ]

    def test_reacquire_closes_the_earlier_interval(self):
        # The re-acquire closes [0, 10) at 1 and the release closes the new
        # interval at 2, so c1 from 5 overlaps nothing.
        run = _run_with(self.REACQUIRE)
        assert lease_intervals(run.trace) == [
            (0, 1, "c0"), (1, 2, "c0"), (5, 15, "c1")]
        assert check_lease_exclusion(run) == []

    def test_overlap_after_a_reacquire_still_flagged(self):
        # Without the release, c0's second interval runs to 11 and c1's
        # acquire at 5 is a genuine overlap.
        run = _run_with([ev for ev in self.REACQUIRE
                         if ev[2] != "lease_released"])
        messages = check_lease_exclusion(run)
        assert len(messages) == 1
        assert "c0 valid [1, 11) and c1 valid [5, 15)" in messages[0]

    def test_availability_reads_the_same_fold(self):
        # c0 held [0, 2); c1's interval starts at the run's last tick.
        availability = compute_availability(_run_with(self.REACQUIRE))
        assert availability.intervals == ((0, 2),)
        assert (availability.held_ticks, availability.horizon) == (2, 5)


class TestLeaderAndMutexOracles:
    def test_one_leader_per_term_passes(self):
        run = _run_with([
            (5, "n0", "leader_elected", "n0", {"term": 1}),
            (20, "n1", "leader_elected", "n1", {"term": 2}),
        ])
        assert check_at_most_one_leader(run) == []

    def test_two_leaders_in_one_term_flagged(self):
        run = _run_with([
            (5, "n0", "leader_elected", "n0", {"term": 1}),
            (7, "n1", "leader_elected", "n1", {"term": 1}),
        ])
        messages = check_at_most_one_leader(run)
        assert messages and "term 1 has 2 leaders" in messages[0]

    def test_mutex_interval_overlap_flagged(self):
        run = _run_with([
            (0, "n0", "cs", "mutex", "enter"),
            (1, "n1", "cs", "mutex", "enter"),
            (2, "n0", "cs", "mutex", "exit"),
        ])
        messages = exclusion_oracle("mutex")(run)
        assert messages == ["n1 entered mutex while n0 inside"]

    def test_mutex_abort_closes_the_interval(self):
        run = _run_with([
            (0, "n0", "cs", "mutex", "enter"),
            (2, "n0", "cs", "mutex", "abort"),
            (3, "n1", "cs", "mutex", "enter"),
            (5, "n1", "cs", "mutex", "exit"),
        ])
        assert exclusion_oracle("mutex")(run) == []


class TestProgressAfterHeal:
    def test_requires_evidence_after_last_heal(self):
        plan = NetPlan().isolate("n0", at=5, heal_at=20)
        check = make_progress_after_heal(plan, ("cs",))
        stalled = _run_with([(10, "n1", "cs", "mutex", "exit")])
        assert check(stalled)  # evidence predates the heal
        recovered = _run_with([(25, "n0", "cs", "mutex", "exit")])
        assert check(recovered) == []

    def test_unhealed_plan_never_fires(self):
        plan = NetPlan().isolate("n0", at=5)
        check = make_progress_after_heal(plan, ("cs",))
        assert check(_run_with([])) == []

    def test_empty_kinds_disable_the_oracle(self):
        plan = NetPlan().isolate("n0", at=5, heal_at=20)
        check = make_progress_after_heal(plan, ())
        assert check(_run_with([])) == []


# ----------------------------------------------------------------------
# Partition MTTR spans
# ----------------------------------------------------------------------
class TestPartitionMttr:
    def _trace(self):
        return _run_with([
            (20, "net", "net_partition", "net", "partition {n0} | {rest}"),
            (33, "n1", "leader_elected", "n1", {"term": 2}),
            (70, "net", "net_heal", "net", "partition {n0} | {rest}"),
            (74, "n0", "leader_stepdown", "n0", {"term": 2}),
        ])

    def test_span_measures_both_legs(self):
        spans = partition_recovery_spans(self._trace())
        assert len(spans) == 1
        span = spans[0]
        assert span.healed
        assert span.ticks_to_failover == 13
        assert span.failover_kind == "leader_elected"
        assert span.ticks_to_post_heal == 4
        assert span.post_heal_kind == "leader_stepdown"
        assert "failover in 13 tick(s)" in span.describe()

    def test_unhealed_partition_has_no_post_heal_leg(self):
        run = _run_with([
            (20, "net", "net_partition", "net", "partition {n0} | {rest}"),
            (33, "n1", "leader_elected", "n1", {"term": 2}),
        ])
        span = partition_recovery_spans(run)[0]
        assert not span.healed
        assert span.ticks_to_failover == 13
        assert span.ticks_to_post_heal is None
        assert "no failover" not in span.describe()

    def test_metrics_aggregate_and_render(self):
        metrics = compute_partition_mttr(self._trace())
        assert metrics.partitions == 1
        assert metrics.mttr_failover == 13.0
        assert metrics.mttr_post_heal == 4.0
        assert "Partition recovery" in metrics.render()

    def test_stepdown_counts_as_reconvergence(self):
        assert "leader_stepdown" in PARTITION_RECOVERY_KINDS

    def test_empty_trace_has_no_spans(self):
        metrics = compute_partition_mttr(_run_with([]))
        assert metrics.partitions == 0
        assert metrics.mttr_failover is None


# ----------------------------------------------------------------------
# The report and the CLI
# ----------------------------------------------------------------------
def test_partition_report_fast_matches_model():
    results, table = partition_report(fast=True)
    observed = {
        (res.name, o.plan_name): o.classification
        for res in results for o in res.outcomes
    }
    assert observed == expected_partition_classifications()
    for res in results:
        assert res.violations == []
        assert res.surprises == []
    assert observed[("lamport_mutex", "partition-forever")] == WEDGED
    assert observed[("quorum_lock", "partition-forever")] == TOLERANT
    assert "partition-tolerant" in table


def test_partition_cli_text(capsys):
    from repro.__main__ import main

    code = main(["partition", "--fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no split brain on any explored schedule" in out


def test_partition_cli_json_schema(capsys):
    from repro.__main__ import main

    code = main(["partition", "--fast", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["surprises"] == []
    assert payload["violations"] == []
    names = {s["name"] for s in payload["scenarios"]}
    assert names == {"lamport_mutex", "quorum_lock", "leader_election"}
    for scenario in payload["scenarios"]:
        for plan in scenario["plans"]:
            assert plan["split_brain"] == 0
            assert {"plan", "faults", "expected", "runs", "classification",
                    "mttr_failover", "mttr_post_heal",
                    "message_stats"} <= set(plan)
