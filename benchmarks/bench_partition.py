"""Experiment E18 — partition tolerance: recovery time and message cost.

E17 measures recovery from *process* death; this bench measures recovery
from *network* failure — the dist layer (:mod:`repro.dist`) under scripted
:class:`~repro.dist.netplan.NetPlan` schedules.  Three questions:

1. **Is it safe?**  Across every explored scenario × plan cell, the
   partition oracles must hold: no two overlapping quorum-lease holders,
   at most one leader per term, classic mutual exclusion for the Lamport
   mutex.  Zero ``split-brain`` cells, everywhere, under drops,
   duplicates, delays, and partitions alike.
2. **Does the table match the model?**  Every cell's observed
   classification must equal the DESIGN.md §12 prediction — notably the
   one *wedged* cell: Lamport mutex under an unhealed partition is safe
   but not live (the textbook trade), while the quorum scenarios stay
   tolerant because a majority side keeps the service up.
3. **How fast, at what cost?**  Deterministic failover / post-heal MTTR
   per cell plus message-overhead counters, and a partition-duration
   sweep (recovery-time and message-cost curves as the partition widens),
   persisted to ``BENCH_partition.json`` for cross-commit diffing.
"""

from conftest import emit, persist

from repro.dist import NetPlan
from repro.explore.campaign import label_counts
from repro.obs.recovery import compute_partition_mttr
from repro.runtime.policies import ScriptedPolicy
from repro.verify.partition import (
    COLUMNS,
    SPLIT_BRAIN,
    WEDGED,
    check_at_most_one_leader,
    check_lease_exclusion,
    expected_partition_classifications,
    partition_report,
)
from repro.problems.distributed import (
    build_leader_election,
    build_quorum_lock,
)


def test_bench_partition_table() -> None:
    """Regenerate the scenario × plan table; assert the safety contract."""
    results, table = partition_report(fast=False)
    emit("E18: partition tolerance by scenario", table)

    # The headline claim: no explored schedule anywhere produced split
    # brain — the safety oracles held under every network plan.
    for res in results:
        assert res.violations == [], res.name
        assert res.surprises == [], res.name
        for o in res.outcomes:
            assert o.count(SPLIT_BRAIN) == 0, (res.name, o.plan_name)
            assert o.classification != SPLIT_BRAIN

    expected = expected_partition_classifications()
    observed = {
        (res.name, o.plan_name): o.classification
        for res in results for o in res.outcomes
    }
    assert observed == expected

    # The one predicted wedge is real (safe-but-stuck is *witnessed*, not
    # merely allowed), and every healed plan shows measured recovery.
    assert observed[("lamport_mutex", "partition-forever")] == WEDGED
    by_cell = {(res.name, o.plan_name): o
               for res in results for o in res.outcomes}
    for cell in (("quorum_lock", "partition-heal"),
                 ("leader_election", "partition-heal")):
        o = by_cell[cell]
        assert o.mttr_failover is not None, cell
        assert o.mttr_post_heal is not None, cell
        assert o.message_stats.get("dropped", 0) > 0, cell

    persist("partition", {
        "scenarios": {
            res.name: {
                o.plan_name: {
                    "runs": o.runs,
                    **label_counts(o, COLUMNS),
                    "classification": o.classification,
                    "mttr_failover": o.mttr_failover,
                    "mttr_post_heal": o.mttr_post_heal,
                    "message_stats": o.message_stats,
                }
                for o in res.outcomes
            }
            for res in results
        },
    })


#: Sweep cells: scenario -> (builder, safety oracle, partition factory).
#: The factory maps a duration to the scenario's standard leader/client
#: isolation, widened to ``duration`` ticks.
_SWEEP = {
    "quorum_lock": (
        build_quorum_lock,
        check_lease_exclusion,
        lambda d: NetPlan().isolate("c0", at=2, heal_at=2 + d),
    ),
    "leader_election": (
        build_leader_election,
        check_at_most_one_leader,
        lambda d: NetPlan().isolate("n0", at=20, heal_at=20 + d),
    ),
}

DURATIONS = [10, 20, 30, 40]


def duration_sweep():
    """One deterministic FIFO run per (scenario, duration): recovery-time
    and message-overhead curves as the partition widens."""
    curves = {}
    for name, (build, safety, plan_for) in _SWEEP.items():
        rows = []
        for duration in DURATIONS:
            run = build(ScriptedPolicy([]), plan_for(duration), None)
            assert safety(run) == [], (name, duration)
            mttr = compute_partition_mttr(run)
            stats = getattr(run, "network_stats", {})
            rows.append({
                "duration": duration,
                "mttr_failover": mttr.mttr_failover,
                "mttr_post_heal": mttr.mttr_post_heal,
                "sent": stats.get("sent", 0),
                "delivered": stats.get("delivered", 0),
                "dropped": stats.get("dropped", 0),
            })
        curves[name] = rows
    return curves


def test_bench_partition_duration_sweep() -> None:
    """Recovery time and message cost as a function of partition width."""
    curves = duration_sweep()
    lines = []
    for name, rows in sorted(curves.items()):
        for row in rows:
            lines.append(
                "{:<16} width={:<3} failover={:<5} post-heal={:<5} "
                "sent={:<4} dropped={}".format(
                    name, row["duration"],
                    "-" if row["mttr_failover"] is None
                    else row["mttr_failover"],
                    "-" if row["mttr_post_heal"] is None
                    else row["mttr_post_heal"],
                    row["sent"], row["dropped"],
                ))
    emit("E18: recovery vs partition width (virtual ticks)",
         "\n".join(lines))

    for name, rows in curves.items():
        # Wider partitions drop more traffic (retries keep probing the
        # cut), and every width still fails over and recovers post-heal.
        drops = [row["dropped"] for row in rows]
        assert drops == sorted(drops), name
        assert drops[-1] > drops[0], name
        for row in rows:
            assert row["mttr_failover"] is not None, (name, row)
            assert row["mttr_post_heal"] is not None, (name, row)

    # Determinism: the virtual clock makes every curve exact.
    assert duration_sweep() == curves

    persist("partition", {"duration_sweep": curves})
