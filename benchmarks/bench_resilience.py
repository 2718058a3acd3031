"""Experiment E22 — combined-fault resilience: crash-restart × partition.

E17 measures recovery from process death, E18 from network failure; this
bench measures the *product* space — nodes that crash, restart with only
their durable state, and rejoin inside (or around) a partition, at the
five-node cluster size.  Three questions:

1. **Is the model right?**  Every (scenario, cell) classification must
   match the DESIGN.md §16 prediction — including the two deliberate
   extremes: the Lamport mutex wedges under a crash+partition (no
   redundancy to fail over to), and the unfenced restart lock is the one
   predicted split-brain (the amnesiac holder resumes its dead session's
   writes).  No cell may surprise.
2. **Does fencing close the hole?**  The joint fault-plan search must
   find a ≤2-fault crash+partition witness against the unfenced scenario,
   ddmin-minimize it to one kill plus one cut, and the very same faults
   must classify partition-tolerant with fencing on.
3. **How fast, at what cost?**  Combined-fault failover / post-heal MTTR
   and service availability per cell, with restart counts and message
   overhead, persisted to ``BENCH_resilience.json`` for cross-commit
   diffing.
"""

from conftest import emit, persist

from repro.explore.campaign import label_counts
from repro.resilience.report import (
    RESILIENCE_CLUSTER,
    expected_resilience_classifications,
    resilience_report,
    search_restart_witness,
)
from repro.verify.partition import COLUMNS, SPLIT_BRAIN, TOLERANT, WEDGED


def test_bench_resilience_table() -> None:
    """Regenerate the scenario × cell table; assert the resilience model."""
    results, table = resilience_report(fast=False)
    emit("E22: combined-fault resilience by scenario", table)

    # Every cell matches the model — no surprises anywhere, and the only
    # split-brain evidence lives in the cell built to document it.
    for res in results:
        assert res.surprises == [], res.name
        for o in res.outcomes:
            if res.name != "restart_lock_unfenced":
                assert o.violations == [], (res.name, o.cell_name)

    expected = expected_resilience_classifications()
    observed = {
        (res.name, o.cell_name): o.classification
        for res in results for o in res.outcomes
    }
    assert observed == expected

    by_cell = {(res.name, o.cell_name): o
               for res in results for o in res.outcomes}

    # The predicted extremes are witnessed, not merely allowed.
    assert observed[("lamport_mutex", "crash+partition")] == WEDGED
    unfenced = by_cell[("restart_lock_unfenced", "crash+partition")]
    assert unfenced.classification == SPLIT_BRAIN
    assert unfenced.violations
    assert unfenced.restarts >= 1

    # The fenced twin survives the identical faults, restarts included,
    # and reports measured recovery on both MTTR legs plus availability.
    fenced = by_cell[("restart_lock", "crash+partition")]
    assert fenced.classification == TOLERANT
    assert fenced.restarts >= 1
    assert fenced.mttr_failover is not None
    assert fenced.mttr_post_heal is not None
    assert fenced.availability is not None and 0.0 < fenced.availability <= 1.0

    # The redundant quorum scenarios keep serving through the combined
    # faults at the five-node size — the availability number exists and
    # recovery is measured.
    for cell in (("quorum_lock", "crash+partition"),
                 ("leader_election", "crash+partition")):
        o = by_cell[cell]
        assert o.classification == TOLERANT, cell
        assert o.availability is not None, cell
        assert (o.mttr_failover is not None
                or o.mttr_post_heal is not None), cell
        assert o.message_stats.get("sent", 0) > 0, cell

    persist("resilience", {
        "cluster": RESILIENCE_CLUSTER,
        "scenarios": {
            res.name: {
                o.cell_name: {
                    "faults": o.faults,
                    "runs": o.runs,
                    **label_counts(o, COLUMNS),
                    "violations": len(o.violations),
                    "restarts": o.restarts,
                    "classification": o.classification,
                    "mttr_failover": o.mttr_failover,
                    "mttr_post_heal": o.mttr_post_heal,
                    "availability": o.availability,
                    "message_stats": o.message_stats,
                }
                for o in res.outcomes
            }
            for res in results
        },
    })


def test_bench_resilience_witness_search() -> None:
    """The joint search finds and minimizes the crash+partition witness."""
    found, fenced_label = search_restart_witness()

    assert found.witness is not None
    assert found.witness_label == SPLIT_BRAIN
    # 1-minimal and genuinely combined: one kill plus one cut, and the
    # singleton prefix of the enumeration already proved either fault
    # alone is survivable.
    assert len(found.witness) <= 2
    assert found.witness_kills == 1
    assert found.witness_cuts == 1
    # Fencing closes the hole under the very same fault plans.
    assert fenced_label == TOLERANT

    # Determinism: the search is a pure function of the virtual clock.
    again, again_label = search_restart_witness()
    assert again.to_dict() == found.to_dict()
    assert again_label == fenced_label

    payload = found.to_dict()
    payload["fenced_replay"] = fenced_label
    emit("E22: minimal combined witness",
         "{}\nfenced replay: {}".format(found.describe("combined witness"),
                                        fenced_label))
    persist("resilience", {"search": payload})
