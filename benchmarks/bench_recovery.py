"""Experiment E17 — recovery under supervision: rate, MTTR, minimal defeat.

E12 (``bench_fault_tolerance``) measures what each mechanism does when a
participant dies: contain, propagate, or deadlock.  This bench measures the
layer built on top — the recovery runtime (:mod:`repro.recover`) — by
wrapping every mechanism's workers in a Supervisor with lease-based crash
reclamation and asking three quantitative questions:

1. **Does it heal?**  Every supervised scenario must classify *recovered*
   or *degraded* under exhaustive per-fault-point schedule exploration —
   never *wedged* and never *violated* (the exclusion oracle holds across
   restart boundaries).  In particular the raw semaphore, which classifies
   fault-deadlocking in E12, must classify recovered here: the lease
   manager revokes the corpse's permit, the supervisor reruns it.
2. **How fast?**  Deterministic MTTR fingerprints — ticks from death to the
   replacement incarnation's completion on the virtual clock — persisted to
   ``BENCH_recovery.json`` for cross-commit diffing.
3. **What defeats it?**  Fault-plan search over multi-kill plans, ddmin
   minimized: recovery of the supervised semaphore is provably incomplete
   with exactly 2 faults (kill the supervisor, then a permit holder) while
   no single fault defeats it.
"""

from conftest import emit, persist

from repro.explore.campaign import label_counts
from repro.verify.recovery import (
    COLUMNS,
    DEGRADED,
    RECOVERED,
    VIOLATED,
    WEDGED,
    expected_recovery,
    minimal_defeat_witness,
    mttr_fingerprints,
    recovery_report,
)


def test_bench_recovery_table() -> None:
    """Regenerate the recovery table; assert the recovery contract."""
    results, table = recovery_report(fast=False)
    emit("E17: recovery under supervision", table)

    expected = expected_recovery()
    by_name = {r.name: r for r in results}
    for name, acceptable in expected.items():
        assert by_name[name].classification in acceptable, name

    # The headline claim: the one mechanism that *wedges* unsupervised
    # (E12's raw semaphore) fully recovers under supervision ...
    assert by_name["semaphore"].classification == RECOVERED
    assert by_name["semaphore"].count(RECOVERED) > 0
    # ... and nothing wedges or violates exclusion across restarts.
    for res in results:
        assert res.count(WEDGED) == 0, res.name
        assert res.count(VIOLATED) == 0, res.name
        assert res.violations == [], res.name
    # Degradation is real where declared: the degrade variant relaxes
    # priority (LIFO -> FIFO) but still never wedges.
    assert by_name["semaphore+degrade"].count(DEGRADED) > 0

    persist("recovery", {
        "scenarios": {
            r.name: {
                "runs": r.runs,
                **label_counts(r, COLUMNS),
                "classification": r.classification,
            }
            for r in results
        },
    })


def test_bench_recovery_mttr_fingerprints() -> None:
    """Deterministic MTTR per mechanism, persisted for cross-commit diffs."""
    fingerprints = mttr_fingerprints()
    lines = [
        "{:<18} mttr={:<6} rate={:<6} [{}]".format(
            name,
            "-" if fp["mttr"] is None else fp["mttr"],
            fp["recovery_rate"],
            fp["classification"],
        )
        for name, fp in fingerprints.items()
    ]
    emit("E17: MTTR fingerprints (virtual-clock ticks)", "\n".join(lines))

    # All six mechanisms are covered and every fingerprint is a full
    # recovery: each death restarted and re-run to completion.
    assert set(fingerprints) == {
        "semaphore", "semaphore+degrade", "mutex", "monitor",
        "serializer", "ccr", "pathexpr", "channel",
    }
    for name, fp in fingerprints.items():
        assert fp["deaths"] > 0, name
        assert fp["recovery_rate"] == 1.0, name
        assert fp["mttr"] is not None and fp["mttr"] >= 1, name
        assert fp["classification"] in (RECOVERED, DEGRADED), name

    # Determinism: the virtual clock makes the fingerprint exact.
    again = mttr_fingerprints()
    assert again == fingerprints

    persist("recovery", {"mttr": fingerprints})


def test_bench_recovery_minimal_defeat() -> None:
    """ddmin a multi-kill plan down to the minimal set defeating recovery."""
    result = minimal_defeat_witness()
    emit("E17: minimal crash set defeating recovery",
         result.describe("crash set"))

    assert result.witness is not None, "no defeating fault plan found"
    assert len(result.witness) <= 2
    # The witness must include the supervisor: no 1-fault worker kill
    # defeats recovery, so incompleteness requires killing the healer.
    assert any(k.process == "sup" for k in result.witness)
    assert result.witness_label == "wedged"

    persist("recovery", {
        "minimal_defeat": {
            "plans_tried": result.tried,
            "witness": [k.describe() for k in result.witness],
            "label": result.witness_label,
            "minimize_tests": result.minimize_tests,
        },
    })
