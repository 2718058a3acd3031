"""Experiment E12 — fault tolerance of the evaluated mechanisms.

The paper evaluates mechanisms on *expressive power* (§4–§5); this bench
applies the same comparative table style to *robustness*: what happens to
the survivors when a process dies inside each mechanism's protected region?

The chaos campaign kills the victim at every reachable fault point and
explores the schedule space around each kill.  The fault model (DESIGN.md
"Fault model") predicts one classification per mechanism:

=======================  ===================  =====================================
mechanism                classification       why
=======================  ===================  =====================================
semaphore                fault-deadlocking    a permit has no owner; it dies with
                                              its holder and waiters starve
semaphore+crash_release  fault-containing     opt-in ownership returns the permit
mutex                    fault-containing     robust-mutex handoff to next waiter
monitor                  fault-containing     dead occupant's possession passes on
serializer               fault-containing     dead possessor/crowd member cleaned up
pathexpr                 fault-containing     semaphore network repaired (V forward
                                              / undo backward)
channel                  fault-propagating    partner is *told* via PeerFailed
                                              (Erlang-link style) instead of wedged
=======================  ===================  =====================================
"""

from conftest import emit

from repro.verify.chaos import (
    CONTAINING,
    DEADLOCKING,
    PROPAGATING,
    expected_classifications,
    robustness_report,
)


def test_bench_fault_tolerance_table() -> None:
    """Regenerate the fault-containment table; assert the fault model."""
    results, table = robustness_report(fast=False)
    emit("E12: fault containment by mechanism", table)

    expected = expected_classifications()
    got = {r.name: r.classification for r in results}
    assert got == expected

    by_name = {r.name: r for r in results}
    # The raw semaphore must actually exhibit the deadlock (not vacuously).
    assert by_name["semaphore"].count(DEADLOCKING) > 0
    assert by_name["semaphore"].classification == DEADLOCKING
    # Its crash_release variant repairs exactly that failure mode.
    assert by_name["semaphore+crash_release"].count(DEADLOCKING) == 0
    assert by_name["semaphore+crash_release"].classification == CONTAINING
    # The channel variant propagates but never wedges.
    assert by_name["channel"].count(PROPAGATING) > 0
    assert by_name["channel"].count(DEADLOCKING) == 0
    # Containing mechanisms contain in *every* explored schedule.
    for name in ("mutex", "monitor", "serializer", "pathexpr"):
        res = by_name[name]
        assert res.count(PROPAGATING) == 0, name
        assert res.count(DEADLOCKING) == 0, name
        assert res.count(CONTAINING) > 0, name
