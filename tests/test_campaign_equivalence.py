"""Differential check: every fault-campaign verdict, pinned.

The four fault campaigns (``robustness``, ``recover``, ``partition`` and
``resilience``) run on one engine (:mod:`repro.explore.campaign`).  This
file pins what they conclude, so any change to that engine or to a
campaign's configuration that moves a verdict fails here:

* the bytes of each full ``--json`` report (searches included);
* per-label run counts for every chaos and recovery scenario and every
  partition and resilience cell;
* MTTR means, availability, restarts and message statistics per
  distributed cell;
* the event stream of one FIFO run per scenario: each chaos and recovery
  scenario killed at its deepest fault point, and each distributed cell
  under its own faults;
* both witness searches: plans tried, defeating plans, the minimized
  witness and the number of ddmin tests;
* ``ddmin`` itself on synthetic predicates.

To print fresh campaign constants (only when a change is *meant* to move a
verdict)::

    PYTHONPATH=src python tests/test_campaign_equivalence.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.__main__ import main
from repro.resilience.report import (resilience_scenarios,
                                     search_restart_witness)
from repro.runtime.faults import FaultPlan
from repro.runtime.policies import ScriptedPolicy
from repro.verify.chaos import SCENARIOS, enumerate_fault_points
from repro.verify.partition import partition_scenarios
from repro.verify.recovery import RECOVERY_SCENARIOS, minimal_defeat_witness

COMMANDS = {
    "robustness": ["robustness", "--json"],
    "recover": ["recover", "--search", "--json"],
    "partition": ["partition", "--json"],
    "resilience": ["resilience", "--search", "--json"],
}

#: blake2b-128 of each full report's standard output.
REPORT_DIGESTS = {
    "robustness": "60f0aab180ffdb4a6c3d1c1122abd0d3",
    "recover": "7fc4632400daf1e98ab6f6d693a9dadd",
    "partition": "a5863048b74c9c099dd95e70486e390d",
    "resilience": "3da2f5bf2c20ce78c123911830683600",
}

#: chaos scenario -> (runs, contained, propagated, deadlocked,
#: step-limited, classification).
CHAOS_COUNTS = {
    "semaphore": (75, 65, 0, 10, 0, "fault-deadlocking"),
    "semaphore+crash_release": (75, 75, 0, 0, 0, "fault-containing"),
    "mutex": (75, 75, 0, 0, 0, "fault-containing"),
    "monitor": (75, 75, 0, 0, 0, "fault-containing"),
    "serializer": (100, 100, 0, 0, 0, "fault-containing"),
    "ccr": (75, 75, 0, 0, 0, "fault-containing"),
    "pathexpr": (75, 75, 0, 0, 0, "fault-containing"),
    "channel": (50, 25, 25, 0, 0, "fault-propagating"),
}

#: recovery scenario -> (runs, recovered, degraded, wedged, violated,
#: classification).
RECOVERY_COUNTS = {
    "semaphore": (75, 75, 0, 0, 0, "recovered"),
    "semaphore+degrade": (75, 0, 75, 0, 0, "degraded"),
    "mutex": (75, 75, 0, 0, 0, "recovered"),
    "monitor": (75, 75, 0, 0, 0, "recovered"),
    "serializer": (100, 100, 0, 0, 0, "recovered"),
    "ccr": (75, 75, 0, 0, 0, "recovered"),
    "pathexpr": (75, 75, 0, 0, 0, "recovered"),
    "channel": (26, 14, 6, 0, 0, "degraded"),
}

#: "scenario/plan" -> (runs, split-brain, wedged, tolerant, classification,
#: failover mttr, post-heal mttr, message stats).
PARTITION_CELLS = {
    "lamport_mutex/clean": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 108, "delivered": 108, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 1, "n2": 1, "n1": 1}}),
    "lamport_mutex/lossy": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 174, "delivered": 174, "dropped": 6, "duplicated": 6,
         "delayed": 6, "inbox_peak": {"n2": 2, "n1": 2, "n0": 1}}),
    "lamport_mutex/partition-heal": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 408, "delivered": 264, "dropped": 144, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 3, "n1": 1, "n2": 1}}),
    "lamport_mutex/partition-forever": (
        6, 0, 6, 0, "wedged", None, None,
        {"sent": 564, "delivered": 252, "dropped": 312, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n2": 1, "n1": 1}}),
    "quorum_lock/clean": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 138, "delivered": 138, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"s0": 1, "s1": 1, "s2": 1}}),
    "quorum_lock/lossy": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 150, "delivered": 150, "dropped": 6, "duplicated": 6,
         "delayed": 0, "inbox_peak": {"s1": 1}}),
    "quorum_lock/partition-heal": (
        6, 0, 0, 6, "partition-tolerant", 4.0, 8.0,
        {"sent": 186, "delivered": 108, "dropped": 78, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"s0": 1}}),
    "quorum_lock/partition-forever": (
        6, 0, 0, 6, "partition-tolerant", 4.0, None,
        {"sent": 198, "delivered": 54, "dropped": 144, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"s0": 1}}),
    "leader_election/clean": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 288, "delivered": 288, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 1, "n1": 1, "n2": 1}}),
    "leader_election/lossy": (
        6, 0, 0, 6, "partition-tolerant", None, None,
        {"sent": 288, "delivered": 288, "dropped": 6, "duplicated": 6,
         "delayed": 0, "inbox_peak": {"n2": 1, "n1": 1}}),
    "leader_election/partition-heal": (
        6, 0, 0, 6, "partition-tolerant", 13.0, 4.0,
        {"sent": 414, "delivered": 228, "dropped": 186, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 1}}),
    "leader_election/partition-forever": (
        6, 0, 0, 6, "partition-tolerant", 13.0, None,
        {"sent": 522, "delivered": 156, "dropped": 366, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 1}}),
}

#: "scenario/cell" -> (runs, split-brain, wedged, tolerant, classification,
#: failover mttr, post-heal mttr, availability, restarts, message stats).
RESILIENCE_CELLS = {
    "lamport_mutex/clean": (
        3, 0, 0, 3, "partition-tolerant", None, None, None, 0,
        {"sent": 180, "delivered": 180, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 3, "n2": 3, "n1": 3, "n3": 3, "n4":
         3}}),
    "lamport_mutex/crash+partition": (
        3, 0, 3, 0, "wedged", None, None, None, 0,
        {"sent": 1200, "delivered": 996, "dropped": 156, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n1": 47, "n3": 2, "n2": 2, "n4": 2,
         "n0": 2}}),
    "quorum_lock/clean": (
        3, 0, 0, 3, "partition-tolerant", None, None, 0.075, 0,
        {"sent": 117, "delivered": 117, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"s0": 1, "s1": 1, "s2": 1, "s3": 1, "s4":
         1}}),
    "quorum_lock/crash+partition": (
        3, 0, 0, 3, "partition-tolerant", 8.0, 28.0, 0.075, 0,
        {"sent": 156, "delivered": 105, "dropped": 51, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"s0": 1, "s1": 3}}),
    "leader_election/clean": (
        3, 0, 0, 3, "partition-tolerant", None, None, 0.9, 0,
        {"sent": 336, "delivered": 336, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 3, "n1": 1, "n2": 1, "n3": 1, "n4":
         1}}),
    "leader_election/crash+partition": (
        3, 0, 0, 3, "partition-tolerant", 32.0, 16.0, 0.9, 0,
        {"sent": 375, "delivered": 297, "dropped": 78, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"n0": 20, "n2": 1, "n1": 2}}),
    "restart_lock/clean": (
        3, 0, 0, 3, "partition-tolerant", None, None, 0.10666666666666667, 0,
        {"sent": 120, "delivered": 120, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {}}),
    "restart_lock/crash-restart": (
        3, 0, 0, 3, "partition-tolerant", None, None, 0.24666666666666667, 1,
        {"sent": 240, "delivered": 240, "dropped": 0, "duplicated": 0,
         "delayed": 0, "inbox_peak": {"s4": 1}}),
    "restart_lock/partition-heal": (
        3, 0, 0, 3, "partition-tolerant", 20.0, None, 0.10666666666666667, 0,
        {"sent": 120, "delivered": 105, "dropped": 15, "duplicated": 0,
         "delayed": 0, "inbox_peak": {}}),
    "restart_lock/crash+partition": (
        3, 0, 0, 3, "partition-tolerant", 20.0, 11.0, 0.18000000000000002, 1,
        {"sent": 195, "delivered": 150, "dropped": 45, "duplicated": 0,
         "delayed": 0, "inbox_peak": {}}),
    "restart_lock_unfenced/crash+partition": (
        3, 3, 0, 0, "split-brain", 20.0, None, 0.12666666666666668, 1,
        {"sent": 120, "delivered": 105, "dropped": 15, "duplicated": 0,
         "delayed": 0, "inbox_peak": {}}),
}

#: blake2b-128 of one FIFO run's event stream per scenario or cell.
STREAMS = {
    "chaos/semaphore": "895f2cf45aba1124f7bfc7e3bf7b5b51",
    "chaos/semaphore+crash_release": "f56278eb1ee72888fce27724a557ab9c",
    "chaos/mutex": "d804a152227295714c9bb5cc44d38692",
    "chaos/monitor": "e7f398a3d7228cd8e8ecd1d9ca2d812d",
    "chaos/serializer": "6f126168e18bb1dcb9f345910dcb4996",
    "chaos/ccr": "c18a49ee0cbf12ae2d50733f030e8dba",
    "chaos/pathexpr": "32fbc6f72180e233457b7e38ebe94c06",
    "chaos/channel": "bff65dfdd1df0431e05a9f5e37fc61d0",
    "recovery/semaphore": "3d3ce0505de9ac6a877ba94e997745e8",
    "recovery/semaphore+degrade": "f3eaf5ef5dde51c9457124f5bf893022",
    "recovery/mutex": "18f32cacbda0352e22d4e5854b093767",
    "recovery/monitor": "bc674ffd33b2b7371da3872159ea0652",
    "recovery/serializer": "53f8e9205f30473dd2772daefdc921d6",
    "recovery/ccr": "6d26d8ffdd2ed53633b542640625ec05",
    "recovery/pathexpr": "c67cf66170f0f30a14e71cf209991719",
    "recovery/channel": "e5c6cb6ff4a379e0212f48b48f1e776f",
    "partition/lamport_mutex/clean": "6fcc1f14a55dc554ac0ecfdb27cd800e",
    "partition/lamport_mutex/lossy": "1b9bf5bf7432ef7593a3d03b00a7698a",
    "partition/lamport_mutex/partition-heal":
        "5cc8055cf488d51178c05d666adfbab2",
    "partition/lamport_mutex/partition-forever":
        "d9f812871fffb729a1e7b8317a5d5d3e",
    "partition/quorum_lock/clean": "23bab12ff2d94e6681dda101ccbc4993",
    "partition/quorum_lock/lossy": "7a6095b457aa93df3162bc99ac8190d5",
    "partition/quorum_lock/partition-heal": "dad5208f9f7009a8005e7d30b133579e",
    "partition/quorum_lock/partition-forever":
        "2e4939840f0ceb9854b0c332d68bb4ed",
    "partition/leader_election/clean": "6370f877b11b66dfeee8af375bda9652",
    "partition/leader_election/lossy": "f45e97363822c1f3c650ed116df77267",
    "partition/leader_election/partition-heal":
        "4d4122ffa649062daf3f4121c0e048a0",
    "partition/leader_election/partition-forever":
        "166276aec0a53c581fdcacee84f4b2d1",
    "resilience/lamport_mutex/clean": "442520f8e3fc90b9e64f919012a48468",
    "resilience/lamport_mutex/crash+partition":
        "ee88651d6417e5514073b1f224155901",
    "resilience/quorum_lock/clean": "0af550743fe38fec184a886ace8e6586",
    "resilience/quorum_lock/crash+partition":
        "405ee4a3a7fcbdc8b16533c84e610961",
    "resilience/leader_election/clean": "9fe84a06f0b16fb54fc9eccf99a1d608",
    "resilience/leader_election/crash+partition":
        "2443fc9bff356c90f5538bca6bb80b48",
    "resilience/restart_lock/clean": "8fac44e683abf5df9b7879201d157dc8",
    "resilience/restart_lock/crash-restart":
        "059e614c6f9752cad9b9dc6e78bb4dca",
    "resilience/restart_lock/partition-heal":
        "ec9eb9dc9ff8fb10f0f59f935c1684aa",
    "resilience/restart_lock/crash+partition":
        "f49414e893190bef1ad12b225bb039c6",
    "resilience/restart_lock_unfenced/crash+partition":
        "0faa9efd429fca6da867b1d6b933d632",
}

#: (plans tried, defeating plans, witness, ddmin tests, replay label).
DEFEAT_SEARCH = (
    99, 5, ("kill sup at step 0", "kill P0 at step 2"), 2, "wedged")
RESTART_SEARCH = (
    15, 6, ("kill c0 at t=12", "isolate c0 at t=10 (heals at t=70)"), 2,
    "partition-tolerant")


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------
def report_output(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(COMMANDS[command]))
    assert code == 0, command
    return out.getvalue()


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def stream_digest(run) -> str:
    h = hashlib.blake2b(digest_size=16)
    for ev in run.trace:
        detail = repr(ev.detail)
        if " at 0x" in detail:
            detail = "<address>"
        h.update(repr((ev.seq, ev.time, ev.pid, ev.pname, ev.kind, ev.obj,
                       detail)).encode())
        h.update(b"\n")
    return h.hexdigest()


def observe_reports():
    outputs = {name: report_output(name) for name in COMMANDS}
    payloads = {name: json.loads(text) for name, text in outputs.items()}
    chaos = {
        s["name"]: (s["runs"], s["contained"], s["propagated"],
                    s["deadlocked"], s["step_limited"], s["classification"])
        for s in payloads["robustness"]["scenarios"]}
    recovery = {
        s["name"]: (s["runs"], s["recovered"], s["degraded"], s["wedged"],
                    s["violated"], s["classification"])
        for s in payloads["recover"]["scenarios"]}
    partition = {
        "{}/{}".format(s["name"], c["plan"]): (
            c["runs"], c["split_brain"], c["wedged"], c["tolerant"],
            c["classification"], c["mttr_failover"], c["mttr_post_heal"],
            c["message_stats"])
        for s in payloads["partition"]["scenarios"] for c in s["plans"]}
    resilience = {
        "{}/{}".format(s["name"], c["cell"]): (
            c["runs"], c["split_brain"], c["wedged"], c["tolerant"],
            c["classification"], c["mttr_failover"], c["mttr_post_heal"],
            c["availability"], c["restarts"], c["message_stats"])
        for s in payloads["resilience"]["scenarios"] for c in s["cells"]}
    digests = {name: digest(text.encode()) for name, text in outputs.items()}
    return digests, chaos, recovery, partition, resilience


def observe_streams():
    out = {}
    for campaign, table in (("chaos", SCENARIOS),
                            ("recovery", RECOVERY_SCENARIOS)):
        for name, factory, victim, *__ in table:
            build = factory()
            point = enumerate_fault_points(build, victim)[-1]
            plan = FaultPlan().kill(point.process, at_step=point.step)
            out["{}/{}".format(campaign, name)] = stream_digest(
                build(ScriptedPolicy([]), plan))
    for name, build, __, __, plans in partition_scenarios():
        for plan_name, netplan, *__ in plans():
            out["partition/{}/{}".format(name, plan_name)] = stream_digest(
                build(ScriptedPolicy([]), netplan, None))
    for name, build, __, __, cells in resilience_scenarios():
        for cell_name, netplan, fault_plan, *__ in cells:
            out["resilience/{}/{}".format(name, cell_name)] = stream_digest(
                build(ScriptedPolicy([]), netplan, fault_plan))
    return out


def observe_searches():
    defeat = minimal_defeat_witness()
    restart, fenced = search_restart_witness()
    return tuple(
        (found.tried, len(found.defeating),
         tuple(f.describe() for f in found.witness or ()),
         found.minimize_tests, label)
        for found, label in ((defeat, defeat.witness_label),
                             (restart, fenced)))


@pytest.fixture(scope="module")
def reports():
    return observe_reports()


# ----------------------------------------------------------------------
# The pins
# ----------------------------------------------------------------------
def test_report_outputs_are_byte_identical(reports):
    assert reports[0] == REPORT_DIGESTS


def test_chaos_label_counts(reports):
    assert reports[1] == CHAOS_COUNTS


def test_recovery_label_counts(reports):
    assert reports[2] == RECOVERY_COUNTS


def test_partition_cells(reports):
    assert reports[3] == PARTITION_CELLS


def test_resilience_cells(reports):
    assert reports[4] == RESILIENCE_CELLS


def test_fifo_event_streams():
    assert observe_streams() == STREAMS


def test_witness_searches():
    assert observe_searches() == (DEFEAT_SEARCH, RESTART_SEARCH)


# ----------------------------------------------------------------------
# ddmin on synthetic predicates
# ----------------------------------------------------------------------
#: (items, minimal bad subsets) -> (the minimized set, tests run).  The
#: predicate is "contains every element of some listed subset".
DDMIN_CASES = [
    (1, [(0,)], ((0,), 0)),
    (2, [(1,)], ((1,), 1)),
    (2, [(0, 1)], ((0, 1), 2)),
    (8, [(3,)], ((3,), 4)),
    (8, [(2, 5)], ((2, 5), 14)),
    (8, [(0, 7)], ((0, 7), 14)),
    (10, [(1, 2, 3)], ((1, 2, 3), 11)),
    (16, [(4,), (9, 12)], ((9, 12), 16)),
    (7, [(0, 1, 2, 3, 4, 5, 6)], ((0, 1, 2, 3, 4, 5, 6), 10)),
    (13, [(6, 11), (2,)], ((6, 11), 18)),
    (32, [(5, 17, 30)], ((5, 17, 30), 38)),
]


@pytest.mark.parametrize("size,culprits,expected", DDMIN_CASES)
def test_ddmin_is_one_minimal_and_never_tests_the_empty_set(
        size, culprits, expected):
    from repro.explore.minimize import ddmin

    tested = []

    def still_bad(subset):
        tested.append(tuple(subset))
        return any(set(c) <= set(subset) for c in culprits)

    witness, tests = ddmin(list(range(size)), still_bad)
    assert (witness, tests) == expected
    assert tests == len(tested)
    assert all(tested), "ddmin tested the empty set"
    assert still_bad(witness)
    for drop in range(len(witness)):
        assert not still_bad(witness[:drop] + witness[drop + 1:])


if __name__ == "__main__":
    digests, chaos, recovery, partition, resilience = observe_reports()
    for name, value in (("REPORT_DIGESTS", digests),
                        ("CHAOS_COUNTS", chaos),
                        ("RECOVERY_COUNTS", recovery),
                        ("PARTITION_CELLS", partition),
                        ("RESILIENCE_CELLS", resilience),
                        ("STREAMS", observe_streams())):
        print("{} = {{".format(name))
        for key, val in value.items():
            print("    {!r}: {!r},".format(key, val))
        print("}")
    defeat, restart = observe_searches()
    print("DEFEAT_SEARCH = {!r}".format(defeat))
    print("RESTART_SEARCH = {!r}".format(restart))
