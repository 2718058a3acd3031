"""Large randomized stress runs across every mechanism, plus trace export."""

import json
import random

import pytest

from repro.problems.readers_writers import run_workload, staggered_plan
from repro.problems.registry import solutions_for
from repro.runtime import RandomPolicy, Scheduler
from repro.verify import check_mutual_exclusion, unserved_requests

RW_MECHANISMS = [
    e.mechanism for e in solutions_for(problem="readers_priority")
]


@pytest.mark.parametrize("mechanism", RW_MECHANISMS)
def test_stress_readers_priority(mechanism):
    """A 40-operation randomized workload under a randomized schedule:
    exclusion safety holds, nothing deadlocks, everything is served."""
    entry = solutions_for(problem="readers_priority", mechanism=mechanism)[0]
    # staggered_plan's generator, run for forty steps instead of ten.
    rng = random.Random(99)
    plan = [("R" if rng.random() < 0.6 else "W", rng.randrange(0, 6),
             rng.randrange(1, 4)) for __ in range(40)]
    result = run_workload(entry.factory, plan, policy=RandomPolicy(31))
    assert not result.deadlocked, result.blocked
    assert check_mutual_exclusion(
        result.trace, "db", exclusive_ops=["write"], shared_ops=["read"]
    ) == []
    assert unserved_requests(result.trace, "db", ["read", "write"]) == []
    # Every planned operation ran.
    starts = result.trace.filter(kind="op_start")
    db_starts = [ev for ev in starts if ev.obj in ("db.read", "db.write")]
    assert len(db_starts) == 40


def test_stress_many_processes_one_mutex():
    """200 processes through one monitor: no overlap, everyone served."""
    from repro.mechanisms import Monitor

    sched = Scheduler(policy=RandomPolicy(5))
    mon = Monitor(sched, "m")
    state = {"inside": 0, "peak": 0, "served": 0}

    def body():
        yield from mon.enter()
        state["inside"] += 1
        state["peak"] = max(state["peak"], state["inside"])
        yield
        state["inside"] -= 1
        state["served"] += 1
        mon.exit()

    for i in range(200):
        sched.spawn(body, name="P{}".format(i))
    sched.run()
    assert state["peak"] == 1
    assert state["served"] == 200


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------
def test_trace_to_dicts_round_trip():
    entry = solutions_for(problem="readers_priority", mechanism="monitor")[0]
    result = run_workload(entry.factory, staggered_plan(1)[:4])
    dicts = result.trace.to_dicts()
    assert len(dicts) == len(result.trace)
    assert dicts[0]["kind"] == "spawn"
    assert {"seq", "time", "pid", "pname", "kind", "obj", "detail"} <= set(
        dicts[0]
    )


def test_trace_to_json_parses():
    entry = solutions_for(problem="readers_priority", mechanism="monitor")[0]
    result = run_workload(entry.factory, staggered_plan(2)[:4])
    parsed = json.loads(result.trace.to_json())
    assert isinstance(parsed, list)
    assert parsed[0]["seq"] == 0


def test_trace_json_handles_unserializable_detail():
    from repro.runtime.trace import Event, Trace

    trace = Trace()
    trace.append(Event(0, 0, 1, "P", "custom", "x", detail=object()))
    parsed = json.loads(trace.to_json())
    assert "object" in parsed[0]["detail"]
