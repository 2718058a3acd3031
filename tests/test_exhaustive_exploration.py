"""Bounded model checking: exhaustively enumerate the schedule space of
small configurations and assert safety under EVERY interleaving — the
strongest guarantee the deterministic runtime enables.

Each system-under-test is rebuilt fresh per schedule (stateless replay).
Configurations are kept small (2–3 processes) so the space is exhausted
within the run budget; the ``exhausted`` flag is asserted so these tests
fail loudly if the space ever outgrows the budget instead of silently
checking a subset.
"""

import pytest

from repro.mechanisms import Monitor, Serializer, SharedRegion
from repro.mechanisms.pathexpr import PathResource
from repro.problems.readers_writers import (
    MonitorReadersPriority,
    PathReadersPriority,
    SerializerReadersPriority,
)
from repro.runtime import Mutex, Scheduler, Semaphore
from repro.explore import ExplorationEngine
from repro.verify import check_mutual_exclusion


def explore(build, check, max_runs=4000, max_depth=80):
    explorer = ExplorationEngine(build, max_runs=max_runs, max_depth=max_depth)
    outcome = explorer.explore(check)
    assert outcome.exhausted, (
        "schedule space not exhausted ({} runs)".format(outcome.runs)
    )
    return outcome


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_mutex_exclusion_all_schedules():
    def build(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        lock = Mutex(sched, "m")
        state = {"inside": 0, "peak": 0}

        def body():
            yield from lock.acquire()
            state["inside"] += 1
            state["peak"] = max(state["peak"], state["inside"])
            yield
            state["inside"] -= 1
            lock.release()

        for i in range(3):
            sched.spawn(body, name="P{}".format(i))
        result = sched.run()
        result.results["peak"] = state["peak"]
        return result

    outcome = explore(
        build,
        lambda run: ["overlap"] if run.results["peak"] > 1 else [],
    )
    assert outcome.ok
    assert outcome.runs > 1


def test_semaphore_bound_all_schedules():
    def build(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        sem = Semaphore(sched, initial=2, name="s")
        state = {"inside": 0, "peak": 0}

        def body():
            yield from sem.p()
            state["inside"] += 1
            state["peak"] = max(state["peak"], state["inside"])
            yield
            state["inside"] -= 1
            sem.v()

        for i in range(3):
            sched.spawn(body, name="P{}".format(i))
        result = sched.run()
        result.results["peak"] = state["peak"]
        return result

    outcome = explore(
        build, lambda run: ["over"] if run.results["peak"] > 2 else []
    )
    assert outcome.ok


# ----------------------------------------------------------------------
# Mechanisms: critical-section exclusion under every interleaving
# ----------------------------------------------------------------------
def _cs_check(run):
    return ["overlap"] if run.results.get("peak", 0) > 1 else []


def test_monitor_exclusion_all_schedules():
    def build(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        mon = Monitor(sched, "m")
        state = {"inside": 0, "peak": 0}

        def body():
            yield from mon.enter()
            state["inside"] += 1
            state["peak"] = max(state["peak"], state["inside"])
            yield
            state["inside"] -= 1
            mon.exit()

        for i in range(3):
            sched.spawn(body, name="P{}".format(i))
        result = sched.run()
        result.results["peak"] = state["peak"]
        return result

    assert explore(build, _cs_check).ok


def test_serializer_crowd_exclusion_all_schedules():
    def build(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        ser = Serializer(sched, "s")
        q = ser.queue("q")
        users = ser.crowd("users")
        state = {"inside": 0, "peak": 0}

        def body():
            yield from ser.enter()
            yield from ser.enqueue(q, lambda: users.empty)
            yield from ser.join_crowd(users)
            state["inside"] += 1
            state["peak"] = max(state["peak"], state["inside"])
            yield
            state["inside"] -= 1
            yield from ser.leave_crowd(users)
            ser.exit()

        for i in range(2):
            sched.spawn(body, name="P{}".format(i))
        result = sched.run()
        result.results["peak"] = state["peak"]
        return result

    assert explore(build, _cs_check).ok


def test_ccr_exclusion_all_schedules():
    def build(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        cell = SharedRegion(sched, {}, name="v")
        state = {"inside": 0, "peak": 0}

        def body():
            yield from cell.enter()
            state["inside"] += 1
            state["peak"] = max(state["peak"], state["inside"])
            yield
            state["inside"] -= 1
            cell.leave()

        for i in range(3):
            sched.spawn(body, name="P{}".format(i))
        result = sched.run()
        result.results["peak"] = state["peak"]
        return result

    assert explore(build, _cs_check).ok


def test_path_selection_exclusion_all_schedules():
    def build(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        res = PathResource(sched, "path a , b end", name="r")
        state = {"inside": 0, "peak": 0}

        def tracked(res_):
            state["inside"] += 1
            state["peak"] = max(state["peak"], state["inside"])
            yield
            state["inside"] -= 1

        res.define("a", tracked)
        res.define("b", tracked)

        def call(op):
            def body():
                yield from res.invoke(op)
            return body

        sched.spawn(call("a"), name="A")
        sched.spawn(call("b"), name="B")
        result = sched.run()
        result.results["peak"] = state["peak"]
        return result

    assert explore(build, _cs_check).ok


# ----------------------------------------------------------------------
# Readers/writers exclusion for every interleaving of a tiny workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls",
    [MonitorReadersPriority, SerializerReadersPriority, PathReadersPriority],
    ids=lambda c: c.mechanism,
)
def test_rw_exclusion_exhaustive_small(cls):
    def build(policy):
        sched = Scheduler(policy=policy)
        impl = cls(sched)

        def reader():
            yield from impl.read(work=1)

        def writer():
            yield from impl.write(1, work=1)

        sched.spawn(reader, name="R")
        sched.spawn(writer, name="W")
        return sched.run()

    def check(run):
        return check_mutual_exclusion(
            run.trace, "db", exclusive_ops=["write"], shared_ops=["read"]
        )

    outcome = explore(build, check, max_runs=8000, max_depth=120)
    assert outcome.ok
    assert outcome.runs >= 2
