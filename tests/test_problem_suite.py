"""Integration tests over the full problem suite: every registered solution
passes its oracle battery, plus problem-specific behavioural checks."""

import pytest

from repro.problems import alarm_clock, bounded_buffer, disk_scheduler
from repro.problems import fcfs_resource, one_slot_buffer, staged_queue
from repro.problems.registry import (
    all_solutions,
    build_evaluator,
    get_solution,
    solutions_for,
)
from repro.explore.targets import get_target
from repro.resources import fcfs_seek_distance
from repro.runtime import RandomPolicy, Scheduler
from repro.runtime.trace import Event, RunResult, Trace


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_covers_expected_grid():
    problems = {entry.problem for entry in all_solutions()}
    assert problems == {
        "bounded_buffer", "fcfs_resource", "readers_priority",
        "writers_priority", "rw_fcfs", "disk_scheduler", "alarm_clock",
        "one_slot_buffer", "staged_queue",
    }
    assert len(all_solutions()) == 55


def test_registry_lookup():
    entry = get_solution("readers_priority", "pathexpr")
    assert entry.description.mechanism == "pathexpr"
    with pytest.raises(KeyError):
        get_solution("readers_priority", "quantum")


def test_solutions_for_filters():
    monitors = solutions_for(mechanism="monitor")
    assert all(e.mechanism == "monitor" for e in monitors)
    rw = solutions_for(problem="readers_priority")
    assert {e.mechanism for e in rw} == {
        "semaphore", "monitor", "serializer", "pathexpr", "csp", "ccr",
    }


def test_all_descriptions_validate():
    for entry in all_solutions():
        assert entry.description.validate() == [], entry.key


@pytest.mark.parametrize(
    "entry", all_solutions(), ids=lambda e: "{}-{}".format(*e.key)
)
def test_every_registered_solution_verifies(entry):
    """The headline integration test: every registered solution passes its
    full oracle battery."""
    assert entry.verifier() == []


def test_evaluator_end_to_end():
    report = build_evaluator().evaluate(run_verifiers=False)
    assert len(report.entries) == 55 + 4  # registry + infeasibility records
    text = report.render()
    assert "pathexpr" in text and "serializer" in text
    assert "csp" in text and "ccr" in text


# ----------------------------------------------------------------------
# Bounded buffer specifics
# ----------------------------------------------------------------------
def test_bounded_buffer_capacity_respected():
    """Producers stall at capacity: with no consumer, exactly `capacity`
    puts complete."""
    for cls in (
        bounded_buffer.SemaphoreBoundedBuffer,
        bounded_buffer.MonitorBoundedBuffer,
        bounded_buffer.SerializerBoundedBuffer,
        bounded_buffer.OpenPathBoundedBuffer,
    ):
        sched = Scheduler()
        impl = cls(sched, capacity=3)

        def producer(i):
            def body():
                yield from impl.put(i)
            return body

        for i in range(6):
            sched.spawn(producer(i), name="p{}".format(i))
        result = sched.run(on_deadlock="return")
        assert impl.buffer.size == 3, cls.__name__
        assert len(result.blocked) == 3, cls.__name__


def test_bounded_buffer_fifo_data_order():
    sched = Scheduler()
    impl = bounded_buffer.MonitorBoundedBuffer(sched, capacity=2)
    got = []

    def producer():
        for i in range(5):
            yield from impl.put(i)

    def consumer():
        for __ in range(5):
            value = yield from impl.get()
            got.append(value)

    sched.spawn(producer, name="p")
    sched.spawn(consumer, name="c")
    sched.run()
    assert got == [0, 1, 2, 3, 4]


def test_bounded_buffer_target_flags_overlapping_put_and_get():
    """Mutation: ``buf.put`` and ``buf.get`` overlap in a run that still
    consumes both items.  The explore target's checker runs the package's
    trace battery, so it must report the overlap."""
    trace = Trace()
    for seq, (pid, pname, kind, obj) in enumerate([
            (1, "P0", "op_start", "buf.put"),
            (3, "C", "op_start", "buf.get"),
            (1, "P0", "op_end", "buf.put"),
            (3, "C", "op_end", "buf.get")]):
        trace.append(Event(seq, 0, pid, pname, kind, obj, None))
    run = RunResult(trace=trace, results={"consumed": [0, 1]})
    messages = get_target("bounded_buffer", "monitor").checker(run)
    assert messages == bounded_buffer.trace_battery(run)
    assert len(messages) == 1 and "buf.get" in messages[0]


# ----------------------------------------------------------------------
# Disk scheduler specifics
# ----------------------------------------------------------------------
def test_scan_beats_fcfs_on_seek_distance():
    """The quantitative shape: elevator total seek <= FCFS total seek on a
    contended batch (E10 context)."""
    plan = [(0, t) for t in (95, 12, 143, 37, 180, 55, 8, 120)]
    __, scan_impl = disk_scheduler.run_requests(
        lambda s: disk_scheduler.MonitorDiskScheduler(s), plan
    )
    __, fcfs_impl = disk_scheduler.run_requests(
        lambda s: disk_scheduler.SemaphoreDiskFcfs(s), plan
    )
    assert scan_impl.disk.total_seek < fcfs_impl.disk.total_seek


def test_all_disk_schedulers_agree_on_serve_order():
    plan = [(0, t) for t in (60, 20, 90, 40)]
    orders = []
    for cls in (
        disk_scheduler.MonitorDiskScheduler,
        disk_scheduler.SerializerDiskScheduler,
        disk_scheduler.OpenPathDiskScheduler,
    ):
        __, impl = disk_scheduler.run_requests(lambda s, c=cls: c(s), plan)
        orders.append(impl.disk.served)
    assert orders[0] == orders[1] == orders[2] == [60, 90, 40, 20]


def test_fcfs_seek_distance_helper_matches_baseline():
    plan = [(0, t) for t in (60, 20, 90)]
    __, impl = disk_scheduler.run_requests(
        lambda s: disk_scheduler.SemaphoreDiskFcfs(s), plan
    )
    assert impl.disk.total_seek == fcfs_seek_distance(0, [60, 20, 90])


# ----------------------------------------------------------------------
# Alarm clock specifics
# ----------------------------------------------------------------------
def test_alarm_wake_order_is_deadline_order():
    for cls in (
        alarm_clock.MonitorAlarmClock,
        alarm_clock.SerializerAlarmClock,
        alarm_clock.OpenPathAlarmClock,
        alarm_clock.SemaphoreAlarmClock,
    ):
        __, wakes = alarm_clock.run_sleepers(
            lambda s, c=cls: c(s), delays=(7, 3, 9, 1)
        )
        assert wakes == [1, 3, 7, 9], cls.__name__


def test_alarm_zero_delay_is_immediate():
    sched = Scheduler()
    impl = alarm_clock.MonitorAlarmClock(sched)
    woke = []

    def sleeper():
        yield from impl.wakeme(0)
        woke.append(sched.now)

    sched.spawn(sleeper, name="s")
    sched.run()
    assert woke == [0]


# ----------------------------------------------------------------------
# Staged queue specifics
# ----------------------------------------------------------------------
def test_staged_queue_naive_single_queue_fails():
    """The E8 contrast: discarding type information loses class priority."""
    verifier = staged_queue.make_verifier(
        lambda s: staged_queue.MonitorSingleQueue(s)
    )
    assert verifier() != []


def test_staged_queue_service_order():
    result = staged_queue.run_classes(
        lambda s: staged_queue.MonitorStagedQueue(s)
    )
    starts = [
        ev.obj for ev in result.trace.projection("op_start")
        if ev.obj.startswith("res.acquire")
    ]
    # First in (a B) is served, then all queued A's, then remaining B's.
    assert starts[0] == "res.acquire_b"
    assert starts[1:5] == ["res.acquire_a"] * 4
    assert starts[5:] == ["res.acquire_b"] * 3


# ----------------------------------------------------------------------
# FCFS resource under randomized schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fcfs_resource_random_schedules_safe(seed):
    """Occupancy safety must hold under any schedule (FCFS ordering is only
    asserted under staggered arrivals, where it is well-defined)."""
    from repro.verify import check_single_occupancy

    result = fcfs_resource.run_contenders(
        lambda s: fcfs_resource.MonitorFcfsResource(s),
        policy=RandomPolicy(seed),
        stagger=False,
    )
    assert check_single_occupancy(result.trace, "res", ["use"]) == []


# ----------------------------------------------------------------------
# One-slot buffer value integrity
# ----------------------------------------------------------------------
def test_one_slot_values_conserved():
    __, consumed = one_slot_buffer.run_ping_pong(
        lambda s: one_slot_buffer.PathOneSlotBuffer(s)
    )
    assert len(consumed) == 6
    assert len(set(consumed)) == 6  # no duplicates, no losses
