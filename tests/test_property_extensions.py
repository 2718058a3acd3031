"""Property-based tests (hypothesis) for the extension mechanisms and the
parameter-based problems: channel conservation, CCR exclusion, alarm-clock
deadlines, and disk SCAN validity under randomized inputs/schedules."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mechanisms import Channel, SharedRegion
from repro.problems.alarm_clock import (
    CcrAlarmClock,
    CspAlarmClock,
    MonitorAlarmClock,
    SerializerAlarmClock,
    run_sleepers,
)
from repro.problems.disk_scheduler import (
    MonitorDiskScheduler,
    run_requests,
)
from repro.problems.readers_writers import (
    CcrReadersPriority,
    CspReadersPriority,
    run_workload,
)
from repro.runtime import RandomPolicy, Scheduler
from repro.verify import check_alarm_wakeups, check_mutual_exclusion, check_scan_order

COMMON_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Channels conserve messages
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    values=st.lists(st.integers(), min_size=1, max_size=10),
    senders=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_channel_conserves_messages(values, senders, seed):
    """Everything sent is received exactly once, in any schedule."""
    sched = Scheduler(policy=RandomPolicy(seed))
    chan = Channel(sched, "c")
    received = []
    shares = [values[i::senders] for i in range(senders)]

    def sender(items):
        def body():
            for item in items:
                yield from chan.send(item)
        return body

    def receiver():
        for __ in range(len(values)):
            item = yield from chan.receive()
            received.append(item)

    for i, share in enumerate(shares):
        sched.spawn(sender(share), name="S{}".format(i))
    sched.spawn(receiver, name="R")
    result = sched.run()
    assert not result.deadlocked
    assert sorted(received) == sorted(values)


@COMMON_SETTINGS
@given(seed=st.integers(0, 1000), contenders=st.integers(2, 5))
def test_ccr_region_exclusion_random_schedules(seed, contenders):
    sched = Scheduler(policy=RandomPolicy(seed))
    cell = SharedRegion(sched, {"inside": 0, "peak": 0}, name="v")

    def body():
        yield from cell.enter()
        cell.vars["inside"] += 1
        cell.vars["peak"] = max(cell.vars["peak"], cell.vars["inside"])
        yield
        cell.vars["inside"] -= 1
        cell.leave()

    for i in range(contenders):
        sched.spawn(body, name="P{}".format(i))
    sched.run()
    assert cell.vars["peak"] == 1


# ----------------------------------------------------------------------
# Alarm clock: every implementation, random delays
# ----------------------------------------------------------------------
_alarm_impls = st.sampled_from([
    MonitorAlarmClock, SerializerAlarmClock, CspAlarmClock, CcrAlarmClock,
])


@COMMON_SETTINGS
@given(
    cls=_alarm_impls,
    delays=st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
def test_alarm_deadlines_hold_for_random_delays(cls, delays):
    result, wakes = run_sleepers(lambda s: cls(s), tuple(delays))
    assert not result.deadlocked
    assert check_alarm_wakeups(result.trace, "alarm") == []
    assert wakes == sorted(wakes)


# ----------------------------------------------------------------------
# Disk: SCAN validity for random distinct track batches
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(data=st.data())
def test_disk_scan_valid_for_random_batches(data):
    tracks = data.draw(
        st.lists(
            st.integers(1, 199), min_size=2, max_size=8, unique=True
        )
    )
    delays = data.draw(
        st.lists(
            st.integers(0, 5),
            min_size=len(tracks),
            max_size=len(tracks),
        )
    )
    plan = list(zip(delays, tracks))
    result, impl = run_requests(lambda s: MonitorDiskScheduler(s), plan)
    assert not result.deadlocked
    assert check_scan_order(result.trace, "disk") == []
    assert sorted(impl.disk.served) == sorted(tracks)


# ----------------------------------------------------------------------
# Extension readers/writers: exclusion under random workloads+schedules
# ----------------------------------------------------------------------
_plans = st.lists(
    st.tuples(
        st.sampled_from(["R", "W"]),
        st.integers(0, 3),
        st.integers(1, 3),
    ),
    min_size=2,
    max_size=7,
)


@COMMON_SETTINGS
@given(
    cls=st.sampled_from([CspReadersPriority, CcrReadersPriority]),
    plan=_plans,
    seed=st.integers(0, 500),
)
def test_extension_rw_exclusion_random(cls, plan, seed):
    result = run_workload(
        lambda sched: cls(sched), plan, policy=RandomPolicy(seed)
    )
    assert not result.deadlocked
    assert check_mutual_exclusion(
        result.trace, "db", exclusive_ops=["write"], shared_ops=["read"]
    ) == []
