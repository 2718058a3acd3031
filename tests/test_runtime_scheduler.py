"""Unit tests for the core scheduler: spawning, stepping, blocking, timers,
deadlock detection, policies, and trace bookkeeping."""

import pytest

from repro.runtime import (
    DeadlockError,
    FIFOPolicy,
    NamedOrderPolicy,
    ProcessFailed,
    ProcessState,
    RandomPolicy,
    Scheduler,
    SchedulerStateError,
    ScriptedPolicy,
    Semaphore,
    StepLimitExceeded,
)


def test_single_process_runs_to_completion():
    sched = Scheduler()
    log = []

    def body():
        log.append("a")
        yield
        log.append("b")

    sched.spawn(body, name="solo")
    result = sched.run()
    assert log == ["a", "b"]
    assert not result.deadlocked
    assert result.blocked == []


def test_process_return_value_collected():
    sched = Scheduler()

    def body():
        yield
        return 42

    sched.spawn(body, name="answer")
    result = sched.run()
    assert result.results["answer"] == 42


def test_fifo_policy_round_robins():
    sched = Scheduler(policy=FIFOPolicy())
    order = []

    def body(tag):
        for _ in range(3):
            order.append(tag)
            yield

    sched.spawn(body, "a", name="A")
    sched.spawn(body, "b", name="B")
    sched.run()
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_spawn_inside_process():
    sched = Scheduler()
    order = []

    def child():
        order.append("child")
        yield

    def parent():
        order.append("parent")
        sched.spawn(child, name="kid")
        yield

    sched.spawn(parent, name="parent")
    sched.run()
    assert order == ["parent", "child"]


def test_park_without_unpark_is_deadlock():
    sched = Scheduler()

    def body():
        yield from sched.park("forever")

    sched.spawn(body, name="stuck")
    with pytest.raises(DeadlockError) as err:
        sched.run()
    assert "stuck" in str(err.value)


def test_deadlock_can_be_returned_instead_of_raised():
    sched = Scheduler()

    def body():
        yield from sched.park("forever")

    sched.spawn(body, name="stuck")
    result = sched.run(on_deadlock="return")
    assert result.deadlocked
    assert result.blocked == ["stuck"]


def test_unpark_delivers_value():
    sched = Scheduler()
    received = []
    procs = {}

    def waiter():
        value = yield from sched.park("token")
        received.append(value)

    def waker():
        yield
        sched.unpark(procs["w"], "hello")

    procs["w"] = sched.spawn(waiter, name="waiter")
    sched.spawn(waker, name="waker")
    sched.run()
    assert received == ["hello"]


def test_unpark_nonblocked_raises():
    sched = Scheduler()

    def sleeper():
        yield

    def buggy(target):
        yield
        sched.unpark(target)

    target = sched.spawn(sleeper, name="t")
    sched.spawn(buggy, target, name="buggy")
    with pytest.raises(ProcessFailed):
        sched.run()


def test_sleep_advances_virtual_clock():
    sched = Scheduler()
    wake_times = []

    def sleeper(ticks):
        yield from sched.sleep(ticks)
        wake_times.append((ticks, sched.now))

    sched.spawn(sleeper, 5, name="s5")
    sched.spawn(sleeper, 2, name="s2")
    result = sched.run()
    assert sorted(wake_times) == [(2, 2), (5, 5)]
    assert result.time == 5


def test_sleep_zero_does_not_block():
    sched = Scheduler()
    done = []

    def body():
        yield from sched.sleep(0)
        done.append(True)

    sched.spawn(body)
    sched.run()
    assert done == [True]


def test_step_limit_guards_livelock():
    sched = Scheduler(max_steps=50)

    def spinner():
        while True:
            yield

    sched.spawn(spinner)
    with pytest.raises(StepLimitExceeded):
        sched.run()


def test_process_exception_wrapped():
    sched = Scheduler()

    def bad():
        yield
        raise ValueError("boom")

    sched.spawn(bad, name="bad")
    with pytest.raises(ProcessFailed) as err:
        sched.run()
    assert isinstance(err.value.__cause__, ValueError)


def test_process_exception_recorded_mode():
    sched = Scheduler()
    survived = []

    def bad():
        yield
        raise ValueError("boom")

    def good():
        yield
        yield
        survived.append(True)

    sched.spawn(bad, name="bad")
    sched.spawn(good, name="good")
    result = sched.run(on_error="record")
    assert survived == [True]
    assert "good" in result.results


def test_scripted_policy_controls_interleaving():
    order = []

    def body(tag):
        order.append(tag)
        yield
        order.append(tag)

    # Always pick the last ready process.
    sched = Scheduler(policy=ScriptedPolicy([1, 1, 1, 1, 1, 1]))
    sched.spawn(body, "a", name="A")
    sched.spawn(body, "b", name="B")
    sched.run()
    assert order[0] == "b"


def test_scripted_policy_records_branching():
    policy = ScriptedPolicy([])
    sched = Scheduler(policy=policy)

    def body():
        yield

    sched.spawn(body, name="A")
    sched.spawn(body, name="B")
    sched.run()
    assert policy.branch_log[0] == 2
    assert all(n >= 1 for n in policy.branch_log)


def test_named_order_policy_follows_names():
    order = []

    def body(tag):
        order.append(tag)
        yield

    sched = Scheduler(policy=NamedOrderPolicy(["B", "A"]))
    sched.spawn(body, "a", name="A")
    sched.spawn(body, "b", name="B")
    sched.run()
    assert order == ["b", "a"]


def test_random_policy_is_seed_deterministic():
    def run_with_seed(seed):
        order = []

        def body(tag):
            for _ in range(3):
                order.append(tag)
                yield

        sched = Scheduler(policy=RandomPolicy(seed))
        for tag in "abc":
            sched.spawn(body, tag, name=tag.upper())
        sched.run()
        return order

    assert run_with_seed(7) == run_with_seed(7)


def test_trace_records_spawn_and_exit():
    sched = Scheduler()

    def body():
        yield

    sched.spawn(body, name="X")
    result = sched.run()
    kinds = [ev.kind for ev in result.trace]
    assert "spawn" in kinds
    assert "exit" in kinds


def test_arrival_stamps_are_ordered():
    sched = Scheduler()

    def body():
        yield

    p1 = sched.spawn(body, name="first")
    p2 = sched.spawn(body, name="second")
    assert p1.arrival < p2.arrival


def test_spawn_after_run_rejected():
    sched = Scheduler()

    def body():
        yield

    sched.spawn(body)
    sched.run()
    with pytest.raises(SchedulerStateError):
        sched.spawn(body)


def test_non_generator_body_rejected():
    sched = Scheduler()

    def not_a_generator():
        return 3

    with pytest.raises(SchedulerStateError):
        sched.spawn(not_a_generator)


def test_spawned_bodies_run_in_spawn_order_under_their_names():
    log = []

    def make(tag):
        def body():
            log.append(tag)
            yield
        return body

    sched = Scheduler()
    sched.spawn(make("x"), name="X")
    sched.spawn(make("y"), name="Y")
    result = sched.run()
    assert log == ["x", "y"]
    assert set(result.results) == {"X", "Y"}


def test_process_state_transitions():
    sched = Scheduler()

    def body():
        yield

    proc = sched.spawn(body)
    assert proc.state is ProcessState.READY
    sched.run()
    assert proc.state is ProcessState.DONE
    assert not proc.alive


def test_preemptive_checkpoint_yields():
    sched = Scheduler(preemptive=True)
    sem = Semaphore(sched, initial=1, name="s")
    switches = []

    def body(tag):
        yield from sem.p()
        switches.append(tag)
        sem.v()

    sched.spawn(body, "a", name="A")
    sched.spawn(body, "b", name="B")
    sched.run()
    assert sorted(switches) == ["a", "b"]
