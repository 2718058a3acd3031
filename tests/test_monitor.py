"""Unit tests for Hoare monitors: possession, entry FIFO, condition waits,
Hoare vs Mesa signalling, priority wait, urgent stack, and protocol errors."""

import pytest

from repro.mechanisms import Monitor
from repro.runtime import IllegalOperationError, ProcessFailed, Scheduler


def test_monitor_mutual_exclusion():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    inside = []
    overlap = []

    def body(tag):
        yield from mon.enter()
        inside.append(tag)
        overlap.append(len(inside))
        yield
        inside.remove(tag)
        mon.exit()

    for tag in "abcd":
        sched.spawn(body, tag, name=tag)
    sched.run()
    assert max(overlap) == 1


def test_monitor_entry_is_fifo():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    order = []

    def body(tag):
        yield from mon.enter()
        order.append(tag)
        yield
        mon.exit()

    for tag in "abc":
        sched.spawn(body, tag, name=tag)
    sched.run()
    assert order == ["a", "b", "c"]


def test_wait_releases_monitor():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    order = []

    def waiter():
        yield from mon.enter()
        order.append("wait")
        yield from cond.wait()
        order.append("woken")
        mon.exit()

    def other():
        yield from mon.enter()
        order.append("other-inside")
        yield from cond.signal()
        mon.exit()

    sched.spawn(waiter, name="w")
    sched.spawn(other, name="o")
    sched.run()
    assert order == ["wait", "other-inside", "woken"]


def test_hoare_signal_hands_over_immediately():
    """Under Hoare semantics the signalled process runs inside the monitor
    before the signaller's next monitor action."""
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    order = []

    def waiter():
        yield from mon.enter()
        yield from cond.wait()
        order.append("waiter-resumed")
        mon.exit()

    def signaller():
        yield from mon.enter()
        order.append("pre-signal")
        yield from cond.signal()
        order.append("post-signal")
        mon.exit()

    sched.spawn(waiter, name="w")
    sched.spawn(signaller, name="s")
    sched.run()
    assert order == ["pre-signal", "waiter-resumed", "post-signal"]


def test_hoare_no_barging_between_signal_and_resume():
    """A third process waiting at entry must not slip in between signal and
    the waiter's resumption (possession is handed directly)."""
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    order = []

    def waiter():
        yield from mon.enter()
        yield from cond.wait()
        order.append("waiter")
        mon.exit()

    def signaller():
        yield from mon.enter()
        yield from cond.signal()
        order.append("signaller")
        mon.exit()

    def barger():
        yield
        yield from mon.enter()
        order.append("barger")
        mon.exit()

    sched.spawn(waiter, name="w")
    sched.spawn(signaller, name="s")
    sched.spawn(barger, name="b")
    sched.run()
    assert order.index("waiter") < order.index("barger")


def test_mesa_signal_continues():
    sched = Scheduler()
    mon = Monitor(sched, "m", signal_semantics="mesa")
    cond = mon.condition("c")
    order = []

    def waiter():
        yield from mon.enter()
        yield from cond.wait()
        order.append("waiter")
        mon.exit()

    def signaller():
        yield from mon.enter()
        yield from cond.signal()
        order.append("signaller-continues")
        mon.exit()

    sched.spawn(waiter, name="w")
    sched.spawn(signaller, name="s")
    sched.run()
    assert order == ["signaller-continues", "waiter"]


def test_signal_on_empty_condition_is_noop():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    done = []

    def body():
        yield from mon.enter()
        yield from cond.signal()
        done.append(True)
        mon.exit()

    sched.spawn(body)
    sched.run()
    assert done == [True]


def test_condition_queue_attribute():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    observed = []

    def waiter():
        yield from mon.enter()
        yield from cond.wait()
        mon.exit()

    def checker():
        yield from mon.enter()
        observed.append(cond.queue)
        observed.append(len(cond))
        yield from cond.signal()
        mon.exit()

    sched.spawn(waiter, name="w")
    sched.spawn(checker, name="c")
    sched.run()
    assert observed == [True, 1]


def test_priority_wait_wakes_smallest_rank():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    woken = []

    def waiter(tag, rank):
        yield from mon.enter()
        yield from cond.wait(priority=rank)
        woken.append(tag)
        mon.exit()

    def signaller():
        for _ in range(4):
            yield
        yield from mon.enter()
        while cond.queue:
            yield from cond.signal()
        mon.exit()

    sched.spawn(waiter, "far", 90, name="far")
    sched.spawn(waiter, "near", 10, name="near")
    sched.spawn(waiter, "mid", 50, name="mid")
    sched.spawn(signaller, name="sig")
    sched.run()
    assert woken == ["near", "mid", "far"]


def test_priority_wait_ties_break_fifo():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    woken = []

    def waiter(tag):
        yield from mon.enter()
        yield from cond.wait(priority=5)
        woken.append(tag)
        mon.exit()

    def signaller():
        yield
        yield
        yield from mon.enter()
        while cond.queue:
            yield from cond.signal()
        mon.exit()

    sched.spawn(waiter, "first", name="first")
    sched.spawn(waiter, "second", name="second")
    sched.spawn(signaller, name="sig")
    sched.run()
    assert woken == ["first", "second"]


def test_minrank():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    observed = []

    def waiter(rank):
        yield from mon.enter()
        yield from cond.wait(priority=rank)
        mon.exit()

    def checker():
        yield
        yield
        yield from mon.enter()
        observed.append(cond.minrank())
        while cond.queue:
            yield from cond.signal()
        mon.exit()

    sched.spawn(waiter, 42, name="a")
    sched.spawn(waiter, 7, name="b")
    sched.spawn(checker, name="chk")
    sched.run()
    assert observed == [7]
    assert cond.minrank() is None


def test_signal_and_exit():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    order = []

    def waiter():
        yield from mon.enter()
        yield from cond.wait()
        order.append("waiter")
        mon.exit()

    def signaller():
        yield from mon.enter()
        order.append("signaller")
        cond.signal_and_exit()

    sched.spawn(waiter, name="w")
    sched.spawn(signaller, name="s")
    result = sched.run()
    assert order == ["signaller", "waiter"]
    assert not result.blocked


def test_signal_and_exit_empty_releases_monitor():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    order = []

    def one():
        yield from mon.enter()
        cond.signal_and_exit()

    def two():
        yield from mon.enter()
        order.append("two")
        mon.exit()

    sched.spawn(one, name="one")
    sched.spawn(two, name="two")
    sched.run()
    assert order == ["two"]


def test_broadcast_under_hoare():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    woken = []

    def waiter(tag):
        yield from mon.enter()
        yield from cond.wait()
        woken.append(tag)
        mon.exit()

    def caster():
        yield
        yield
        yield from mon.enter()
        yield from cond.broadcast()
        mon.exit()

    sched.spawn(waiter, "a", name="a")
    sched.spawn(waiter, "b", name="b")
    sched.spawn(caster, name="cast")
    sched.run()
    assert sorted(woken) == ["a", "b"]


def test_procedure_helper_exits_on_exception():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    survived = []

    def failing_body():
        raise ValueError("inside monitor")
        yield  # pragma: no cover

    def bad():
        yield from mon.procedure(failing_body())

    def good():
        yield
        yield from mon.enter()
        survived.append(True)
        mon.exit()

    sched.spawn(bad, name="bad")
    sched.spawn(good, name="good")
    sched.run(on_error="record")
    assert survived == [True]
    assert mon.active_name is None


def test_wait_outside_monitor_raises():
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")

    def body():
        yield from cond.wait()

    sched.spawn(body)
    with pytest.raises(ProcessFailed) as err:
        sched.run()
    assert isinstance(err.value.__cause__, IllegalOperationError)


def test_exit_without_enter_raises():
    sched = Scheduler()
    mon = Monitor(sched, "m")

    def body():
        yield
        mon.exit()

    sched.spawn(body)
    with pytest.raises(ProcessFailed):
        sched.run()


def test_reenter_raises():
    sched = Scheduler()
    mon = Monitor(sched, "m")

    def body():
        yield from mon.enter()
        yield from mon.enter()

    sched.spawn(body)
    with pytest.raises(ProcessFailed):
        sched.run()


def test_bad_signal_semantics_rejected():
    with pytest.raises(ValueError):
        Monitor(Scheduler(), signal_semantics="eiffel")


def test_urgent_stack_priority_over_entry():
    """After the signalled process exits, the signaller (urgent) resumes
    before any process waiting at entry."""
    sched = Scheduler()
    mon = Monitor(sched, "m")
    cond = mon.condition("c")
    order = []

    def waiter():
        yield from mon.enter()
        yield from cond.wait()
        order.append("waiter")
        mon.exit()

    def signaller():
        yield from mon.enter()
        yield from cond.signal()
        order.append("signaller")
        mon.exit()

    def entrant():
        yield
        yield from mon.enter()
        order.append("entrant")
        mon.exit()

    sched.spawn(waiter, name="w")
    sched.spawn(signaller, name="s")
    sched.spawn(entrant, name="e")
    sched.run()
    assert order == ["waiter", "signaller", "entrant"]
