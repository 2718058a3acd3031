"""Timed blocking calls: ``timeout=`` on channel ``send``/``receive`` (the
library's one timed wait), the stale-timer guard in ``_advance_clock``,
step-limit diagnostics, the scheduler's run options, and bounded retry
(``retry_with_backoff``).

The contract: a timed waiter that gives up has its offer *withdrawn*
before :class:`WaitTimeout` is delivered, so a later match can never
target a process that already walked away.
"""

import pytest

from repro.mechanisms.channels import Channel
from repro.recover import retry_with_backoff
from repro.runtime import (
    FaultPlan,
    ProcessFailed,
    Scheduler,
    StepLimitExceeded,
    WaitTimeout,
)


# ----------------------------------------------------------------------
# Channel timeouts
# ----------------------------------------------------------------------
class TestChannelTimeouts:
    def test_zero_timeout_rejected(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")

        def waiter():
            yield from chan.receive(timeout=0)

        sched.spawn(waiter, name="W")
        with pytest.raises(ProcessFailed) as info:
            sched.run()
        assert isinstance(info.value.__cause__, ValueError)

    def test_send_timeout_withdraws_offer(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")
        log = []

        def sender():
            try:
                yield from chan.send("stale", timeout=5)
            except WaitTimeout:
                log.append("send timeout")
            # A fresh rendezvous afterwards must not see the stale offer.
            yield from chan.send("fresh")

        def receiver():
            yield from sched.sleep(10)
            value = yield from chan.receive()
            log.append(value)

        sched.spawn(sender, name="S")
        sched.spawn(receiver, name="R")
        sched.run()
        assert log == ["send timeout", "fresh"]

    def test_receive_timeout(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")
        log = []

        def receiver():
            try:
                yield from chan.receive(timeout=5)
            except WaitTimeout:
                log.append("recv timeout")

        def clock():
            yield from sched.sleep(10)

        sched.spawn(receiver, name="R")
        sched.spawn(clock, name="C")
        sched.run()
        assert log == ["recv timeout"]


    def test_receive_timeout_withdraws_offer(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")
        log = []

        def stale():
            try:
                yield from chan.receive(timeout=5)
            except WaitTimeout:
                log.append("recv timeout")
            # Still parked (on its timer) when the send comes: a lingering
            # offer would look claimable.
            yield from sched.sleep(100)

        def sender():
            yield from sched.sleep(10)
            yield from chan.send("x")
            log.append(("sent", sched.now))

        def fresh():
            # Arrives after the send: the value must wait for it rather
            # than go to the receiver that walked away.
            yield from sched.sleep(20)
            value = yield from chan.receive()
            log.append(value)

        sched.spawn(stale, name="R0")
        sched.spawn(sender, name="S")
        sched.spawn(fresh, name="R1")
        sched.run()
        assert log == ["recv timeout", "x", ("sent", 20)]


# ----------------------------------------------------------------------
# Stale timers (_advance_clock guard)
# ----------------------------------------------------------------------
class TestStaleTimers:
    def test_normal_wake_before_deadline_cancels_timer(self):
        # Regression: the waiter receives its message *before* its
        # timeout deadline; when the clock later sweeps past the deadline
        # the stale entry must not fire — no spurious timeout, no second
        # wake of a process that already moved on.
        sched = Scheduler()
        chan = Channel(sched, name="ch")
        log = []

        def waiter():
            yield from chan.receive(timeout=100)
            log.append("woken")
            yield from sched.sleep(500)  # drives the clock past deadline
            log.append("slept")

        def granter():
            yield
            yield from chan.send("go")

        sched.spawn(waiter, name="W")
        sched.spawn(granter, name="G")
        result = sched.run()
        assert log == ["woken", "slept"]
        assert result.trace.filter(kind="timeout") == []
        assert result.time == 500  # sleep completed; no early wake at 100

    def test_dead_waiter_timer_is_discarded(self):
        # A killed process's pending timeout must not fire on its corpse.
        plan = FaultPlan().kill("W", at_time=5)
        sched = Scheduler(fault_plan=plan)
        chan = Channel(sched, name="ch")

        def waiter():
            yield from chan.receive(timeout=50)

        def clock():
            yield from sched.sleep(100)

        def pacer():
            # Advances the clock to t=10 so the kill lands *before* the
            # waiter's t=50 deadline.
            yield from sched.sleep(10)

        sched.spawn(waiter, name="W")
        sched.spawn(clock, name="C")
        sched.spawn(pacer, name="P")
        result = sched.run(on_error="record")
        assert result.failed() == ["W"]
        assert result.trace.filter(kind="timeout") == []


# ----------------------------------------------------------------------
# Step-limit diagnostics
# ----------------------------------------------------------------------
class TestStepLimitDiagnostics:
    def test_step_limit_carries_trace_tail_and_ready_queue(self):
        sched = Scheduler(max_steps=50)

        def spinner():
            while True:
                sched.log("spin", "loop")
                yield

        sched.spawn(spinner, name="A")
        sched.spawn(spinner, name="B")
        with pytest.raises(StepLimitExceeded) as info:
            sched.run()
        err = info.value
        assert err.recent_events  # the tail is attached...
        assert any(ev.kind == "spin" for ev in err.recent_events)
        assert set(err.ready) & {"A", "B"}  # ...and the ready snapshot
        text = str(err)
        assert "ready queue:" in text and "last" in text


# ----------------------------------------------------------------------
# Scheduler run options
# ----------------------------------------------------------------------
class TestSchedulerRunOptions:
    def test_on_error_record_keeps_running(self):
        def bad():
            yield
            raise RuntimeError("boom")

        def good():
            yield
            yield
            return "ok"

        sched = Scheduler()
        sched.spawn(bad, name="bad")
        sched.spawn(good, name="good")
        result = sched.run(on_error="record")
        assert result.failed() == ["bad"]
        assert result.results["good"] == "ok"

    def test_fault_plan_and_preemptive_together(self):
        plan = FaultPlan().kill("victim", at_step=1)

        def victim():
            for __ in range(5):
                yield

        def survivor():
            yield
            return "alive"

        sched = Scheduler(preemptive=True, fault_plan=plan)
        sched.spawn(victim, name="victim")
        sched.spawn(survivor, name="survivor")
        result = sched.run(on_error="record")
        assert result.failed() == ["victim"]
        assert result.results["survivor"] == "alive"


# ----------------------------------------------------------------------
# Bounded retry
# ----------------------------------------------------------------------
class TestRetrying:
    def test_succeeds_on_later_attempt(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")
        got = []

        def waiter():
            value = yield from retry_with_backoff(
                lambda i: chan.receive(timeout=4), attempts=5
            )
            got.append(("ok", value))

        def granter():
            yield from sched.sleep(10)  # two timeouts, then success
            yield from chan.send("late")

        sched.spawn(waiter, name="W")
        sched.spawn(granter, name="G")
        result = sched.run()
        assert got == [("ok", "late")]
        assert len(result.trace.filter(kind="timeout")) == 2

    def test_exhaustion_reraises_last_timeout(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")
        raised = []

        def waiter():
            try:
                yield from retry_with_backoff(
                    lambda i: chan.receive(timeout=3), attempts=2)
            except WaitTimeout as exc:
                raised.append(exc.what)

        def clock():
            yield from sched.sleep(50)

        sched.spawn(waiter, name="W")
        sched.spawn(clock, name="C")
        result = sched.run()
        assert raised == ["channel ch"]
        assert len(result.trace.filter(kind="timeout")) == 2

    def test_backoff_spaces_attempts_in_virtual_time(self):
        sched = Scheduler()
        chan = Channel(sched, name="ch")

        def waiter():
            try:
                yield from retry_with_backoff(
                    lambda i: chan.receive(timeout=2),
                    attempts=3,
                    backoff=lambda i: 10 * (i + 1),
                    sched=sched,
                )
            except WaitTimeout:
                pass

        def clock():
            yield from sched.sleep(100)

        sched.spawn(waiter, name="W")
        sched.spawn(clock, name="C")
        result = sched.run()
        # 2 + 10 + 2 + 20 + 2 = 36 ticks of retry traffic; the last try's
        # timeout lands at t=36.
        timeouts = result.trace.filter(kind="timeout")
        assert [ev.time for ev in timeouts] == [2, 14, 36]

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            list(retry_with_backoff(lambda i: iter(()), attempts=0))
