"""Timed blocking calls: ``timeout=`` on every mechanism, the stale-timer
guard in ``_advance_clock``, step-limit diagnostics, ``run_processes``
plumbing, and bounded retry (``retry_with_backoff``).

The cross-cutting contract: a timed waiter that gives up is *dequeued*
before :class:`WaitTimeout` is delivered, so a later signal can never
target a process that already walked away.
"""

import pytest

from repro.mechanisms.channels import Channel, ReceiveOp, SendOp, select
from repro.mechanisms.monitor import Monitor
from repro.mechanisms.pathexpr import PathResource
from repro.mechanisms.serializer import Serializer
from repro.recover import retry_with_backoff
from repro.runtime import (
    BroadcastEvent,
    FaultPlan,
    Mutex,
    ProcessFailed,
    Scheduler,
    Semaphore,
    StepLimitExceeded,
    WaitTimeout,
    run_processes,
)


# ----------------------------------------------------------------------
# Semaphore / mutex / event timeouts
# ----------------------------------------------------------------------
class TestPrimitiveTimeouts:
    def test_semaphore_p_timeout_raises_and_dequeues(self):
        sched = Scheduler()
        sem = Semaphore(sched, initial=0, name="s")
        outcomes = {}

        def quitter():
            try:
                yield from sem.p(timeout=5)
                outcomes["quitter"] = "got it"
            except WaitTimeout as exc:
                outcomes["quitter"] = exc.what

        def patient():
            yield from sem.p()
            outcomes["patient"] = "got it"

        def granter():
            yield from sched.sleep(10)  # past the quitter's deadline
            sem.v()

        sched.spawn(quitter, name="Q")
        sched.spawn(patient, name="W")
        sched.spawn(granter, name="G")
        result = sched.run()
        # The quitter timed out; the V went to the still-waiting patient,
        # never to the process that gave up.
        assert outcomes == {"quitter": "semaphore s", "patient": "got it"}
        assert result.trace.first(kind="timeout") is not None

    def test_mutex_acquire_timeout(self):
        sched = Scheduler()
        lock = Mutex(sched, name="m")
        timed_out = []

        def holder():
            yield from lock.acquire()
            yield from sched.sleep(20)
            lock.release()

        def impatient():
            yield
            try:
                yield from lock.acquire(timeout=5)
            except WaitTimeout:
                timed_out.append(True)

        sched.spawn(holder, name="H")
        sched.spawn(impatient, name="I")
        sched.run()
        assert timed_out == [True]
        assert not lock.held  # the holder's release found no waiters left

    def test_event_wait_timeout(self):
        sched = Scheduler()
        event = BroadcastEvent(sched, name="go")
        seen = []

        def waiter():
            try:
                yield from event.wait(timeout=3)
            except WaitTimeout:
                seen.append("timeout")

        def late_setter():
            yield from sched.sleep(10)
            event.set()

        sched.spawn(waiter, name="W")
        sched.spawn(late_setter, name="S")
        sched.run()
        assert seen == ["timeout"]

    def test_zero_timeout_rejected(self):
        sched = Scheduler()
        sem = Semaphore(sched, initial=0, name="s")

        def waiter():
            yield from sem.p(timeout=0)

        sched.spawn(waiter, name="W")
        with pytest.raises(ProcessFailed) as info:
            sched.run()
        assert isinstance(info.value.__cause__, ValueError)


# ----------------------------------------------------------------------
# Monitor timeouts
# ----------------------------------------------------------------------
class TestMonitorTimeouts:
    def test_enter_timeout(self):
        sched = Scheduler()
        mon = Monitor(sched, name="mon")
        seen = []

        def occupant():
            yield from mon.enter()
            yield from sched.sleep(20)
            mon.exit()

        def impatient():
            yield
            try:
                yield from mon.enter(timeout=5)
            except WaitTimeout:
                seen.append("timeout")

        sched.spawn(occupant, name="O")
        sched.spawn(impatient, name="I")
        sched.run()
        assert seen == ["timeout"]

    def test_condition_wait_timeout_holds_monitor_on_raise(self):
        # The waiter must re-own the monitor when WaitTimeout is raised, so
        # it can inspect state and exit cleanly — Mesa-style timed wait.
        sched = Scheduler()
        mon = Monitor(sched, name="mon")
        cond = mon.condition("c")
        observed = []

        def waiter():
            yield from mon.enter()
            try:
                yield from cond.wait(timeout=5)
            except WaitTimeout:
                observed.append(mon.active_name)  # still inside
            mon.exit()

        def bystander():
            yield from sched.sleep(10)
            yield from mon.enter()
            observed.append("bystander in")
            mon.exit()

        sched.spawn(waiter, name="W")
        sched.spawn(bystander, name="B")
        result = sched.run()
        assert observed == ["W", "bystander in"]
        assert not result.deadlocked

    def test_condition_wait_timeout_ignores_late_signal(self):
        sched = Scheduler()
        mon = Monitor(sched, name="mon")
        cond = mon.condition("c")
        order = []

        def quitter():
            yield from mon.enter()
            try:
                yield from cond.wait(timeout=5)
                order.append("quitter signalled")
            except WaitTimeout:
                order.append("quitter timeout")
            mon.exit()

        def patient():
            yield from mon.enter()
            yield from cond.wait()
            order.append("patient signalled")
            mon.exit()

        def signaller():
            yield from sched.sleep(10)
            yield from mon.enter()
            yield from cond.signal()  # must reach the patient waiter
            mon.exit()

        sched.spawn(quitter, name="Q")
        sched.spawn(patient, name="P")
        sched.spawn(signaller, name="S")
        result = sched.run()
        assert "quitter timeout" in order
        assert "patient signalled" in order
        assert not result.deadlocked


# ----------------------------------------------------------------------
# Serializer timeouts
# ----------------------------------------------------------------------
class TestSerializerTimeouts:
    def test_enqueue_timeout_reacquires_possession(self):
        # A timed-out enqueue returns holding possession (like a monitor
        # timed wait), so the caller must still exit.
        sched = Scheduler()
        ser = Serializer(sched, name="ser")
        q = ser.queue("q")
        seen = []

        def waiter():
            yield from ser.enter()
            try:
                yield from ser.enqueue(q, guarantee=lambda: False, timeout=5)
            except WaitTimeout:
                seen.append("timeout")
            ser.exit()

        def clock():
            yield from sched.sleep(10)

        def after():
            yield
            yield from ser.enter()
            seen.append("after in")
            ser.exit()

        sched.spawn(waiter, name="W")
        sched.spawn(clock, name="C")
        sched.spawn(after, name="A")
        result = sched.run()
        # W reacquired possession to raise, then exited — so A got in too
        # (possession was free while W sat parked in the queue, so A may
        # run first; order is policy-dependent, completion is not).
        assert set(seen) == {"timeout", "after in"}
        assert not result.deadlocked

    def test_enter_timeout(self):
        sched = Scheduler()
        ser = Serializer(sched, name="ser")
        q = ser.queue("q")
        seen = []

        def possessor():
            yield from ser.enter()
            # Park in the queue forever, holding nothing: possession is
            # given up during enqueue, so the impatient enter would succeed
            # were it patient — but it times out first.
            try:
                yield from ser.enqueue(q, guarantee=lambda: False, timeout=30)
            except WaitTimeout:
                pass
            ser.exit()

        def impatient():
            yield
            try:
                yield from ser.enter(timeout=5)
                seen.append("in")
                ser.exit()
            except WaitTimeout:
                seen.append("timeout")

        sched.spawn(possessor, name="P")
        sched.spawn(impatient, name="I")
        result = sched.run()
        # Possession was free while P sat in the queue, so I got in.
        assert seen == ["in"]
        assert not result.deadlocked


# ----------------------------------------------------------------------
# Channel timeouts
# ----------------------------------------------------------------------
class TestChannelTimeouts:
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

    def test_select_timeout_withdraws_all_arms(self):
        sched = Scheduler()
        a = Channel(sched, name="a")
        b = Channel(sched, name="b")
        log = []

        def chooser():
            try:
                yield from select(
                    sched, [ReceiveOp(a), ReceiveOp(b)], timeout=5
                )
            except WaitTimeout:
                log.append("select timeout")
            # Neither channel may still hold a parked arm of ours.
            assert a.receivers_waiting == 0 and b.receivers_waiting == 0

        def late_sender():
            yield from sched.sleep(10)
            yield from select(sched, [SendOp(b, "late")], timeout=5)

        sched.spawn(chooser, name="C")
        sched.spawn(late_sender, name="S")
        result = sched.run(on_error="record")
        assert log == ["select timeout"]
        # The late sender found no receiver and timed out too — its offer
        # went to nobody because the chooser had withdrawn.
        assert result.trace.filter(kind="timeout")


# ----------------------------------------------------------------------
# Path expressions
# ----------------------------------------------------------------------
class TestPathexprTimeout:
    def test_invoke_timeout_rolls_back_prologue(self):
        # "path work end": work excludes end until it completes.  A timed
        # invoke of the blocked op must undo its partial prologue so the
        # expression state stays consistent for later invokers.
        sched = Scheduler()
        res = PathResource(sched, "path 1:(work)  end", name="r")
        state = []

        def body(r):
            yield from sched.sleep(20)

        def quick(r):
            yield

        res.define("work", body)
        res.define("end", quick)

        def slow():
            yield from res.invoke("work")
            state.append("work done")

        def impatient():
            yield
            try:
                yield from res.invoke("work", timeout=5)
            except WaitTimeout:
                state.append("timeout")

        def finisher():
            yield
            yield from res.invoke("work")
            state.append("second work done")

        sched.spawn(slow, name="S")
        sched.spawn(impatient, name="I")
        sched.spawn(finisher, name="F")
        result = sched.run()
        assert state[0] == "timeout"
        assert "work done" in state and "second work done" in state
        assert not result.deadlocked


# ----------------------------------------------------------------------
# Stale timers (_advance_clock guard)
# ----------------------------------------------------------------------
class TestStaleTimers:
    def test_normal_wake_before_deadline_cancels_timer(self):
        # Regression: the waiter is granted the semaphore *before* its
        # timeout deadline; when the clock later sweeps past the deadline
        # the stale entry must not fire — no spurious timeout, no second
        # wake of a process that already moved on.
        sched = Scheduler()
        sem = Semaphore(sched, initial=0, name="s")
        log = []

        def waiter():
            yield from sem.p(timeout=100)
            log.append("woken")
            yield from sched.sleep(500)  # drives the clock past deadline
            log.append("slept")

        def granter():
            yield
            sem.v()

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
        sem = Semaphore(sched, initial=0, name="s")

        def waiter():
            yield from sem.p(timeout=50)

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
# run_processes plumbing
# ----------------------------------------------------------------------
class TestRunProcessesPlumbing:
    def test_on_error_record_keeps_running(self):
        def bad():
            yield
            raise RuntimeError("boom")

        def good():
            yield
            yield
            return "ok"

        result = run_processes(
            bad, good, names=["bad", "good"], on_error="record"
        )
        assert result.failed() == ["bad"]
        assert result.results["good"] == "ok"

    def test_fault_plan_and_preemptive_are_plumbed(self):
        plan = FaultPlan().kill("victim", at_step=1)

        def victim():
            for __ in range(5):
                yield

        def survivor():
            yield
            return "alive"

        result = run_processes(
            victim, survivor,
            names=["victim", "survivor"],
            on_error="record",
            preemptive=True,
            fault_plan=plan,
        )
        assert result.failed() == ["victim"]
        assert result.results["survivor"] == "alive"


# ----------------------------------------------------------------------
# Bounded retry
# ----------------------------------------------------------------------
class TestRetrying:
    def test_succeeds_on_later_attempt(self):
        sched = Scheduler()
        sem = Semaphore(sched, initial=0, name="s")
        got = []

        def waiter():
            value = yield from retry_with_backoff(
                lambda i: sem.p(timeout=4), attempts=5
            )
            got.append(("ok", value))

        def granter():
            yield from sched.sleep(10)  # two timeouts, then success
            sem.v()

        sched.spawn(waiter, name="W")
        sched.spawn(granter, name="G")
        result = sched.run()
        assert got and got[0][0] == "ok"
        assert len(result.trace.filter(kind="timeout")) == 2

    def test_exhaustion_reraises_last_timeout(self):
        sched = Scheduler()
        sem = Semaphore(sched, initial=0, name="s")
        raised = []

        def waiter():
            try:
                yield from retry_with_backoff(lambda i: sem.p(timeout=3),
                                              attempts=2)
            except WaitTimeout as exc:
                raised.append(exc.what)

        def clock():
            yield from sched.sleep(50)

        sched.spawn(waiter, name="W")
        sched.spawn(clock, name="C")
        result = sched.run()
        assert raised == ["semaphore s"]
        assert len(result.trace.filter(kind="timeout")) == 2

    def test_backoff_spaces_attempts_in_virtual_time(self):
        sched = Scheduler()
        sem = Semaphore(sched, initial=0, name="s")

        def waiter():
            try:
                yield from retry_with_backoff(
                    lambda i: sem.p(timeout=2),
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
