"""Fault-injection runtime: kills, delays, plan persistence, and the
per-mechanism crash semantics (DESIGN.md "Fault model").

The acceptance bar: killing a process inside any of the six mechanisms must
never silently wedge the survivors — either they proceed (the mechanism's
crash cleanup ran) or the run ends in a deadlock whose wait-for graph names
the dead process.
"""

import pytest

from repro.mechanisms.channels import Channel
from repro.mechanisms.monitor import Monitor
from repro.mechanisms.pathexpr import PathResource
from repro.mechanisms.serializer import Serializer
from repro.runtime import (
    BroadcastEvent,
    DeadlockError,
    FaultPlan,
    Mutex,
    PeerFailed,
    ProcessKilled,
    Scheduler,
    SchedulerStateError,
    Semaphore,
)


def _lock_workers(sched, enter, leave, n=3):
    """Spawn n workers that enter a critical region, log, and leave."""
    def worker():
        yield from enter()
        sched.log("cs", "r")
        yield from sched.checkpoint()
        result = leave()
        if result is not None:  # generator-style exit (yield from)
            yield from result
    for i in range(n):
        sched.spawn(worker, name="P{}".format(i))


#: Steps a preemptive worker completes by the time it is inside its
#: region: the construct's checkpoint, then the step that enters.
INSIDE = 2


def _killed_inside(result, victim, kind, obj):
    """True when ``victim``'s ``kind`` event on ``obj`` (its entry into the
    construct) precedes its ``killed`` event: the kill landed inside."""
    entered = result.trace.first(kind=kind, obj=obj,
                                 predicate=lambda ev: ev.pname == victim)
    killed = result.trace.first(kind="killed", obj=victim)
    return (entered is not None and killed is not None
            and entered.seq < killed.seq)


# ----------------------------------------------------------------------
# FaultPlan trigger kinds
# ----------------------------------------------------------------------
class TestFaultPlanTriggers:
    def test_kill_at_step(self):
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan)

        def worker():
            for __ in range(10):
                yield

        sched.spawn(worker, name="P0")
        sched.spawn(worker, name="P1")
        result = sched.run(on_error="record")
        assert result.failed() == ["P0"]
        assert result.proc_steps["P0"] == 2  # died before its third step
        assert result.proc_steps["P1"] == 11
        assert "P1" in result.results

    def test_kill_at_step_lands_inside_named_object(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        lock = Mutex(sched, name="m")
        _lock_workers(sched, lock.acquire, lambda: lock.release())
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.failed() == ["P0"]
        # The victim died *after* acquiring: the kill is inside the region.
        assert _killed_inside(result, "P0", "acquire", "m")
        assert not result.deadlocked
        assert set(result.results) == {"P1", "P2"}

    def test_kill_at_virtual_time_hits_blocked_process(self):
        plan = FaultPlan().kill("P0", at_time=5)
        sched = Scheduler(fault_plan=plan)

        def sleeper():
            yield from sched.sleep(100)

        def clock():
            yield from sched.sleep(10)

        sched.spawn(sleeper, name="P0")
        sched.spawn(clock, name="P1")
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.failed() == ["P0"]  # killed while blocked on its timer
        assert "P1" in result.results

    def test_delay_wakeups(self):
        plan = FaultPlan().delay_wakeups("P1", ticks=7)
        sched = Scheduler(fault_plan=plan)
        sem = Semaphore(sched, initial=0, name="s")

        def waiter():
            yield from sem.p()

        def signaller():
            yield
            sem.v()

        sched.spawn(waiter, name="P1")
        sched.spawn(signaller, name="P0")
        result = sched.run()
        assert result.trace.first(kind="wake_delayed") is not None
        assert set(result.results) == {"P0", "P1"}
        assert result.time == 7  # the wakeup arrived late, by the clock

    def test_kill_requires_exactly_one_coordinate(self):
        with pytest.raises(ValueError):
            FaultPlan().kill("P0")
        with pytest.raises(ValueError):
            FaultPlan().kill("P0", at_step=1, at_time=2)

    def test_plan_reusable_across_runs(self):
        plan = FaultPlan().kill("P0", at_step=1)
        for __ in range(2):  # begin() re-arms fired faults
            sched = Scheduler(fault_plan=plan)

            def worker():
                for __ in range(5):
                    yield

            sched.spawn(worker, name="P0")
            result = sched.run(on_error="record")
            assert result.failed() == ["P0"]


# ----------------------------------------------------------------------
# Scheduler.kill contract
# ----------------------------------------------------------------------
class TestKill:
    def test_kill_runs_body_finally(self):
        sched = Scheduler(fault_plan=FaultPlan().kill("P0", at_step=1))
        observed = []

        def worker():
            try:
                for __ in range(5):
                    yield
            finally:
                observed.append("finally")

        sched.spawn(worker, name="P0")
        sched.run(on_error="record")
        assert observed == ["finally"]

    def test_killed_process_carries_exception(self):
        sched = Scheduler(fault_plan=FaultPlan().kill("P0", at_step=0))

        def worker():
            yield

        proc = sched.spawn(worker, name="P0")
        sched.run(on_error="record")
        assert isinstance(proc.exception, ProcessKilled)

    def test_kill_of_finished_process_rejected(self):
        sched = Scheduler()

        def worker():
            yield

        proc = sched.spawn(worker, name="P0")
        sched.run()
        with pytest.raises(SchedulerStateError):
            sched.kill(proc)


# ----------------------------------------------------------------------
# describe/repr consistency and the portable form
# ----------------------------------------------------------------------
class TestFaultPlanDescribeAndDict:
    def test_describe_repr_round_trip(self):
        plan = (FaultPlan()
                .kill("P0", at_step=2)
                .kill("P2", at_time=9)
                .delay_wakeups("*", ticks=3))
        rendered = repr(plan)
        for line in plan.describe():
            assert line in rendered
        assert "kill P0 at step 2" in rendered
        assert "kill P2 at time 9" in rendered
        assert "delay wakeups of * by 3 ticks" in rendered

    def test_dict_round_trip(self):
        # The resilience search serializes its crash witnesses (the
        # BENCH_resilience.json artifact), so the dict form must rebuild
        # a plan that describes — and therefore fires — identically.
        plan = (FaultPlan()
                .kill("P0", at_step=2)
                .kill("P2", at_time=9)
                .delay_wakeups("sup", ticks=3))
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.describe() == plan.describe()
        # Behavioural spot-checks on the rebuilt triggers.
        clone.begin()
        assert clone.kill_due("P2", steps=0, now=9) is not None
        assert clone.kill_due("P3", steps=0, now=9) is None
        assert clone.wake_delay("sup") == 3
        assert clone.wake_delay("P0") == 0

    # A malformed portable form fails loudly instead of replaying a
    # different plan: one test per malformed shape.
    def test_from_dict_rejects_a_kill_with_no_coordinate(self):
        # Built directly, this kill would never fire.
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan.from_dict({"faults": [
                {"action": "kill", "process": "P"}]})

    def test_from_dict_rejects_a_kill_with_two_coordinates(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan.from_dict({"faults": [
                {"action": "kill", "process": "P", "at_step": 1,
                 "at_time": 2}]})

    def test_from_dict_rejects_an_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.from_dict({"faults": [
                {"action": "drop", "obj": "s", "nth": 1}]})

    def test_from_dict_rejects_an_unknown_key(self):
        with pytest.raises(ValueError, match="on_entry"):
            FaultPlan.from_dict({"faults": [
                {"action": "kill", "process": "P", "on_entry": "m"}]})

    def test_from_dict_rejects_a_fault_with_no_process(self):
        with pytest.raises(ValueError, match="names no process"):
            FaultPlan.from_dict({"faults": [
                {"action": "kill", "at_step": 1}]})

    def test_from_dict_rejects_a_non_positive_delay(self):
        with pytest.raises(ValueError, match="positive"):
            FaultPlan.from_dict({"faults": [
                {"action": "delay", "process": "P"}]})


# ----------------------------------------------------------------------
# Channel quarantine lift (crash_reclaim) edge cases
# ----------------------------------------------------------------------
class TestChannelCrashReclaim:
    def test_reclaim_preserves_buffered_items_from_dead_sender(self):
        sched = Scheduler()
        chan = Channel(sched, name="c", capacity=2, peer_fault="break")

        def sender():
            yield from chan.send("a")
            yield from chan.send("b")
            raise RuntimeError("boom")

        def supervisor():
            while not chan.broken:
                yield from sched.sleep(1)
            corpse = next(p for p in sched.processes if p.name == "S")
            assert chan.crash_reclaim(corpse) == "reset"
            first = yield from chan.receive()
            second = yield from chan.receive()
            return [first, second]

        sched.spawn(sender, name="S")
        sched.spawn(supervisor, name="R")
        result = sched.run(on_error="record")
        # The quarantine lifted and the pre-crash sends survived it.
        assert result.results["R"] == ["a", "b"]
        assert result.trace.first(kind="chan_reset") is not None

    def test_reclaim_races_a_delayed_peer_failed_delivery(self):
        # The receiver is parked when the channel breaks; its PeerFailed
        # wakeup is delayed by a fault plan, and the quarantine lifts
        # *before* the delivery lands.  The in-flight failure must still
        # arrive (the break really happened), but a retry then succeeds
        # against the reset channel.
        plan = FaultPlan().delay_wakeups("R", ticks=5)
        sched = Scheduler(fault_plan=plan)
        chan = Channel(sched, name="c", peer_fault="break")

        def dying_user():
            yield
            raise RuntimeError("boom")

        def receiver():
            try:
                value = yield from chan.receive()
                return ("got", value)
            except PeerFailed:
                assert not chan.broken  # reclaim already lifted it
                value = yield from chan.receive(timeout=30)
                return ("retried", value)

        def late_sender():
            yield from sched.sleep(8)
            yield from chan.send("fresh")

        corpse = sched.spawn(dying_user, name="S")
        chan.link(corpse)
        sched.spawn(receiver, name="R")
        sched.spawn(late_sender, name="L")

        def supervisor():
            while not chan.broken:
                yield from sched.sleep(1)
            assert chan.crash_reclaim(corpse) == "reset"

        sched.spawn(supervisor, name="Sup")
        result = sched.run(on_error="record")
        assert result.results["R"] == ("retried", "fresh")
        assert result.trace.first(kind="chan_break") is not None
        assert result.trace.first(kind="chan_reset") is not None

    def test_reclaim_by_non_user_keeps_the_quarantine(self):
        sched = Scheduler()
        chan = Channel(sched, name="c", peer_fault="break")

        def dying_user():
            yield
            raise RuntimeError("boom")

        def bystander():
            yield from sched.sleep(3)

        corpse = sched.spawn(dying_user, name="S")
        chan.link(corpse)
        other = sched.spawn(bystander, name="B")
        result = sched.run(on_error="record")
        assert chan.broken
        # A process that never used the channel cannot lift its quarantine.
        assert chan.crash_reclaim(other) is None
        assert chan.broken
        assert result.failed() == ["S"]


# ----------------------------------------------------------------------
# Kill inside the critical region, per mechanism
# ----------------------------------------------------------------------
class TestCrashSemantics:
    """Survivors must progress (or a graph must name the dead)."""

    def test_mutex_holder_death_releases_to_next(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        lock = Mutex(sched, name="m")
        _lock_workers(sched, lock.acquire, lambda: lock.release())
        result = sched.run(on_deadlock="return", on_error="record")
        assert _killed_inside(result, "P0", "acquire", "m")
        assert not result.deadlocked
        assert set(result.results) == {"P1", "P2"}
        released = result.trace.first(
            kind="release", predicate=lambda ev: ev.detail is not None
            and "crash_release" in str(ev.detail)
        )
        assert released is not None

    def test_raw_semaphore_holder_death_deadlocks_with_named_corpse(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        sem = Semaphore(sched, initial=1, name="s")
        _lock_workers(sched, sem.p, lambda: sem.v())
        result = sched.run(on_deadlock="return", on_error="record")
        assert _killed_inside(result, "P0", "sem_p", "s")
        assert result.deadlocked
        assert result.graph is not None
        rendered = result.graph.render()
        assert "P0[dead]" in rendered  # the corpse is named as holder
        assert "semaphore s" in rendered

    def test_semaphore_crash_release_contains_the_fault(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        sem = Semaphore(sched, initial=1, name="s", crash_release=True)
        _lock_workers(sched, sem.p, lambda: sem.v())
        result = sched.run(on_deadlock="return", on_error="record")
        assert _killed_inside(result, "P0", "sem_p", "s")
        assert not result.deadlocked
        assert set(result.results) == {"P1", "P2"}

    def test_semaphore_handoff_window_death_returns_permit(self):
        # P0 holds; P1 and P2 parked.  P0 Vs (permit granted directly to
        # P1) and P1 is killed at its resume step — before its p() returns.
        # The in-flight permit must be re-granted, not lost.
        plan = FaultPlan().kill("P1", at_step=1)
        sched = Scheduler(fault_plan=plan)
        sem = Semaphore(sched, initial=1, name="s")

        def holder():
            yield from sem.p()
            yield
            sem.v()  # direct handoff to the parked P1

        def waiter():
            yield from sem.p()  # parks: one step completed
            sem.v()

        sched.spawn(holder, name="P0")
        sched.spawn(waiter, name="P1")
        sched.spawn(waiter, name="P2")
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.failed() == ["P1"]
        assert not result.deadlocked
        assert set(result.results) == {"P0", "P2"}

    def test_monitor_occupant_death_passes_possession(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        mon = Monitor(sched, name="mon")
        _lock_workers(sched, mon.enter, lambda: mon.exit())
        result = sched.run(on_deadlock="return", on_error="record")
        assert _killed_inside(result, "P0", "enter", "mon")
        assert not result.deadlocked
        assert set(result.results) == {"P1", "P2"}

    def test_monitor_condition_waiter_death_is_dequeued(self):
        # at_time kills fire even while the victim is blocked on the queue.
        plan = FaultPlan().kill("P0", at_time=5)
        sched = Scheduler(fault_plan=plan)
        mon = Monitor(sched, name="mon")
        cond = mon.condition("c")

        def waiter():
            yield from mon.enter()
            yield from cond.wait()
            mon.exit()

        def signaller():
            yield from sched.sleep(10)  # advance the clock past the kill
            yield from mon.enter()
            yield from cond.signal()
            mon.exit()

        sched.spawn(waiter, name="P0")
        sched.spawn(waiter, name="P1")
        sched.spawn(signaller, name="P2")
        result = sched.run(on_deadlock="return", on_error="record")
        # One waiter died on the condition queue; the signal must wake the
        # live one, not the corpse.
        assert "P0" in result.failed()
        assert "P1" in result.results and "P2" in result.results

    def test_serializer_crowd_member_death_reopens_resource(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        ser = Serializer(sched, name="ser")
        q = ser.queue("q")
        crowd = ser.crowd("c")

        def worker():
            yield from ser.enter()
            yield from ser.enqueue(q, guarantee=lambda: crowd.empty)
            yield from ser.join_crowd(crowd)
            yield from sched.checkpoint()
            yield from ser.leave_crowd(crowd)
            ser.exit()

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        result = sched.run(on_deadlock="return", on_error="record")
        assert _killed_inside(result, "P0", "join_crowd", "c")
        assert not result.deadlocked
        assert set(result.results) == {"P1", "P2"}
        crash_leave = result.trace.first(kind="leave_crowd", obj="c",
                                         predicate=lambda e: e.detail == "crash")
        assert crash_leave is not None

    def test_pathexpr_mid_body_death_repairs_network(self):
        plan = FaultPlan().kill("P0", at_step=INSIDE)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        res = PathResource(sched, "path work end", name="r")

        def body(r):
            yield from sched.checkpoint()

        res.define("work", body)

        def worker():
            yield from res.invoke("work")

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        result = sched.run(on_deadlock="return", on_error="record")
        assert _killed_inside(result, "P0", "op_start", "r.work")
        assert not result.deadlocked
        assert set(result.results) == {"P1", "P2"}
        assert result.trace.first(kind="path_recover") is not None

    def test_channel_peer_death_delivers_peer_failed(self):
        plan = FaultPlan().kill("P0", at_step=1)
        sched = Scheduler(fault_plan=plan)
        chan = Channel(sched, name="ch")
        failures = []

        def client():
            yield
            yield
            yield from chan.send("req")

        def server():
            try:
                yield from chan.receive()
            except PeerFailed as exc:
                failures.append(exc)

        chan.link(sched.spawn(client, name="P0"))
        chan.link(sched.spawn(server, name="P1"))
        result = sched.run(on_deadlock="return", on_error="record")
        assert not result.deadlocked
        assert len(failures) == 1 and failures[0].peer == "P0"
        assert "P1" in result.results  # the survivor handled it and finished
        with pytest.raises(PeerFailed):
            chan._check_broken()  # the channel stays broken afterwards

    def test_channel_peer_fault_ignore_leaves_graph_to_name_the_dead(self):
        plan = FaultPlan().kill("P0", at_step=1)
        sched = Scheduler(fault_plan=plan)
        chan = Channel(sched, name="ch", peer_fault="ignore")

        def client():
            yield
            yield
            yield from chan.send("req")

        def server():
            value = yield from chan.receive()
            return value

        chan.link(sched.spawn(client, name="P0"))
        chan.link(sched.spawn(server, name="P1"))
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.deadlocked and result.blocked == ["P1"]
        assert "channel ch" in result.graph.render()


# ----------------------------------------------------------------------
# Kill while queued, per mechanism
# ----------------------------------------------------------------------
class TestQueuedWaiterDeath:
    """A process killed while it waits in a queue is withdrawn from it, so
    the next release passes over the corpse to a live waiter.  W0 and W1
    queue at t=0, W0 is killed at t=5 and the release comes at t=10."""

    PLAN = FaultPlan().kill("W0", at_time=5)

    def _run(self, sched, wait, release):
        def waiter():
            yield from wait()

        def releaser():
            yield from release()

        sched.spawn(releaser, name="R")  # first, so a holder holds
        sched.spawn(waiter, name="W0")
        sched.spawn(waiter, name="W1")
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.failed() == ["W0"]
        assert not result.deadlocked
        assert set(result.results) == {"W1", "R"}
        return result

    def test_semaphore_waiter_death_is_dequeued(self):
        sched = Scheduler(fault_plan=self.PLAN)
        sem = Semaphore(sched, initial=0, name="s")

        def release():
            yield from sched.sleep(10)
            sem.v()

        self._run(sched, sem.p, release)
        assert sem.waiters == 0 and sem.value == 0

    def test_mutex_waiter_death_is_dequeued(self):
        sched = Scheduler(fault_plan=self.PLAN)
        lock = Mutex(sched, name="m")

        def hold():
            yield from lock.acquire()
            yield from sched.sleep(10)
            lock.release()

        def wait():
            yield from lock.acquire()
            lock.release()

        self._run(sched, wait, hold)

    def test_event_waiter_death_is_dequeued(self):
        sched = Scheduler(fault_plan=self.PLAN)
        event = BroadcastEvent(sched, name="e")

        def release():
            yield from sched.sleep(10)
            event.set()

        result = self._run(sched, event.wait, release)
        # set() wakes the one live waiter, not the corpse.
        assert result.trace.first(kind="event_set").detail == 1

    def test_monitor_entrant_death_is_dequeued(self):
        sched = Scheduler(fault_plan=self.PLAN)
        mon = Monitor(sched, name="mon")

        def hold():
            yield from mon.enter()
            yield from sched.sleep(10)
            mon.exit()

        def wait():
            yield from mon.enter()
            mon.exit()

        self._run(sched, wait, hold)

    def test_serializer_entrant_death_is_dequeued(self):
        sched = Scheduler(fault_plan=self.PLAN)
        ser = Serializer(sched, name="ser")

        def hold():
            yield from ser.enter()
            yield from sched.sleep(10)
            ser.exit()

        def wait():
            yield from ser.enter()
            ser.exit()

        self._run(sched, wait, hold)

    def test_serializer_queue_death_is_dequeued(self):
        sched = Scheduler(fault_plan=self.PLAN)
        ser = Serializer(sched, name="ser")
        q = ser.queue("q")
        ready = []

        def wait():
            yield from ser.enter()
            yield from ser.enqueue(q, guarantee=lambda: bool(ready))
            ready.pop()  # one grant per release
            ser.exit()

        def release():
            yield from sched.sleep(10)
            yield from ser.enter()
            ready.append(True)
            ser.exit()

        self._run(sched, wait, release)
        assert q.empty


# ----------------------------------------------------------------------
# Wait-for graph diagnosis
# ----------------------------------------------------------------------
class TestWaitForGraph:
    def test_deadlock_error_carries_rendered_graph(self):
        sched = Scheduler()
        a = Mutex(sched, name="a")
        b = Mutex(sched, name="b")

        def one():
            yield from a.acquire()
            yield
            yield from b.acquire()

        def two():
            yield from b.acquire()
            yield
            yield from a.acquire()

        sched.spawn(one, name="P1")
        sched.spawn(two, name="P2")
        with pytest.raises(DeadlockError) as info:
            sched.run()
        err = info.value
        assert err.graph is not None
        text = str(err)
        assert "wait-for graph" in text
        assert "cycle:" in text
        assert "mutex a" in text and "mutex b" in text

    def test_graph_names_dead_process_holding_nothing(self):
        # Even a corpse with no recorded holds appears in the dead section.
        plan = FaultPlan().kill("P0", at_step=0)
        sched = Scheduler(fault_plan=plan)
        sem = Semaphore(sched, initial=0, name="s")

        def victim():
            yield

        def waiter():
            yield from sem.p()

        sched.spawn(victim, name="P0")
        sched.spawn(waiter, name="P1")
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.deadlocked
        rendered = result.graph.render()
        assert "P1" in rendered and "P0" in rendered


class TestWaitForGraphEdgeCases:
    """Edge cases of the wait-for diagnosis (satellites of the recovery
    PR): self-waits, waits on an already-crashed holder, and cycles that
    survive pruning of a crashed node."""

    def test_self_wait_is_a_cycle(self):
        # A process P-ing a Semaphore(1) twice waits on the permit it
        # itself holds: the graph must report the one-node cycle.
        sched = Scheduler()
        sem = Semaphore(sched, initial=1, name="s")

        def greedy():
            yield from sem.p()
            yield from sem.p()  # waits on itself

        sched.spawn(greedy, name="P")
        with pytest.raises(DeadlockError) as info:
            sched.run()
        graph = info.value.graph
        assert graph.waits["P"] == "semaphore s"
        assert graph.holds["semaphore s"] == ["P"]
        cycles = graph.cycles()
        assert len(cycles) == 1
        assert cycles[0][0] == "P"
        assert "cycle: P -> semaphore s -> P" in graph.render()

    def test_wait_on_already_crashed_holder(self):
        # P1 parks on a permit whose holder is already dead: no cycle —
        # the edge ends at a corpse, and the render says so.
        plan = FaultPlan().kill("P0", at_step=2)
        sched = Scheduler(fault_plan=plan, preemptive=True)
        sem = Semaphore(sched, initial=1, name="s", crash_release=False)

        def worker():
            yield from sem.p()
            yield from sched.checkpoint()
            sem.v()

        sched.spawn(worker, name="P0")
        sched.spawn(worker, name="P1")
        result = sched.run(on_deadlock="return", on_error="record")
        assert result.deadlocked
        graph = result.graph
        assert graph.waits["P1"] == "semaphore s"
        assert graph.edges_from("P1") == [("semaphore s", "P0")]
        assert graph.dead == {"P0": ["semaphore s"]}
        assert graph.cycles() == []  # a corpse closes no cycle
        rendered = graph.render()
        assert "P0[dead]" in rendered
        assert "held: semaphore s" in rendered

    def test_cycle_survives_crashed_node_pruning(self):
        # A live two-process cycle must still be reported when an
        # unrelated crashed node sits in the graph (the dead node is
        # pruned from cycle traversal, not from the diagnosis).
        from repro.runtime.faults import WaitForGraph

        graph = WaitForGraph(
            waits={"P1": "mutex a", "P2": "mutex b"},
            holds={"mutex a": ["P2"], "mutex b": ["P1"]},
            dead={"P0": ["semaphore s"]},
        )
        cycles = graph.cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"P1", "mutex a", "P2", "mutex b"}
        rendered = graph.render()
        assert "cycle:" in rendered
        assert "dead:  P0 (held: semaphore s)" in rendered
