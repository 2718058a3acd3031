"""A finished run frees itself by reference counting (DESIGN.md, "Run
lifetime").

When ``Scheduler.run()`` ends it closes the bodies still suspended, drops
cleanup stacks, timers and fingerprint providers, and hands its trace to
the ``RunResult``; the mechanisms keep no back-reference that closes a
cycle.  So a run leaves the cyclic collector nothing to find: every
exploration target's run, checked, and a deadlocked run and a run with a
failed process too.  The scheduler is then spent: ``run``, ``spawn`` and
``kill`` raise.
"""

import gc
import weakref

import pytest

from repro.explore.targets import available_targets, get_target
from repro.mechanisms.ccr import SharedRegion
from repro.mechanisms.channels import Channel
from repro.mechanisms.serializer import Serializer
from repro.runtime import (RandomPolicy, Scheduler, SchedulerStateError,
                           Semaphore)

TARGET_IDS = ["{}/{}".format(p, m) for p, m in available_targets()]


def leftovers(action):
    """What reference counting did not free once ``action()`` returned:
    the schedulers it returns weak references to that are still alive,
    then the objects the cyclic collector finds (``gc.DEBUG_SAVEALL``
    keeps them in ``gc.garbage``).  The collector is off meanwhile: it
    would free a cycle through a suspended body by finalizing the body,
    and such a cycle never reaches ``gc.garbage``."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        alive = [ref() for ref in action() if ref() is not None]
        gc.collect()
        return alive + gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def describe(leftover):
    return sorted({type(obj).__name__ for obj in leftover})


class SpyPolicy(RandomPolicy):
    """A random schedule that keeps a weak reference to its scheduler."""

    def observe_state(self, sched):
        self.sched = weakref.ref(sched)


@pytest.mark.parametrize("problem,mechanism", available_targets(),
                         ids=TARGET_IDS)
def test_a_checked_run_is_freed_by_reference_counting(problem, mechanism):
    target = get_target(problem, mechanism)

    def checked_run():
        policy = SpyPolicy(0)
        target.checker(target.build_and_run(policy))
        return [policy.sched]

    leftover = leftovers(checked_run)
    assert not leftover, describe(leftover)


class StuckSolution:
    """A serializer waiter whose guarantee never holds (and closes over
    the solution), a region waiter whose guard never holds, and a receiver
    no one sends to: a run of the three deadlocks with all of them parked.
    (Module level: a class is itself a cycle, and one made per run would
    hold the run.)"""

    def __init__(self, sched):
        self.ser = Serializer(sched, "ser")
        self.never = self.ser.queue("never")
        self.region = SharedRegion(sched, {"open": False}, "r")
        self.inbox = Channel(sched, "inbox")
        sched.spawn(self.wait_forever, name="S")
        sched.spawn(self.guarded, name="G")
        sched.spawn(self.receive, name="R")

    def wait_forever(self):
        yield from self.ser.enter()
        yield from self.ser.enqueue(self.never, lambda: self.inbox.broken)

    def guarded(self):
        yield from self.region.enter(lambda v: v["open"] and self.ser)

    def receive(self):
        yield from self.inbox.receive()


def test_a_deadlocked_run_is_freed_by_reference_counting():
    results = []

    def deadlocked_run():
        sched = Scheduler()
        StuckSolution(sched)
        run = sched.run(on_deadlock="return")
        results.append((run.deadlocked, sorted(run.blocked)))
        return [weakref.ref(sched)]

    leftover = leftovers(deadlocked_run)
    assert not leftover, describe(leftover)
    assert results == [(True, ["G", "R", "S"])]


def test_a_run_with_a_failed_process_is_freed_by_reference_counting():
    results = []

    def failing_run():
        sched = Scheduler()
        sem = Semaphore(sched, initial=1, name="s")
        chan = Channel(sched, "c")

        def fails():
            yield from sem.p()
            yield from chan.send("hello")
            raise ValueError("body bug")

        def receives():
            yield from chan.receive()
            yield from sem.p()

        sched.spawn(fails, name="F")
        sched.spawn(receives, name="R")
        run = sched.run(on_deadlock="return", on_error="record")
        results.append((run.failed(), run.blocked))
        return [weakref.ref(sched)]

    leftover = leftovers(failing_run)
    assert not leftover, describe(leftover)
    assert results == [(["F"], ["R"])]


def test_a_finished_scheduler_rejects_run_spawn_and_kill():
    sched = Scheduler()
    sem = Semaphore(sched, initial=0, name="s")

    def waits():
        yield from sem.p()

    proc = sched.spawn(waits, name="W")
    run = sched.run(on_deadlock="return")
    with pytest.raises(SchedulerStateError):
        sched.run()
    with pytest.raises(SchedulerStateError):
        sched.spawn(waits, name="late")
    with pytest.raises(SchedulerStateError):
        sched.kill(proc)
    with pytest.raises(SchedulerStateError):
        len(sched.trace)
    # The registry stays readable.
    assert sched.processes == [proc]
    assert sched.wait_graph() == run.graph
    assert run.graph.waits == {"W": "semaphore s"}


def _finally_system(sched, noisy):
    """``H`` holds ``s`` and parks on ``gate`` forever; ``W`` waits on
    ``s``.  When ``noisy``, ``H``'s ``finally`` logs, releases ``s`` (which
    unparks ``W``) and records that it ran."""
    s = Semaphore(sched, initial=1, name="s")
    gate = Semaphore(sched, initial=0, name="gate")
    ran = []

    def holder():
        yield from s.p()
        try:
            yield from gate.p()
        finally:
            if noisy:
                sched.log("cleanup", "H")
                s.v()
                ran.append("H")
        return "unreachable"

    def waiter():
        yield from s.p()

    def finisher():
        yield from sched.checkpoint()
        return 7

    sched.spawn(holder, name="H")
    sched.spawn(waiter, name="W")
    sched.spawn(finisher, name="F")
    return ran


def _summary(run):
    return (len(run.trace), run.results, run.blocked, run.graph,
            run.deadlocked, run.steps)


def test_finally_blocks_run_inside_run_and_leave_the_result_alone():
    quiet = Scheduler()
    _finally_system(quiet, noisy=False)
    expected = _summary(quiet.run(on_deadlock="return"))

    sched = Scheduler()
    ran = _finally_system(sched, noisy=True)
    gc.disable()  # the body must close inside run(), not in a collection
    try:
        run = sched.run(on_deadlock="return")
        assert ran == ["H"]
    finally:
        gc.enable()
    assert _summary(run) == expected
    assert run.trace.filter(kind="cleanup") == []
    assert expected[2] == ["H", "W"] and expected[1] == {"F": 7}
