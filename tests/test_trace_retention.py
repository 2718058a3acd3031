"""What a run keeps of its events.

* A finished run's trace is closed: ``run()`` closes the process bodies
  still suspended when it ends, their ``finally`` blocks may log, and
  none of those events may reach the returned trace.
* ``Scheduler(keep_trace=False)`` keeps no trace: everything but the
  event list is unchanged, and reading the trace raises rather than
  answering from nothing.  ``run_load`` is the one caller that asks for
  it.
"""

import gc

import pytest

from repro.explore.targets import get_target
from repro.explore.targets import available_targets
from repro.load import LOAD_MECHANISMS, run_load
from repro.load import engine
from repro.runtime import (FaultPlan, RandomPolicy, SchedulerStateError,
                           StepLimitExceeded)
from repro.runtime.scheduler import DIAGNOSTIC_TAIL, Scheduler

TARGET_IDS = ["{}/{}".format(p, m) for p, m in available_targets()]


@pytest.mark.parametrize("problem,mechanism", available_targets(),
                         ids=TARGET_IDS)
def test_collector_adds_nothing_to_a_finished_trace(problem, mechanism):
    # Every single kill (each process, each step up to its step count)
    # under three schedules.  A kill can leave a waiter suspended; run()
    # closes its body on the way out, and the ``finally`` blocks that
    # log then must not reach the returned trace, nor may a collection.
    target = get_target(problem, mechanism)
    kept = []
    for seed in range(3):
        base = target.build_and_run(RandomPolicy(seed))
        for name, steps in base.proc_steps.items():
            for k in range(steps + 1):
                plan = FaultPlan().kill(name, at_step=k)
                try:
                    run = target.build_and_run(RandomPolicy(seed),
                                               fault_plan=plan)
                except Exception:  # noqa: BLE001 - a faulted run may raise
                    continue
                kept.append((name, k, seed, run, len(run.trace)))
    gc.collect()
    grown = [(name, k, seed, length, len(run.trace))
             for name, k, seed, run, length in kept
             if len(run.trace) != length]
    assert not grown


def test_sink_hears_nothing_after_run():
    heard = []

    class Sink:
        def on_event(self, event):
            heard.append(event.kind)

        def on_step(self, proc, seq, time):
            pass

        def on_probe(self, category, obj, value, seq, time):
            heard.append(category)

        def on_run_end(self, result):
            heard.append("run_end")

    def body():
        yield

    sched = Scheduler(sink=Sink())
    sched.spawn(body, name="p")
    run = sched.run()
    assert heard[-1] == "run_end"
    before, length = list(heard), len(run.trace)
    sched.log("custom", "late")
    sched.probe("depth", "late", 3)
    assert heard == before and len(run.trace) == length


# ----------------------------------------------------------------------
# keep_trace=False
# ----------------------------------------------------------------------
def _load(monkeypatch, mechanism, keep_trace, max_steps=None):
    """``run_load`` with its scheduler's ``keep_trace`` (and optionally
    its step budget) overridden; returns ``(RunResult, sink, the
    keep_trace run_load asked for)``."""
    made = []

    class Overridden(Scheduler):
        def __init__(self, *args, **kwargs):
            made.append(self)
            self.asked = kwargs.get("keep_trace", True)
            kwargs["keep_trace"] = keep_trace
            if max_steps is not None:
                kwargs["max_steps"] = max_steps
            super().__init__(*args, **kwargs)

        def run(self, *args, **kwargs):
            self.result = super().run(*args, **kwargs)
            return self.result

    monkeypatch.setattr(engine, "Scheduler", Overridden)
    __, sink = run_load(mechanism, clients=96, ops=2, rate=0.5, seed=1)
    [sched] = made
    return sched.result, sink, sched.asked


RESULT_FIELDS = ("steps", "time", "results", "proc_steps", "deadlocked",
                 "blocked")


@pytest.mark.parametrize("mechanism", LOAD_MECHANISMS)
def test_untraced_load_run_matches_traced(monkeypatch, mechanism):
    kept, kept_sink, __ = _load(monkeypatch, mechanism, True)
    bare, bare_sink, asked = _load(monkeypatch, mechanism, False)
    assert asked is False  # run_load keeps no trace
    assert len(kept.trace) == kept_sink.events > 0
    assert bare_sink.to_dict() == kept_sink.to_dict()
    for name in RESULT_FIELDS:
        assert getattr(bare, name) == getattr(kept, name), name


@pytest.mark.parametrize("mechanism", LOAD_MECHANISMS)
def test_untraced_step_limit_reports_the_same_tail(monkeypatch, mechanism):
    tails = []
    for keep_trace in (True, False):
        with pytest.raises(StepLimitExceeded) as caught:
            _load(monkeypatch, mechanism, keep_trace, max_steps=300)
        tails.append(caught.value.recent_events)
    assert len(tails[0]) == DIAGNOSTIC_TAIL
    assert tails[0] == tails[1]


def test_untraced_trace_refuses_every_read(monkeypatch):
    run, __, __ = _load(monkeypatch, "semaphore", False)
    reads = [
        lambda: len(run.trace),
        lambda: list(run.trace),
        lambda: run.trace[-1],
        lambda: bool(run.trace),
        lambda: run.trace.filter(kind="op_start"),
        lambda: run.trace.projection("op_start"),
        lambda: run.failed(),
    ]
    for read in reads:
        with pytest.raises(SchedulerStateError):
            read()
    sched = Scheduler(keep_trace=False)
    with pytest.raises(SchedulerStateError):
        len(sched.trace)
