"""Chaos exploration: fault injection composed with schedule exploration.

The exploration engine (:mod:`repro.explore.engine`) enumerates
*schedules*; a :class:`~repro.runtime.faults.FaultPlan` injects *crashes*.
This campaign composes the two on the shared campaign loop
(:func:`repro.explore.campaign.explore_cells`): for every reachable fault
point — each (victim, step) coordinate observed in a fault-free baseline
run — it re-explores the schedule space with a kill injected there, and
classifies what the mechanism under test did about it:

* **fault-containing** — every run completes; the only casualty is the
  injected victim; no safety oracle fires.  The mechanism's crash cleanup
  (release possession, dequeue the dead, repair the semaphore network) kept
  survivors whole.
* **fault-propagating** — some survivor also died (e.g. a channel partner
  woken with :class:`PeerFailed`) or a safety property was violated.  The
  failure travelled, visibly.
* **fault-deadlocking** — some run ends with survivors blocked forever
  (``RunResult.deadlocked``); the wait-for graph names the dead process
  holding what they wait for.  The classic example: a raw semaphore permit
  lost with its holder.
* **step-limited** — the run hit the step budget while still runnable:
  survivors were making progress but never finished inside the budget
  (livelock territory).  A budget cutoff with *nothing* runnable is not
  progress at all — it is a wedge churning behind timers, and classifies
  as fault-deadlocking.

:func:`robustness_report` runs one representative scenario per mechanism
(all six of the paper's evaluation subjects plus the robust-semaphore
variant) and renders the containment table shown by
``python -m repro robustness``.  The lock-shaped scenarios come from one
per-mechanism table (:data:`LOCKS`) that the *recovery* campaign
(:mod:`repro.verify.recovery`) shares with its own labels
(``recovered``/``degraded``/…).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core import ascii_table
from ..explore.campaign import (Cell, KillSpec, ScenarioResult,
                                compile_faults, explore_cells)
from ..explore.engine import ExplorationEngine
from ..mechanisms.ccr import SharedRegion
from ..mechanisms.channels import Channel
from ..mechanisms.monitor import Monitor
from ..mechanisms.pathexpr import PathResource
from ..mechanisms.serializer import Serializer
from ..runtime.faults import FaultPlan
from ..runtime.policies import ScriptedPolicy
from ..runtime.primitives import Mutex, Semaphore
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from .detectors import Checker, exclusion_oracle

#: A builder runs one *fresh* system under (policy, fault plan) and returns
#: the result; it must use ``on_deadlock="return"`` / ``on_error="record"``
#: (and ideally ``on_steplimit="return"`` — the campaign loop tolerates a
#: raised :class:`StepLimitExceeded`, but the synthetic result it rebuilds
#: carries only the diagnostic tail of the trace).
ChaosBuilder = Callable[[ScriptedPolicy, Optional[FaultPlan]], RunResult]

CONTAINING = "fault-containing"
PROPAGATING = "fault-propagating"
DEADLOCKING = "fault-deadlocking"
STEP_LIMITED = "step-limited"
#: Verdict labels, worst first: one bad schedule earns the worse label.
LABELS = (DEADLOCKING, PROPAGATING, STEP_LIMITED, CONTAINING)


def classify_run(
    run: RunResult, victim: str, check: Optional[Checker] = None
) -> Tuple[str, List[str]]:
    """Classify one faulted run; returns (label, oracle violations).

    ``"missed"`` means the kill never fired in this schedule (the victim
    finished first) — the run does not count toward the verdict.

    A step-budget cutoff is *not* one label: with processes still runnable
    the system was making progress (``step-limited``, livelock territory);
    with nothing runnable it was churning timers behind a wedge, which is
    indistinguishable from deadlock for every survivor and classifies as
    such.  Checked first — a truncated run proves nothing about misses or
    containment.
    """
    if run.step_limited:
        if not run.ready:
            return DEADLOCKING, []
        return STEP_LIMITED, []
    failures = run.failed()
    if victim not in failures:
        return "missed", []
    if run.deadlocked:
        return DEADLOCKING, []
    extra = [name for name in failures if name != victim]
    messages = list(check(run)) if check is not None else []
    if extra or messages:
        return PROPAGATING, messages
    # Not deadlocked and nobody else died: every surviving non-daemon ran
    # to completion (the scheduler cannot end otherwise).
    return CONTAINING, []


def enumerate_fault_points(
    build: ChaosBuilder, victim: str
) -> List[KillSpec]:
    """Fault points for ``victim``: one per step it takes in a fault-free
    baseline run (the coordinate space ``RunResult.proc_steps`` records)."""
    baseline = build(ScriptedPolicy([]), None)
    steps = baseline.proc_steps.get(victim, 0)
    return [KillSpec(victim, s) for s in range(steps)]


def explore_kills(
    name: str,
    build: ChaosBuilder,
    victim: str,
    classify: Callable,
    labels: Tuple[str, ...],
    engine: Callable,
    max_runs: int,
    max_depth: int,
    max_points: Optional[int] = None,
    expected: Tuple[str, ...] = (),
) -> ScenarioResult:
    """One cell per fault point of ``victim`` (the first ``max_points``),
    each a single kill with ``max_runs`` schedules explored around it."""
    cells = [Cell(point.describe(), compile_faults([point])[0])
             for point in enumerate_fault_points(build, victim)[:max_points]]
    return explore_cells(
        name, lambda policy, netplan, plan: build(policy, plan), cells,
        classify, labels, engine=engine, max_runs=max_runs,
        max_depth=max_depth, expected=expected, victim=victim)


# ----------------------------------------------------------------------
# Lock-shaped scenarios, one table for every campaign
# ----------------------------------------------------------------------
# Each entry makes the mechanism inside a scheduler and returns it with
# one guarded pass: acquire, run ``critical()``, release.
def _semaphore(sched, critical, **options):
    sem = Semaphore(sched, initial=1, name="s", **options)

    def one_pass():
        yield from sem.p()
        yield from critical()
        sem.v()

    return sem, one_pass


def _mutex(sched, critical):
    lock = Mutex(sched, name="m")

    def one_pass():
        yield from lock.acquire()
        yield from critical()
        lock.release()

    return lock, one_pass


def _monitor(sched, critical):
    mon = Monitor(sched, name="mon")

    def one_pass():
        yield from mon.enter()
        yield from critical()
        mon.exit()

    return mon, one_pass


def _serializer(sched, critical):
    ser = Serializer(sched, name="ser")
    q = ser.queue("q")
    crowd = ser.crowd("c")

    def one_pass():
        yield from ser.enter()
        yield from ser.enqueue(q, guarantee=lambda: crowd.empty)
        yield from ser.join_crowd(crowd)
        yield from critical()
        yield from ser.leave_crowd(crowd)
        ser.exit()

    return ser, one_pass


def _ccr(sched, critical):
    cell = SharedRegion(sched, {"entries": 0}, name="v")

    def one_pass():
        # Unconditional region (guard None): pure mutual exclusion.  A
        # guard over crash-corrupted shared state would re-introduce an
        # application-level wedge no mechanism can contain.
        yield from cell.enter()
        cell.vars["entries"] += 1
        yield from critical()
        cell.leave()

    return cell, one_pass


def _pathexpr(sched, critical):
    res = PathResource(sched, "path work end", name="r")

    def work(r):
        yield from critical()

    res.define("work", work)

    def one_pass():
        yield from res.invoke("work")

    return res, one_pass


#: mechanism -> (object its ``cs`` events name, make(sched, critical,
#: **options) -> (mechanism, one guarded pass)).
LOCKS = {
    "semaphore": ("s", _semaphore),
    "mutex": ("m", _mutex),
    "monitor": ("mon", _monitor),
    "serializer": ("ser", _serializer),
    "ccr": ("v", _ccr),
    "pathexpr": ("r.work", _pathexpr),
}


def lock_scenario(mechanism: str, **options) -> ChaosBuilder:
    """Three processes make one guarded pass each around a ``cs``
    enter/exit interval."""
    obj, make = LOCKS[mechanism]

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)

        def critical():
            sched.log("cs", obj, "enter")
            yield from sched.checkpoint()
            sched.log("cs", obj, "exit")

        __, one_pass = make(sched, critical, **options)
        for i in range(3):
            sched.spawn(one_pass, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _channel_scenario() -> ChaosBuilder:
    """Two rendezvous pairs; killing one peer must not wedge its partner —
    the partner is *told* (PeerFailed) instead, i.e. the fault propagates."""

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        chan_a = Channel(sched, name="a")
        chan_b = Channel(sched, name="b")

        def sender(chan):
            def body():
                yield from chan.send("msg")
                sched.log("cs", chan.name)
            return body

        def receiver(chan):
            def body():
                yield from chan.receive()
                sched.log("cs", chan.name)
            return body

        chan_a.link(sched.spawn(sender(chan_a), name="P0"))
        chan_a.link(sched.spawn(receiver(chan_a), name="P1"))
        chan_b.link(sched.spawn(sender(chan_b), name="P2"))
        chan_b.link(sched.spawn(receiver(chan_b), name="P3"))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


#: (row name, builder factory, victim, oracle, expected classification)
SCENARIOS = [
    ("semaphore", lambda: lock_scenario("semaphore", crash_release=False),
     "P0", exclusion_oracle("s"), DEADLOCKING),
    ("semaphore+crash_release",
     lambda: lock_scenario("semaphore", crash_release=True), "P0",
     exclusion_oracle("s"), CONTAINING),
] + [
    (mechanism, lambda m=mechanism: lock_scenario(m), "P0",
     exclusion_oracle(LOCKS[mechanism][0]), CONTAINING)
    for mechanism in ("mutex", "monitor", "serializer", "ccr", "pathexpr")
] + [
    ("channel", _channel_scenario, "P0", None, PROPAGATING),
]


def robustness_report(
    fast: bool = False,
) -> Tuple[List[ScenarioResult], str]:
    """Run every per-mechanism chaos scenario; return (results, table).

    ``fast`` trims the schedule budget per fault point (for CI tier-1);
    the full sweep is what ``python -m repro robustness`` shows.
    """
    results = []
    for name, factory, victim, check, expected in SCENARIOS:
        results.append(explore_kills(
            name, factory(), victim,
            lambda run, cell, victim=victim, check=check: classify_run(
                run, victim, check),
            LABELS, engine=ExplorationEngine, max_runs=6 if fast else 25,
            max_depth=40, max_points=4 if fast else None,
            expected=(expected,)))
    counted = (CONTAINING, PROPAGATING, DEADLOCKING, STEP_LIMITED)
    table = ascii_table(
        ["mechanism", "fault points", "runs", "contained", "propagated",
         "deadlocked", "step-limited", "classification"],
        [[r.name, str(len(r.outcomes)), str(r.runs)]
         + [str(r.count(label)) for label in counted] + [r.classification]
         for r in results],
        title="Fault containment by mechanism (one kill per point, "
              "schedules explored per point)",
    )
    return results, table


def expected_classifications() -> dict:
    """Scenario name -> the classification the fault model predicts
    (asserted by the chaos regression tests)."""
    return {name: expected for name, __, __, __, expected in SCENARIOS}
