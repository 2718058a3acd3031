"""Recovery verification: supervised chaos scenarios and their oracles.

The chaos layer (:mod:`repro.verify.chaos`) asks *what a mechanism does*
when a participant dies: contain, propagate, or deadlock.  This module asks
the follow-up question the recovery runtime (:mod:`repro.recover`) exists
to answer: *can the system get back to a good state afterwards?*  Each
scenario wraps one mechanism's workers in a :class:`~repro.recover.Supervisor`
with a :class:`~repro.recover.LeaseManager` guarding the mechanism, then
explores the same kill cells as the chaos campaign
(:func:`~repro.verify.chaos.explore_kills`) and classifies every run:

* **recovered** — every process that died was restarted and its incarnation
  ran to completion; no restart budget was exhausted and no degradation
  was triggered.  The system healed completely.
* **degraded** — the run completed without wedging or safety violations,
  but recovery was partial: a restart budget ran out (``restart_giveup``),
  the supervisor escalated, a degradation hook relaxed priority semantics
  (``degrade``), or some corpse was never re-run to completion.
* **wedged** — survivors blocked forever (deadlock), or the step budget ran
  out with nothing runnable (a wedge churning behind timers).  Recovery
  failed at liveness.
* **violated** — a safety oracle fired (e.g. two processes inside one
  critical region).  Recovery failed at safety — the worst outcome: a
  reclaim or restart *forged* state instead of restoring it.
* **missed** — no victim actually died in this schedule; the run does not
  count toward the verdict.

The safety oracle here must hold *across restart boundaries*:
:func:`~repro.verify.detectors.exclusion_oracle` checks interval overlap
of ``cs``-enter/exit events (closing a dead owner's interval at its death
event), so a restarted incarnation may legitimately re-enter.  The chaos
campaign checks its lock rows with the same oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import ascii_table
from ..explore.campaign import FaultSetSearch, ScenarioResult, compile_faults
from ..explore.engine import ExplorationEngine
from ..mechanisms.channels import Channel
from ..obs.recovery import compute_recovery_metrics
from ..recover import (FixedBackoff, LeaseManager, RestartPolicy, Supervisor,
                       retry_with_backoff)
from ..recover.search import search_fault_plans
from ..runtime.errors import WaitTimeout
from ..runtime.policies import ScriptedPolicy
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from .chaos import LOCKS, ChaosBuilder, enumerate_fault_points, explore_kills
from .detectors import Checker, exclusion_oracle

RECOVERED = "recovered"
DEGRADED = "degraded"
WEDGED = "wedged"
VIOLATED = "violated"
MISSED = "missed"
#: Verdict labels, worst first: one bad schedule earns the worse label.
LABELS = (VIOLATED, WEDGED, DEGRADED, RECOVERED)
#: (label, column) of each run count the report shows, in column order.
COLUMNS = ((RECOVERED, "recovered"), (DEGRADED, "degraded"),
           (WEDGED, "wedged"), (VIOLATED, "violated"))

#: Events whose presence means recovery was at best partial.
_PARTIAL_KINDS = ("restart_giveup", "escalate", "degrade")


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def classify_recovery_run(
    run: RunResult,
    victims: Sequence[str],
    check: Optional[Checker] = None,
) -> Tuple[str, List[str]]:
    """Classify one supervised faulted run; returns (label, violations).

    Precedence (worst first): violated > wedged > degraded > recovered —
    a safety violation outranks everything because it means recovery
    *forged* state rather than restoring it.
    """
    failures = run.failed()
    if not any(v in failures for v in victims):
        return MISSED, []
    messages = list(check(run)) if check is not None else []
    if messages:
        return VIOLATED, messages
    if run.deadlocked or (run.step_limited and not run.ready):
        return WEDGED, []
    if run.step_limited:
        # Still runnable at the budget: nothing wedged, but the system
        # never demonstrably healed — partial by definition.
        return DEGRADED, []
    for kind in _PARTIAL_KINDS:
        if len(run.trace.filter(kind=kind)) > 0:
            return DEGRADED, []
    # Full recovery: every corpse's name later ran to completion.
    for name in failures:
        last_death = max(
            ev.seq for ev in run.trace
            if ev.kind in ("killed", "failed") and ev.obj == name
        )
        if not any(
            ev.seq > last_death
            for ev in run.trace.filter(kind="exit", obj=name)
        ):
            return DEGRADED, []
    return RECOVERED, []


# ----------------------------------------------------------------------
# Supervised per-mechanism scenarios
# ----------------------------------------------------------------------
def _supervised(setup, degrade_after: Optional[int] = None,
                max_restarts: int = 4) -> ChaosBuilder:
    """Wrap a scenario ``setup(sched, leases, sup)`` (which guards its
    mechanisms and declares children) in the standard supervised harness."""

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        leases = LeaseManager(sched, degrade_after=degrade_after)
        sup = Supervisor(
            sched,
            RestartPolicy(max_restarts=max_restarts, backoff=FixedBackoff(1)),
            name="sup",
            leases=leases,
        )
        setup(sched, leases, sup)
        sup.start()
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def lock_recovery(mechanism: str, degrade_after: Optional[int] = None,
                  **options) -> ChaosBuilder:
    """Three supervised workers make one guarded pass each (the shared
    :data:`~repro.verify.chaos.LOCKS` table), bracketing the critical
    region with ``cs`` enter/exit events; the mechanism is lease-guarded."""
    obj, make = LOCKS[mechanism]

    def setup(sched, leases, sup):
        def critical():
            sched.log("cs", obj, "enter")
            yield from sched.checkpoint()
            sched.log("cs", obj, "exit")

        mech, one_pass = make(sched, critical, **options)
        leases.guard(mech)
        for i in range(3):
            sup.child("P{}".format(i), one_pass)

    return _supervised(setup, degrade_after=degrade_after)


def _sem_recovery(degrade_after: Optional[int] = None) -> ChaosBuilder:
    """Raw semaphore (no crash_release): the mechanism that *needs* the
    recovery runtime — lease reclamation revokes the corpse's permit.  LIFO
    wakes give degradation a priority constraint to relax (the default,
    FIFO, is already the degraded target)."""
    return lock_recovery("semaphore", degrade_after, crash_release=False,
                         wake_policy="lifo")


def _channel_recovery() -> ChaosBuilder:
    """Supervised rendezvous pair.  A kill breaks the channel and fails the
    partner with PeerFailed; lease reclamation lifts the quarantine and the
    supervisor restarts the dead side(s).  One-for-one restart cannot heal a
    rendezvous whose partner already exited, so both sides bound their wait
    (``timeout=`` + :func:`~repro.recover.retry_with_backoff`) and abandon
    the exchange after the retry budget — logged as a ``degrade`` event so
    the run classifies *degraded*, the honest verdict for a dropped
    message."""

    def setup(sched, leases, sup):
        chan = Channel(sched, name="a")
        leases.guard(chan)

        def endpoint(op):
            def body():
                try:
                    yield from retry_with_backoff(
                        lambda __: op(timeout=4),
                        attempts=2,
                        backoff=FixedBackoff(1),
                        sched=sched,
                    )
                except WaitTimeout:
                    sched.log("degrade", "a", "rendezvous abandoned")
                    return
                sched.log("cs", "a", "enter")
                sched.log("cs", "a", "exit")

            return body

        sup.child("P0", endpoint(lambda timeout: chan.send("msg",
                                                           timeout=timeout)))
        sup.child("P1", endpoint(lambda timeout: chan.receive(
            timeout=timeout)))

    return _supervised(setup, max_restarts=6)


#: (row name, builder factory, victim, oracle key, acceptable labels)
RECOVERY_SCENARIOS = [
    ("semaphore", lambda: _sem_recovery(), "P0", "s", (RECOVERED,)),
    ("semaphore+degrade", lambda: _sem_recovery(degrade_after=1), "P0", "s",
     (DEGRADED,)),
] + [
    (mechanism, lambda m=mechanism: lock_recovery(m), "P0",
     LOCKS[mechanism][0], (RECOVERED,))
    for mechanism in ("mutex", "monitor", "serializer", "ccr", "pathexpr")
] + [
    ("channel", _channel_recovery, "P0", "a", (RECOVERED, DEGRADED)),
]


def expected_recovery() -> dict:
    """Scenario name -> tuple of acceptable classifications (asserted by
    the recovery regression tests and ``bench_recovery``)."""
    return {name: labels for name, __, __, __, labels in RECOVERY_SCENARIOS}


def mttr_fingerprints() -> Dict[str, dict]:
    """Deterministic per-scenario recovery fingerprint.

    One FIFO (``ScriptedPolicy([])``) run per scenario with a kill at the
    victim's *last* fault point — the deepest coordinate, which for every
    lock-shaped scenario lands inside the critical region, the interesting
    place to die.  The fingerprint folds the run's trace through
    :func:`repro.obs.recovery.compute_recovery_metrics`; because the clock
    is virtual, every number (including MTTR) is exactly reproducible and
    safe to assert in benchmarks.
    """
    out: Dict[str, dict] = {}
    for name, factory, victim, obj, __ in RECOVERY_SCENARIOS:
        build = factory()
        point = enumerate_fault_points(build, victim)[-1]
        run = build(ScriptedPolicy([]), compile_faults([point])[0])
        metrics = compute_recovery_metrics(run)
        label, __ = classify_recovery_run(
            run, (victim,), exclusion_oracle(obj)
        )
        out[name] = {
            "kill": point.describe(),
            "classification": label,
            "deaths": metrics.deaths,
            "restarts": metrics.restarts,
            "recoveries": metrics.recoveries,
            "recovery_rate": round(metrics.recovery_rate, 4),
            "mttr": None if metrics.mttr is None else round(metrics.mttr, 4),
            "max_ttr": metrics.max_ttr,
            "reclaims": metrics.reclaims,
            "giveups": metrics.giveups,
            "escalations": metrics.escalations,
            "degradations": metrics.degradations,
        }
    return out


def minimal_defeat_witness() -> FaultSetSearch:
    """Search for a minimal crash set that defeats supervised-semaphore
    recovery, ddmin-minimized
    (:func:`repro.recover.search.search_fault_plans`).

    Recovery of the raw semaphore is *incomplete* in a precise sense: it
    depends on the supervisor being alive to reclaim and restart.  Either
    kill alone is harmless (the supervisor dying orphans nobody mid-region;
    a worker dying gets reclaimed and restarted) — but killing the
    supervisor *and then* a permit holder loses the permit with nobody left
    to revoke it, and the survivors wedge.  The expected witness is
    therefore exactly 2 faults.
    """
    workers = ("P0", "P1", "P2")
    check = exclusion_oracle("s")
    return search_fault_plans(
        _sem_recovery(),
        lambda run: classify_recovery_run(run, workers, check)[0],
        victims=("sup",) + workers,
        bad_labels=(WEDGED, VIOLATED),
        max_kills=2,
        budget=200,
    )


def recovery_report(fast: bool = False) -> Tuple[List[ScenarioResult], str]:
    """Run every supervised recovery scenario; return (results, table).

    ``fast`` trims the schedule budget per fault point (CI smoke tier);
    the full sweep is what ``python -m repro recover`` shows.
    """
    results = []
    for name, factory, victim, obj, expected in RECOVERY_SCENARIOS:
        check = exclusion_oracle(obj)
        results.append(explore_kills(
            name, factory(), victim,
            lambda run, cell, victim=victim, check=check:
                classify_recovery_run(run, (victim,), check),
            LABELS, engine=ExplorationEngine, max_runs=6 if fast else 25,
            max_depth=60, max_points=4 if fast else None,
            expected=expected))
    table = ascii_table(
        ["scenario", "fault points", "runs"]
        + [column for __, column in COLUMNS] + ["classification"],
        [[r.name, str(len(r.outcomes)), str(r.runs)]
         + [str(r.count(label)) for label, __ in COLUMNS]
         + [r.classification]
         for r in results],
        title="Recovery under supervision (one kill per point, schedules "
              "explored per point)",
    )
    return results, table
