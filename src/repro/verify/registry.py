"""The cross-problem oracles: correctness checks over a
:class:`~repro.runtime.trace.RunResult` that more than one problem, or a
persisted verdict, refers to by name.

Each problem's own battery is declared in its problem package, next to its
catalog cells and explore workloads (:mod:`repro.problems`).  What stays
here is what is shared across problems: the lost-wakeup detector every
explore battery ends with, the progress check, and the readers/writers
exclusion and strict-priority oracles that synthesis (:mod:`repro.synth`)
verifies repair candidates against.  The synthesis oracle cache keys its
logged verdicts on these names (:data:`SYNTH_RW_BATTERY`), so a cached
verdict is meaningful exactly as long as the named battery is.

An *oracle* here is a :data:`~repro.verify.detectors.Checker`: empty list
means the property held on that run.  Batteries (:func:`battery`) compose
several oracles into one callable (:func:`compose_checkers`), preserving
message order, so a whole check is still a single checker in the engine's
eyes.

Conventions: oracles never raise on pathological runs (deadlocks and
recorded errors are *data* — ``on_deadlock="return"`` / ``on_error="record"``
runs flow through them); per-run detector state must live inside the call,
never at module level.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..runtime.trace import OpFold, RunResult
from .detectors import Checker, LostWakeupChecker, compose_checkers
from .oracles import check_mutual_exclusion, check_readers_priority_strict


def check_all_served(run: RunResult) -> List[str]:
    """Progress: the run neither deadlocks nor strands a requested
    operation without completion."""
    messages: List[str] = []
    if run.deadlocked:
        messages.append("progress: run deadlocked with {} process(es) "
                        "blocked".format(len(run.blocked or ())))
    missing: Dict[Tuple[int, str], int] = {}
    for op in OpFold().fold(run.trace).ops:
        if op.request is not None and not op.completed:
            key = (op.pid, op.obj)
            missing[key] = missing.get(key, 0) + 1
    for (pid, obj), count in sorted(missing.items()):
        messages.append(
            "progress: {} request(s) of {} by pid {} never "
            "completed".format(count, obj, pid))
    return messages


#: Oracle name -> checker.  The names are an API: synthesis persists them
#: with its cached verdicts.
ORACLES: Dict[str, Checker] = {
    # No process parks forever while its wakeup condition already held.
    "lost_wakeup": LostWakeupChecker(),
    "all_served": check_all_served,
    # Writers exclusive, readers shared, on the db resource.
    "rw_exclusion": lambda run: check_mutual_exclusion(
        run.trace, "db", exclusive_ops=["write"], shared_ops=["read"]),
    # The Courtois-Heymans-Parnas strict readers-priority condition on db
    # (the footnote-3 oracle, E5).
    "footnote3_strict": lambda run: check_readers_priority_strict(
        run.trace, "db"),
}


def oracle(name: str) -> Checker:
    """Resolve one oracle by name.

    Raises:
        KeyError: unknown name; the message lists what exists.
    """
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            "unknown oracle {!r}; registered: {}".format(
                name, ", ".join(sorted(ORACLES))
            )
        )


def battery(*names: str) -> Checker:
    """Compose named oracles into one checker (message order follows the
    given name order).  The composition resolves names eagerly, so a typo
    fails at battery-construction time, not mid-exploration."""
    return compose_checkers(*(oracle(n) for n in names))


#: The battery synthesis verifies repair candidates against: safety
#: (exclusion), the paper's priority condition, and progress — a candidate
#: must be *correct*, not merely non-anomalous.
SYNTH_RW_BATTERY = ("rw_exclusion", "footnote3_strict", "all_served")
