"""The oracle registry: every correctness check as a named, importable
callable over a :class:`~repro.runtime.trace.RunResult`.

Until PR 8 the problem-level checkers lived as private closures inside
:mod:`repro.explore.targets`; synthesis (:mod:`repro.synth`) needs the same
checks, and duplicating them would let the two drift.  This module is the
single home: each oracle is registered under a stable name, exploration
targets resolve their battery by name, and the synthesis engine's
replayable oracle cache keys its logged verdicts on the same names — so a
cached verdict is meaningful exactly as long as the named battery is.

An *oracle* here is a :data:`~repro.verify.detectors.Checker`: empty list
means the property held on that run.  Batteries (:func:`battery`) compose
several oracles into one callable (:func:`compose_checkers`), preserving
message order, so a target's whole check is still a single checker in the
engine's eyes.

Conventions: oracles never raise on pathological runs (deadlocks and
recorded errors are *data* — ``on_deadlock="return"`` / ``on_error="record"``
runs flow through them); per-run detector state must live inside the call,
never at module level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..runtime.trace import OpFold, RunResult
from .detectors import (Checker, ConflictingAccessChecker, LostWakeupChecker,
                        compose_checkers)
from .oracles import (
    check_alarm_wakeups,
    check_alternation,
    check_class_priority_two_stage,
    check_fcfs,
    check_mutual_exclusion,
    check_readers_priority_strict,
    check_single_occupancy,
)


@dataclass(frozen=True)
class OracleSpec:
    """One registered oracle: a stable name, the paper property it encodes,
    and the callable itself."""

    name: str
    description: str
    check: Checker

    def __call__(self, run: RunResult) -> List[str]:
        return self.check(run)


_REGISTRY: Dict[str, OracleSpec] = {}


def register_oracle(name: str,
                    description: str) -> Callable[[Checker], Checker]:
    """Decorator: register ``fn`` under ``name``.

    Raises:
        ValueError: the name is already taken (oracle names are an API —
            cached verdicts and exploration targets refer to them).
    """

    def deco(fn: Checker) -> Checker:
        if name in _REGISTRY:
            raise ValueError("oracle {!r} already registered".format(name))
        _REGISTRY[name] = OracleSpec(name, description, fn)
        return fn

    return deco


def oracle(name: str) -> OracleSpec:
    """Resolve one oracle by name.

    Raises:
        KeyError: unknown name; the message lists what exists.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown oracle {!r}; registered: {}".format(
                name, ", ".join(sorted(_REGISTRY))
            )
        )


def battery(*names: str) -> Checker:
    """Compose named oracles into one checker (message order follows the
    given name order).  The composition resolves names eagerly, so a typo
    fails at battery-construction time, not mid-exploration."""
    return compose_checkers(*(oracle(n).check for n in names))


# ----------------------------------------------------------------------
# Registered oracles.  The first block is the exploration-target battery
# (moved verbatim from repro.explore.targets); the second is the synthesis
# additions (exclusion + progress, needed to reject unsafe and wedged
# candidates rather than only priority-breaking ones).
# ----------------------------------------------------------------------
_lost_wakeup = LostWakeupChecker()
_db_races = ConflictingAccessChecker("db", writes=["write"], reads=["read"])


@register_oracle("lost_wakeup", "no process parks forever while its wakeup "
                 "condition already held (mechanism-level detector)")
def check_lost_wakeup_oracle(run: RunResult) -> List[str]:
    return _lost_wakeup(run)


@register_oracle("readers_priority_races", "db access conflicts plus lost "
                 "wakeups on the readers/writers workload")
def check_readers_priority_oracle(run: RunResult) -> List[str]:
    messages = _db_races(run)
    messages += _lost_wakeup(run)
    return messages


@register_oracle("footnote3_strict", "the Courtois-Heymans-Parnas strict "
                 "readers-priority condition on the db resource (the "
                 "footnote-3 oracle, E5)")
def check_footnote3_oracle(run: RunResult) -> List[str]:
    return list(check_readers_priority_strict(run.trace, "db"))


@register_oracle("rw_exclusion", "writers exclusive, readers shared, on the "
                 "db resource")
def check_rw_exclusion_oracle(run: RunResult) -> List[str]:
    return list(check_mutual_exclusion(
        run.trace, "db", exclusive_ops=["write"], shared_ops=["read"]))


@register_oracle("all_served", "progress: the run neither deadlocks nor "
                 "strands a requested operation without completion")
def check_all_served_oracle(run: RunResult) -> List[str]:
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


@register_oracle("bounded_buffer_integrity", "both produced items are "
                 "consumed exactly once, plus lost wakeups")
def check_bounded_buffer_oracle(run: RunResult) -> List[str]:
    messages: List[str] = []
    consumed = run.results.get("consumed", [])
    if not run.deadlocked and sorted(consumed) != [0, 1]:
        messages.append(
            "buffer integrity: consumed {!r}, expected a permutation of "
            "[0, 1]".format(consumed)
        )
    messages += _lost_wakeup(run)
    return messages


@register_oracle("one_slot_alternation", "put/get strictly alternate and "
                 "both items flow through, plus lost wakeups")
def check_one_slot_oracle(run: RunResult) -> List[str]:
    messages = list(check_alternation(run.trace, "slot"))
    consumed = run.results.get("consumed", [])
    if not run.deadlocked and sorted(consumed) != [0, 1]:
        messages.append(
            "slot integrity: consumed {!r}, expected a permutation of "
            "[0, 1]".format(consumed)
        )
    messages += _lost_wakeup(run)
    return messages


@register_oracle("fcfs_resource", "arrival-order service and single "
                 "occupancy on the res resource, plus lost wakeups")
def check_fcfs_resource_oracle(run: RunResult) -> List[str]:
    messages = list(check_fcfs(run.trace, "res", ["use"]))
    messages += check_single_occupancy(run.trace, "res", ["use"])
    messages += _lost_wakeup(run)
    return messages


@register_oracle("alarm_clock", "wakeups land exactly on their deadlines "
                 "and in deadline order, plus lost wakeups")
def check_alarm_clock_oracle(run: RunResult) -> List[str]:
    messages = list(check_alarm_wakeups(run.trace, "alarm"))
    wakes = run.results.get("wakes", [])
    if not run.deadlocked and wakes != sorted(wakes):
        messages.append(
            "wake order {!r} not by deadline".format(wakes)
        )
    messages += _lost_wakeup(run)
    return messages


@register_oracle("staged_queue_priority", "class priority with FCFS inside "
                 "each class and single occupancy, plus lost wakeups")
def check_staged_queue_oracle(run: RunResult) -> List[str]:
    messages = list(check_class_priority_two_stage(
        run.trace, "res", high_op="acquire_a", low_op="acquire_b"
    ))
    messages += check_single_occupancy(run.trace, "res",
                                       ["acquire_a", "acquire_b"])
    messages += _lost_wakeup(run)
    return messages


#: The battery synthesis verifies repair candidates against: safety
#: (exclusion), the paper's priority condition, and progress — a candidate
#: must be *correct*, not merely non-anomalous.
SYNTH_RW_BATTERY = ("rw_exclusion", "footnote3_strict", "all_served")
