"""The checker layer (S9): trace oracles, liveness queries, the oracle
registry and the mechanism-level detectors.

These four modules read a finished run (:class:`~repro.runtime.trace.
RunResult`) and import nothing above :mod:`repro.runtime`; the one run
checker contract, :data:`Checker`, lives here.  The search
(:mod:`repro.explore`) and the fault campaigns sit on top of this layer.
The campaigns themselves — :mod:`repro.verify.chaos`,
:mod:`repro.verify.recovery` and :mod:`repro.verify.partition` — import
:mod:`repro.explore.campaign`, the mechanisms and the dist layer, so they
are imported by their full path and not re-exported here."""

from .detectors import (
    WAKE_KINDS,
    Checker,
    ConflictingAccessChecker,
    LostWakeupChecker,
    compose_checkers,
)
from .liveness import (
    Wait,
    WaitSummary,
    check_bounded_waiting,
    class_wait_summary,
    starvation_report,
    unserved_requests,
    waiting_times,
)
from .oracles import (
    check_alarm_wakeups,
    check_alternation,
    check_class_priority_two_stage,
    check_fcfs,
    check_mutual_exclusion,
    check_no_overtake,
    check_readers_priority_strict,
    check_scan_order,
    check_single_occupancy,
    check_writers_priority_strict,
)
from .registry import (
    OracleSpec,
    SYNTH_RW_BATTERY,
    battery,
    oracle,
    register_oracle,
)

__all__ = [
    "OracleSpec",
    "SYNTH_RW_BATTERY",
    "battery",
    "oracle",
    "register_oracle",
    "WAKE_KINDS",
    "Checker",
    "ConflictingAccessChecker",
    "LostWakeupChecker",
    "compose_checkers",
    "Wait",
    "WaitSummary",
    "check_bounded_waiting",
    "class_wait_summary",
    "starvation_report",
    "unserved_requests",
    "waiting_times",
    "check_alarm_wakeups",
    "check_alternation",
    "check_class_priority_two_stage",
    "check_fcfs",
    "check_mutual_exclusion",
    "check_no_overtake",
    "check_readers_priority_strict",
    "check_scan_order",
    "check_single_occupancy",
    "check_writers_priority_strict",
]
