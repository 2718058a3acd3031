"""Verification layer (S9): trace oracles and the fault campaigns.

The schedule-space search engine lives in :mod:`repro.explore` (pruning,
parallel frontier, minimization, detectors), as does the fault-campaign
loop the chaos, recovery and partition campaigns here configure
(:mod:`repro.explore.campaign`)."""

from ..explore.detectors import (
    ConflictingAccessChecker,
    LostWakeupChecker,
    compose_checkers,
)
from .chaos import (
    classify_run,
    enumerate_fault_points,
    explore_kills,
    robustness_report,
)
from .recovery import (
    classify_recovery_run,
    exclusion_oracle,
    expected_recovery,
    minimal_defeat_witness,
    mttr_fingerprints,
    recovery_report,
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
    Oracle,
    OracleSpec,
    SYNTH_RW_BATTERY,
    battery,
    oracle,
    oracle_names,
    register_oracle,
)

__all__ = [
    "Oracle",
    "OracleSpec",
    "SYNTH_RW_BATTERY",
    "battery",
    "oracle",
    "oracle_names",
    "register_oracle",
    "ConflictingAccessChecker",
    "LostWakeupChecker",
    "compose_checkers",
    "classify_run",
    "enumerate_fault_points",
    "explore_kills",
    "robustness_report",
    "classify_recovery_run",
    "exclusion_oracle",
    "expected_recovery",
    "minimal_defeat_witness",
    "mttr_fingerprints",
    "recovery_report",
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
