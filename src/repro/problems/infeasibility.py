"""Negative results: constraints a mechanism *cannot* express.

The methodology treats a failed implementation attempt as data: "If there is
no direct way to use a certain kind of information, it should become obvious
when an attempt is made to implement a solution requiring it" (§4.1).  These
records document the attempts §5.1.2 reports for base path expressions —
parameters (disk scheduler, alarm clock) and local state (bounded buffer)
have no realization without synchronization procedures that reduce the
mechanism to hand-rolled bookkeeping, and the priority operator does not
exist at all.

Each entry is a :class:`SolutionDescription` with UNSUPPORTED realizations
and no verifier; the evaluation engine folds them into the expressive-power
matrix so the paper's "no way to…" findings appear as NONE cells rather
than coverage gaps.
"""

from __future__ import annotations

from ..core import (
    ConstraintRealization,
    Directness,
    InformationType,
    ModularityProfile,
    SolutionDescription,
)
from .eventcount_impls import EVENTCOUNT_RW_INFEASIBLE

T3 = InformationType.PARAMETERS
T5 = InformationType.LOCAL_STATE

_NO_MODULARITY_CLAIM = ModularityProfile(
    synchronization_with_resource=True,
    resource_separable=False,
    enforced_by_mechanism=True,
    notes="no solution exists; modularity judged on the attempt",
)

PATH_BOUNDED_BUFFER_INFEASIBLE = SolutionDescription(
    problem="bounded_buffer",
    mechanism="pathexpr",
    components=(),
    realizations=(
        ConstraintRealization(
            constraint_id="buffer_bounds",
            components=(),
            constructs=(),
            directness=Directness.UNSUPPORTED,
            info_handling={T5: Directness.UNSUPPORTED},
            notes="base paths cannot reference the item count: 'nor is "
            "local resource state information available' (§5.1.2); the "
            "capacity bound needs the Flon-Habermann numeric operator "
            "(see the pathexpr_open solution)",
        ),
    ),
    modularity=_NO_MODULARITY_CLAIM,
    notes="negative result recorded per §4.1",
)

PATH_DISK_SCHEDULER_INFEASIBLE = SolutionDescription(
    problem="disk_scheduler",
    mechanism="pathexpr",
    components=(),
    realizations=(
        ConstraintRealization(
            constraint_id="elevator_order",
            components=(),
            constructs=(),
            directness=Directness.UNSUPPORTED,
            info_handling={T3: Directness.UNSUPPORTED},
            notes="'There is obviously no way to use parameter values in "
            "paths' (§5.1.2): the track number cannot influence any path",
        ),
    ),
    modularity=_NO_MODULARITY_CLAIM,
    notes="negative result recorded per §4.1",
)

PATH_ALARM_CLOCK_INFEASIBLE = SolutionDescription(
    problem="alarm_clock",
    mechanism="pathexpr",
    components=(),
    realizations=(
        ConstraintRealization(
            constraint_id="deadline_order",
            components=(),
            constructs=(),
            directness=Directness.UNSUPPORTED,
            info_handling={T3: Directness.UNSUPPORTED},
            notes="the wake-up delay is a request parameter; base paths "
            "cannot see it — the alarmclock gate procedures of [11] are "
            "already outside the mechanism (§5.1.2)",
        ),
    ),
    modularity=_NO_MODULARITY_CLAIM,
    notes="negative result recorded per §4.1",
)

#: All negative records, for the evaluation engine.  The eventcount record
#: lives with its positive siblings in ``eventcount_impls``.
INFEASIBILITY_RECORDS = (
    PATH_BOUNDED_BUFFER_INFEASIBLE,
    PATH_DISK_SCHEDULER_INFEASIBLE,
    PATH_ALARM_CLOCK_INFEASIBLE,
    EVENTCOUNT_RW_INFEASIBLE,
)
