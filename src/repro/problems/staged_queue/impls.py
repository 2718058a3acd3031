"""Class-priority with FCFS-within-class — the T1 + T2 combination problem.

Two request classes contend for one resource: class A outranks class B, and
each class is served in arrival order.  This needs request type (to rank)
and request time (to order) together — the pair §5.2 identifies as the one
conflicting combination in monitors.

Variants:

* :class:`MonitorStagedQueue` — the standard resolution: one condition
  queue *per class* (type = which queue, time = position in it).
* :class:`MonitorSingleQueue` — the deliberately naive contrast used by
  experiment E8: one queue keeps global arrival order but cannot see types,
  so class priority is silently lost.  Expected to FAIL the class-priority
  oracle.
* :class:`SerializerStagedQueue` — queue declaration order is the class
  priority; three declarations, no signalling.
* :class:`OpenPathStagedQueue` — the priority operator (Habermann 1975
  version) on guarded paths.
"""

from __future__ import annotations

import weakref
from typing import Generator

from ...core import (
    Component,
    ConstraintRealization,
    Directness,
    InformationType,
    ModularityProfile,
    SolutionDescription,
)
from ...mechanisms.monitor import Monitor
from ...mechanisms.pathexpr import GuardedPathResource
from ...mechanisms.serializer import Serializer
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T1 = InformationType.REQUEST_TYPE
T2 = InformationType.REQUEST_TIME
T4 = InformationType.SYNC_STATE


class MonitorStagedQueue(SolutionBase):
    """Two condition queues, one per class; release prefers class A."""

    problem = "staged_queue"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        super().__init__(sched, name)
        self.mon = Monitor(sched, name + ".mon")
        self.qa = self.mon.condition("class_a")
        self.qb = self.mon.condition("class_b")
        self._busy = False

    def use_a(self, work: int = 1) -> Generator:
        """One class-A use of the resource."""
        yield from self._use("acquire_a", self.qa, work)

    def use_b(self, work: int = 1) -> Generator:
        """One class-B use of the resource."""
        yield from self._use("acquire_b", self.qb, work)

    def _use(self, op: str, cond, work: int) -> Generator:
        self._request(op)
        yield from self.mon.enter()
        if self._busy:
            yield from cond.wait()
        self._busy = True
        self.mon.exit()
        self._start(op)
        yield from self._work(work)
        self._finish(op)
        yield from self.mon.enter()
        self._busy = False
        if self.qa.queue:
            yield from self.qa.signal()
        else:
            yield from self.qb.signal()
        self.mon.exit()


class MonitorSingleQueue(SolutionBase):
    """The naive contrast: one FIFO queue for both classes — global FCFS,
    class priority lost (request type information discarded)."""

    problem = "staged_queue"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        super().__init__(sched, name)
        self.mon = Monitor(sched, name + ".mon")
        self.turn = self.mon.condition("turn")
        self._busy = False

    def use_a(self, work: int = 1) -> Generator:
        """One class-A use of the resource."""
        yield from self._use("acquire_a", work)

    def use_b(self, work: int = 1) -> Generator:
        """One class-B use of the resource."""
        yield from self._use("acquire_b", work)

    def _use(self, op: str, work: int) -> Generator:
        self._request(op)
        yield from self.mon.enter()
        if self._busy or self.turn.queue:
            yield from self.turn.wait()
        self._busy = True
        self.mon.exit()
        self._start(op)
        yield from self._work(work)
        self._finish(op)
        yield from self.mon.enter()
        self._busy = False
        yield from self.turn.signal()
        self.mon.exit()


class SerializerStagedQueue(SolutionBase):
    """Serializer: queue declaration order *is* the class priority."""

    problem = "staged_queue"
    mechanism = "serializer"

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        super().__init__(sched, name)
        self.ser = Serializer(sched, name + ".ser")
        self.qa = self.ser.queue("class_a")  # declared first: priority
        self.qb = self.ser.queue("class_b")
        self.user = self.ser.crowd("user")

    def use_a(self, work: int = 1) -> Generator:
        """One class-A use of the resource."""
        yield from self._use("acquire_a", self.qa, work)

    def use_b(self, work: int = 1) -> Generator:
        """One class-B use of the resource."""
        yield from self._use("acquire_b", self.qb, work)

    def _use(self, op: str, queue, work: int) -> Generator:
        self._request(op)
        yield from self.ser.enter()
        yield from self.ser.enqueue(queue, lambda: self.user.empty)
        yield from self.ser.join_crowd(self.user)
        self._start(op)
        yield from self._work(work)
        self._finish(op)
        yield from self.ser.leave_crowd(self.user)
        self.ser.exit()


class OpenPathStagedQueue(SolutionBase):
    """Guarded paths with the priority operator: both ops guarded on the
    resource being free; class A carries the higher wake priority."""

    problem = "staged_queue"
    mechanism = "pathexpr_open"

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        super().__init__(sched, name)
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def body(op: str):
            def run(res, work: int) -> Generator:
                solution._start(op)
                yield from solution._work(work)
                solution._finish(op)
            return run

        def free(res, args) -> bool:
            return (
                res.active("acquire_a") == 0 and res.active("acquire_b") == 0
            )

        self.paths = GuardedPathResource(
            sched,
            "path acquire_a , acquire_b end",
            operations={
                "acquire_a": body("acquire_a"),
                "acquire_b": body("acquire_b"),
            },
            guards={"acquire_a": free, "acquire_b": free},
            priorities={"acquire_a": 10, "acquire_b": 1},
            name=name + ".paths",
        )

    def use_a(self, work: int = 1) -> Generator:
        """One class-A use of the resource."""
        self._request("acquire_a")
        yield from self.paths.invoke("acquire_a", work)

    def use_b(self, work: int = 1) -> Generator:
        """One class-B use of the resource."""
        self._request("acquire_b")
        yield from self.paths.invoke("acquire_b", work)


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
MONITOR_STAGED_DESCRIPTION = SolutionDescription(
    problem="staged_queue",
    mechanism="monitor",
    components=(
        Component("var:busy", "variable"),
        Component("cond:class_a", "condition", "FIFO, class A"),
        Component("cond:class_b", "condition", "FIFO, class B"),
        Component("proc:acquire", "procedure",
                  "if busy then wait on own class queue"),
        Component("proc:release", "procedure",
                  "if class_a.queue then class_a.signal else class_b.signal"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("var:busy", "proc:acquire", "proc:release"),
            constructs=("monitor_mutex",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="class_priority",
            components=("cond:class_a", "cond:class_b", "proc:release"),
            constructs=("condition_queue", "explicit_signal"),
            directness=Directness.DIRECT,
            info_handling={T1: Directness.DIRECT},
            notes="type = separate queues; the §5.2 rule",
        ),
        ConstraintRealization(
            constraint_id="fcfs_within_class",
            components=("cond:class_a", "cond:class_b"),
            constructs=("condition_queue",),
            directness=Directness.DIRECT,
            info_handling={T2: Directness.DIRECT},
            notes="time = position in queue; the combination works because "
            "ordering is only needed WITHIN each type here — contrast "
            "rw_fcfs, where ordering across types forces two-stage queuing",
        ),
    ),
    modularity=ModularityProfile(True, True, False),
)

SERIALIZER_STAGED_DESCRIPTION = SolutionDescription(
    problem="staged_queue",
    mechanism="serializer",
    components=(
        Component("queue:class_a", "queue", "declared first"),
        Component("queue:class_b", "queue"),
        Component("crowd:user", "crowd"),
        Component("guarantee:use", "guarantee", "user.empty"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("crowd:user", "guarantee:use"),
            constructs=("crowd", "guarantee"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.DIRECT},
        ),
        ConstraintRealization(
            constraint_id="class_priority",
            components=("queue:class_a", "queue:class_b"),
            constructs=("queue_order",),
            directness=Directness.DIRECT,
            info_handling={T1: Directness.DIRECT},
        ),
        ConstraintRealization(
            constraint_id="fcfs_within_class",
            components=("queue:class_a", "queue:class_b"),
            constructs=("queue_order", "automatic_signal"),
            directness=Directness.DIRECT,
            info_handling={T2: Directness.DIRECT},
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)

OPEN_PATH_STAGED_DESCRIPTION = SolutionDescription(
    problem="staged_queue",
    mechanism="pathexpr_open",
    components=(
        Component("path:1", "path", "path acquire_a , acquire_b end"),
        Component("guard:free", "guard", "no acquisition in flight"),
        Component("priority:classes", "guard",
                  "priority(acquire_a) > priority(acquire_b)"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("path:1", "guard:free"),
            constructs=("selection", "predicate"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="class_priority",
            components=("priority:classes",),
            constructs=("priority_operator",),
            directness=Directness.INDIRECT,
            info_handling={T1: Directness.INDIRECT},
            notes="base paths have no priority at all (§5.1.1); the 1975 "
            "version's priority operator supplies it",
        ),
        ConstraintRealization(
            constraint_id="fcfs_within_class",
            components=("priority:classes",),
            constructs=("fifo_selection",),
            directness=Directness.INDIRECT,
            info_handling={T2: Directness.INDIRECT},
        ),
    ),
    modularity=ModularityProfile(True, False, True),
)
