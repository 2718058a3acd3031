"""First-come-first-served resource — the suite's request-time (T2) problem.

A single resource granted in strict arrival order.  Each mechanism exposes
``use(work)``: acquire, hold for ``work`` steps, release.

The path-expression solution is the clearest beneficiary of the paper's
added assumption that "the selection operator always chooses the process
that has been waiting longest" (§5.1): ``path use end`` is FCFS *only*
because the underlying semaphore wakes FIFO — experiment E9 ablates exactly
this by switching the wake policy.
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
from ...mechanisms.pathexpr import PathResource
from ...mechanisms.serializer import Serializer
from ...runtime.primitives import Semaphore
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T2 = InformationType.REQUEST_TIME
T4 = InformationType.SYNC_STATE


class SemaphoreFcfsResource(SolutionBase):
    """A single FIFO semaphore: the baseline, FCFS by queue discipline."""

    problem = "fcfs_resource"
    mechanism = "semaphore"

    def __init__(self, sched: Scheduler, name: str = "res",
                 wake_policy: str = "fifo", seed: int = 0) -> None:
        super().__init__(sched, name)
        self._sem = Semaphore(sched, 1, name + ".sem",
                              wake_policy=wake_policy, seed=seed)

    def use(self, work: int = 1) -> Generator:
        """Acquire, hold for ``work`` steps, release."""
        self._request("use")
        yield from self._sem.p()
        self._start("use")
        yield from self._work(work)
        self._finish("use")
        self._sem.v()


class MonitorFcfsResource(SolutionBase):
    """FIFO condition queue: arrival order is the queue order."""

    problem = "fcfs_resource"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        super().__init__(sched, name)
        self.mon = Monitor(sched, name + ".mon")
        self.turn = self.mon.condition("turn")
        self._busy = False

    def use(self, work: int = 1) -> Generator:
        """Acquire, hold for ``work`` steps, release."""
        self._request("use")
        yield from self.mon.enter()
        if self._busy or self.turn.queue:
            yield from self.turn.wait()
        self._busy = True
        self.mon.exit()
        self._start("use")
        yield from self._work(work)
        self._finish("use")
        yield from self.mon.enter()
        self._busy = False
        yield from self.turn.signal()
        self.mon.exit()


class SerializerFcfsResource(SolutionBase):
    """One queue, one crowd: the queue IS the arrival order."""

    problem = "fcfs_resource"
    mechanism = "serializer"

    def __init__(self, sched: Scheduler, name: str = "res") -> None:
        super().__init__(sched, name)
        self.ser = Serializer(sched, name + ".ser")
        self.q = self.ser.queue("q")
        self.users = self.ser.crowd("users")

    def use(self, work: int = 1) -> Generator:
        """Acquire, hold for ``work`` steps, release."""
        self._request("use")
        yield from self.ser.enter()
        yield from self.ser.enqueue(self.q, lambda: self.users.empty)
        yield from self.ser.join_crowd(self.users)
        self._start("use")
        yield from self._work(work)
        self._finish("use")
        yield from self.ser.leave_crowd(self.users)
        self.ser.exit()


class PathFcfsResource(SolutionBase):
    """``path use end`` — FCFS by the longest-waiting selection assumption."""

    problem = "fcfs_resource"
    mechanism = "pathexpr"

    def __init__(self, sched: Scheduler, name: str = "res",
                 wake_policy: str = "fifo", seed: int = 0) -> None:
        super().__init__(sched, name)
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def use_body(res, work: int) -> Generator:
            solution._start("use")
            yield from solution._work(work)
            solution._finish("use")

        self.paths = PathResource(
            sched,
            "path use end",
            operations={"use": use_body},
            name=name + ".paths",
            wake_policy=wake_policy,
            seed=seed,
        )

    def use(self, work: int = 1) -> Generator:
        """Acquire, hold for ``work`` steps, release."""
        self._request("use")
        yield from self.paths.invoke("use", work)


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
SEMAPHORE_FCFS_DESCRIPTION = SolutionDescription(
    problem="fcfs_resource",
    mechanism="semaphore",
    components=(
        Component("sem:res", "semaphore", "init 1, FIFO queue"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("sem:res",),
            constructs=("semaphore",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="arrival_order",
            components=("sem:res",),
            constructs=("fifo_queue",),
            directness=Directness.INDIRECT,
            info_handling={T2: Directness.INDIRECT},
            notes="FCFS holds only if the semaphore's own queue is FIFO — "
            "an implementation property, not an expressed constraint",
        ),
    ),
    modularity=ModularityProfile(False, False, False),
)

MONITOR_FCFS_DESCRIPTION = SolutionDescription(
    problem="fcfs_resource",
    mechanism="monitor",
    components=(
        Component("var:busy", "variable"),
        Component("cond:turn", "condition", "FIFO wait queue"),
        Component("proc:acquire", "procedure",
                  "if busy or turn.queue then turn.wait; busy:=true"),
        Component("proc:release", "procedure",
                  "busy:=false; turn.signal"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("var:busy", "proc:acquire", "proc:release"),
            constructs=("monitor_mutex", "local_data"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="arrival_order",
            components=("cond:turn", "proc:acquire"),
            constructs=("condition_queue",),
            directness=Directness.DIRECT,
            info_handling={T2: Directness.DIRECT},
            notes="condition queues are the monitor's construct for request "
            "time (§5.2)",
        ),
    ),
    modularity=ModularityProfile(True, True, False),
)

SERIALIZER_FCFS_DESCRIPTION = SolutionDescription(
    problem="fcfs_resource",
    mechanism="serializer",
    components=(
        Component("queue:q", "queue"),
        Component("crowd:users", "crowd"),
        Component("guarantee:use", "guarantee", "users.empty"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("crowd:users", "guarantee:use"),
            constructs=("crowd", "guarantee"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.DIRECT},
        ),
        ConstraintRealization(
            constraint_id="arrival_order",
            components=("queue:q",),
            constructs=("queue_order", "automatic_signal"),
            directness=Directness.DIRECT,
            info_handling={T2: Directness.DIRECT},
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)

PATH_FCFS_DESCRIPTION = SolutionDescription(
    problem="fcfs_resource",
    mechanism="pathexpr",
    components=(
        Component("path:1", "path", "path use end"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("path:1",),
            constructs=("sequence",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="arrival_order",
            components=("path:1",),
            constructs=("fifo_selection",),
            directness=Directness.INDIRECT,
            info_handling={T2: Directness.INDIRECT},
            notes="depends entirely on the §5.1 longest-waiting assumption; "
            "breaks under LIFO/random wake policies (ablation E9)",
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)
