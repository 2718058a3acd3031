"""Alarm clock solutions — the second request-parameters (T3) problem.

Hoare's alarm clock ([13]): ``wakeme(n)`` suspends the caller for ``n``
ticks of a clock driven by a ticker process calling ``tick()`` once per unit
of virtual time.  The scheduling decision is parameter-based: wake the
sleeper whose deadline (request time + n) has arrived, earliest first.

Trace conventions for the oracle: ``wakeme`` events (detail = delay) on
request, ``wake`` events at resumption, both with obj = the resource name.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

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
from ...runtime.primitives import Semaphore
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T3 = InformationType.PARAMETERS


class MonitorAlarmClock(SolutionBase):
    """Hoare's alarm clock: one priority-wait condition ranked by deadline,
    with the cascading wake-up from his paper."""

    problem = "alarm_clock"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, name: str = "alarm") -> None:
        super().__init__(sched, name)
        self.mon = Monitor(sched, name + ".mon")
        self.wakeup = self.mon.condition("wakeup")
        self._now = 0

    @property
    def now(self) -> int:
        """The alarm clock's own tick counter."""
        return self._now

    def wakeme(self, n: int) -> Generator:
        """Sleep for ``n`` ticks."""
        self._sched.log("wakeme", self.name, n)
        yield from self.mon.enter()
        alarm_setting = self._now + n
        while self._now < alarm_setting:
            yield from self.wakeup.wait(priority=alarm_setting)
        # Cascade: wake the next sleeper so it can re-check its own setting.
        yield from self.wakeup.signal()
        self.mon.exit()
        self._sched.log("wake", self.name)

    def tick(self) -> Generator:
        """Advance the clock one unit and start the wake-up cascade."""
        yield from self.mon.enter()
        self._now += 1
        yield from self.wakeup.signal()
        self.mon.exit()


class SerializerAlarmClock(SolutionBase):
    """Serializer alarm clock: a priority queue ranked by deadline with a
    guarantee on the clock — the later-version extensions at work."""

    problem = "alarm_clock"
    mechanism = "serializer"

    def __init__(self, sched: Scheduler, name: str = "alarm") -> None:
        super().__init__(sched, name)
        self.ser = Serializer(sched, name + ".ser")
        self.sleepers = self.ser.priority_queue("sleepers")
        self._now = 0

    @property
    def now(self) -> int:
        """The alarm clock's own tick counter."""
        return self._now

    def wakeme(self, n: int) -> Generator:
        """Sleep for ``n`` ticks."""
        self._sched.log("wakeme", self.name, n)
        yield from self.ser.enter()
        deadline = self._now + n
        yield from self.ser.enqueue(
            self.sleepers,
            lambda: self._now >= deadline,
            priority=deadline,
        )
        self.ser.exit()
        self._sched.log("wake", self.name)

    def tick(self) -> Generator:
        """Advance the clock one unit; guarantees re-evaluate on exit."""
        yield from self.ser.enter()
        self._now += 1
        self.ser.exit()


class OpenPathAlarmClock(SolutionBase):
    """Guarded paths: the deadline comparison is an Andler predicate over a
    state variable (the tick counter)."""

    problem = "alarm_clock"
    mechanism = "pathexpr_open"

    def __init__(self, sched: Scheduler, name: str = "alarm") -> None:
        super().__init__(sched, name)

        def tick_body(res) -> Generator:
            res.state["now"] = res.state.get("now", 0) + 1
            return
            yield  # pragma: no cover - generator marker

        self.paths = GuardedPathResource(
            sched,
            "path tick end",
            operations={"tick": tick_body},
            guards={
                "wakeme": lambda r, args: r.state.get("now", 0) >= args[0],
            },
            name=name + ".paths",
        )
        # wakeme is not path-constrained, only guarded; give it a no-op body.
        self.paths.define("wakeme", lambda res, deadline: None)

    @property
    def now(self) -> int:
        """The alarm clock's own tick counter."""
        return self.paths.state.get("now", 0)

    def wakeme(self, n: int) -> Generator:
        """Sleep for ``n`` ticks."""
        self._sched.log("wakeme", self.name, n)
        deadline = self.now + n
        yield from self.paths.invoke("wakeme", deadline)
        self._sched.log("wake", self.name)

    def tick(self) -> Generator:
        """Advance the clock one unit; guards re-evaluate automatically."""
        yield from self.paths.invoke("tick")


class SemaphoreAlarmClock(SolutionBase):
    """Private-semaphore baseline: the ticker V's every due sleeper."""

    problem = "alarm_clock"
    mechanism = "semaphore"

    def __init__(self, sched: Scheduler, name: str = "alarm") -> None:
        super().__init__(sched, name)
        self._now = 0
        self._mutex = Semaphore(sched, 1, name + ".mutex")
        self._sleepers: List[Tuple[int, Semaphore]] = []

    @property
    def now(self) -> int:
        """The alarm clock's own tick counter."""
        return self._now

    def wakeme(self, n: int) -> Generator:
        """Sleep for ``n`` ticks."""
        self._sched.log("wakeme", self.name, n)
        yield from self._mutex.p()
        deadline = self._now + n
        private = Semaphore(self._sched, 0, "{}.p{}".format(self.name, deadline))
        self._sleepers.append((deadline, private))
        self._mutex.v()
        if n > 0:
            yield from private.p()
        self._sched.log("wake", self.name)

    def tick(self) -> Generator:
        """Advance the clock one unit and release every due sleeper."""
        yield from self._mutex.p()
        self._now += 1
        due = [s for s in self._sleepers if s[0] <= self._now]
        self._sleepers = [s for s in self._sleepers if s[0] > self._now]
        for __, private in due:
            private.v()
        self._mutex.v()


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
MONITOR_ALARM_DESCRIPTION = SolutionDescription(
    problem="alarm_clock",
    mechanism="monitor",
    components=(
        Component("var:now", "variable", "tick counter"),
        Component("cond:wakeup", "priority_queue",
                  "priority wait ranked by alarmsetting"),
        Component("proc:wakeme", "procedure",
                  "while now < alarmsetting do wakeup.wait(alarmsetting); "
                  "wakeup.signal"),
        Component("proc:tick", "procedure", "now+1; wakeup.signal"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="deadline_order",
            components=("cond:wakeup", "var:now", "proc:wakeme", "proc:tick"),
            constructs=("priority_wait", "cascade_signal"),
            directness=Directness.DIRECT,
            info_handling={T3: Directness.DIRECT},
        ),
    ),
    modularity=ModularityProfile(True, True, False),
)

SERIALIZER_ALARM_DESCRIPTION = SolutionDescription(
    problem="alarm_clock",
    mechanism="serializer",
    components=(
        Component("var:now", "variable", "tick counter"),
        Component("queue:sleepers", "priority_queue",
                  "ranked by deadline (extension)"),
        Component("guarantee:wakeme", "guarantee", "now >= deadline"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="deadline_order",
            components=("queue:sleepers", "guarantee:wakeme", "var:now"),
            constructs=("priority_queue", "guarantee", "local_variables"),
            directness=Directness.INDIRECT,
            info_handling={T3: Directness.INDIRECT},
            notes="needs the priority queues and local variables that 'had "
            "to be added later' (§5.2) — absent from the first version",
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)

OPEN_PATH_ALARM_DESCRIPTION = SolutionDescription(
    problem="alarm_clock",
    mechanism="pathexpr_open",
    components=(
        Component("path:1", "path", "path tick end"),
        Component("var:now", "variable", "state variable"),
        Component("guard:wakeme", "guard", "now >= deadline"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="deadline_order",
            components=("guard:wakeme", "var:now"),
            constructs=("predicate", "state_variables"),
            directness=Directness.INDIRECT,
            info_handling={T3: Directness.INDIRECT},
            notes="the alarmclock example 'is another case in which "
            "synchronization procedures are used as gates' (§5.1.2) — here "
            "lifted to Andler predicates",
        ),
    ),
    modularity=ModularityProfile(True, False, True),
)

SEMAPHORE_ALARM_DESCRIPTION = SolutionDescription(
    problem="alarm_clock",
    mechanism="semaphore",
    components=(
        Component("sem:mutex", "semaphore"),
        Component("var:sleepers", "variable",
                  "(deadline, private semaphore) list"),
        Component("proc:tick", "procedure", "V every due private semaphore"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="deadline_order",
            components=("sem:mutex", "var:sleepers", "proc:tick"),
            constructs=("private_semaphore", "hand_scheduler"),
            directness=Directness.INDIRECT,
            info_handling={T3: Directness.INDIRECT},
            notes="the private-semaphore pattern: the user writes the whole "
            "scheduler by hand",
        ),
    ),
    modularity=ModularityProfile(False, False, False),
)
