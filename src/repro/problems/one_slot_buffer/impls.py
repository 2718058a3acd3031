"""One-slot buffer solutions — the suite's history (T6) problem.

This is Campbell–Habermann's own flagship example ([7] in the paper), and
the one place base path expressions are maximally direct: the entire
synchronization scheme is the two-token text ``path put ; get end``.  The
other mechanisms must *reconstruct* the history information ("was the last
completed operation a put?") from state they maintain themselves.
"""

from __future__ import annotations

import weakref
from typing import Any, Generator

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
from ...resources import SlotBuffer
from ...runtime.primitives import Semaphore
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T4 = InformationType.SYNC_STATE
T5 = InformationType.LOCAL_STATE
T6 = InformationType.HISTORY


class PathOneSlotBuffer(SolutionBase):
    """``path put ; get end`` — the whole solution."""

    problem = "one_slot_buffer"
    mechanism = "pathexpr"

    def __init__(self, sched: Scheduler, name: str = "slot") -> None:
        super().__init__(sched, name)
        self.slot = SlotBuffer()
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def put_body(res, item: Any) -> Generator:
            solution._start("put")
            yield from solution.slot.put(item)
            solution._finish("put")

        def get_body(res) -> Generator:
            solution._start("get")
            item = yield from solution.slot.get()
            solution._finish("get")
            return item

        self.paths = PathResource(
            sched,
            "path put ; get end",
            operations={"put": put_body, "get": get_body},
            name=name + ".paths",
        )

    def put(self, item: Any) -> Generator:
        """Fill the slot (blocks until the previous value was consumed)."""
        self._request("put", item)
        yield from self.paths.invoke("put", item)

    def get(self) -> Generator:
        """Drain the slot (blocks until a value is present)."""
        self._request("get")
        item = yield from self.paths.invoke("get")
        return item


class SemaphoreOneSlotBuffer(SolutionBase):
    """Two binary semaphores passed back and forth — history encoded as
    which semaphore currently holds the token."""

    problem = "one_slot_buffer"
    mechanism = "semaphore"

    def __init__(self, sched: Scheduler, name: str = "slot") -> None:
        super().__init__(sched, name)
        self.slot = SlotBuffer()
        self._may_put = Semaphore(sched, 1, name + ".may_put")
        self._may_get = Semaphore(sched, 0, name + ".may_get")

    def put(self, item: Any) -> Generator:
        """Fill the slot (blocks until the previous value was consumed)."""
        self._request("put", item)
        yield from self._may_put.p()
        self._start("put")
        yield from self.slot.put(item)
        self._finish("put")
        self._may_get.v()

    def get(self) -> Generator:
        """Drain the slot (blocks until a value is present)."""
        self._request("get")
        yield from self._may_get.p()
        self._start("get")
        item = yield from self.slot.get()
        self._finish("get")
        self._may_put.v()
        return item


class MonitorOneSlotBuffer(SolutionBase):
    """Monitor version: the history bit is the resource's ``occupied`` flag
    (history folded into local state, as §3 predicts)."""

    problem = "one_slot_buffer"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, name: str = "slot") -> None:
        super().__init__(sched, name)
        self.slot = SlotBuffer()
        self.mon = Monitor(sched, name + ".mon")
        self.may_put = self.mon.condition("may_put")
        self.may_get = self.mon.condition("may_get")
        self._op_active = False

    def put(self, item: Any) -> Generator:
        """Fill the slot (blocks until the previous value was consumed)."""
        self._request("put", item)
        yield from self.mon.enter()
        while self._op_active or self.slot.occupied:
            yield from self.may_put.wait()
        self._op_active = True
        self.mon.exit()
        self._start("put")
        yield from self.slot.put(item)
        self._finish("put")
        yield from self.mon.enter()
        self._op_active = False
        yield from self.may_get.signal()
        self.mon.exit()

    def get(self) -> Generator:
        """Drain the slot (blocks until a value is present)."""
        self._request("get")
        yield from self.mon.enter()
        while self._op_active or not self.slot.occupied:
            yield from self.may_get.wait()
        self._op_active = True
        self.mon.exit()
        self._start("get")
        item = yield from self.slot.get()
        self._finish("get")
        yield from self.mon.enter()
        self._op_active = False
        yield from self.may_put.signal()
        self.mon.exit()
        return item


class SerializerOneSlotBuffer(SolutionBase):
    """Serializer version: guarantees read the slot's occupancy."""

    problem = "one_slot_buffer"
    mechanism = "serializer"

    def __init__(self, sched: Scheduler, name: str = "slot") -> None:
        super().__init__(sched, name)
        self.slot = SlotBuffer()
        self.ser = Serializer(sched, name + ".ser")
        self.putq = self.ser.queue("putq")
        self.getq = self.ser.queue("getq")
        self.users = self.ser.crowd("users")

    def put(self, item: Any) -> Generator:
        """Fill the slot (blocks until the previous value was consumed)."""
        self._request("put", item)
        yield from self.ser.enter()
        yield from self.ser.enqueue(
            self.putq, lambda: self.users.empty and not self.slot.occupied
        )
        yield from self.ser.join_crowd(self.users)
        self._start("put")
        yield from self.slot.put(item)
        self._finish("put")
        yield from self.ser.leave_crowd(self.users)
        self.ser.exit()

    def get(self) -> Generator:
        """Drain the slot (blocks until a value is present)."""
        self._request("get")
        yield from self.ser.enter()
        yield from self.ser.enqueue(
            self.getq, lambda: self.users.empty and self.slot.occupied
        )
        yield from self.ser.join_crowd(self.users)
        self._start("get")
        item = yield from self.slot.get()
        self._finish("get")
        yield from self.ser.leave_crowd(self.users)
        self.ser.exit()
        return item


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
PATH_ONE_SLOT_DESCRIPTION = SolutionDescription(
    problem="one_slot_buffer",
    mechanism="pathexpr",
    components=(
        Component("path:1", "path", "path put ; get end"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="slot_alternation",
            components=("path:1",),
            constructs=("sequence",),
            directness=Directness.DIRECT,
            info_handling={T6: Directness.DIRECT},
            notes="history IS the path position — the mechanism's best case "
            "([7]'s own example)",
        ),
    ),
    modularity=ModularityProfile(True, True, True,
                                 "no sync procedures needed here"),
)

SEMAPHORE_ONE_SLOT_DESCRIPTION = SolutionDescription(
    problem="one_slot_buffer",
    mechanism="semaphore",
    components=(
        Component("sem:may_put", "semaphore", "init 1"),
        Component("sem:may_get", "semaphore", "init 0"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="slot_alternation",
            components=("sem:may_put", "sem:may_get"),
            constructs=("semaphore", "token_passing"),
            directness=Directness.INDIRECT,
            info_handling={T6: Directness.INDIRECT},
            notes="history encoded as which semaphore holds the token",
        ),
    ),
    modularity=ModularityProfile(False, False, False),
)

MONITOR_ONE_SLOT_DESCRIPTION = SolutionDescription(
    problem="one_slot_buffer",
    mechanism="monitor",
    components=(
        Component("cond:may_put", "condition"),
        Component("cond:may_get", "condition"),
        Component("var:op_active", "variable"),
        Component("proc:put_guard", "procedure",
                  "while op_active or slot.occupied do may_put.wait"),
        Component("proc:get_guard", "procedure",
                  "while op_active or not slot.occupied do may_get.wait"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="slot_alternation",
            components=("cond:may_put", "cond:may_get",
                        "proc:put_guard", "proc:get_guard"),
            constructs=("condition_queue", "resource_state_query"),
            directness=Directness.DIRECT,
            info_handling={T6: Directness.DIRECT, T5: Directness.DIRECT},
            notes="history read as local state (occupied flag), per §3's "
            "interchangeability observation",
        ),
    ),
    modularity=ModularityProfile(True, True, False),
)

SERIALIZER_ONE_SLOT_DESCRIPTION = SolutionDescription(
    problem="one_slot_buffer",
    mechanism="serializer",
    components=(
        Component("queue:putq", "queue"),
        Component("queue:getq", "queue"),
        Component("crowd:users", "crowd"),
        Component("guarantee:put", "guarantee",
                  "users.empty and not slot.occupied"),
        Component("guarantee:get", "guarantee",
                  "users.empty and slot.occupied"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="slot_alternation",
            components=("guarantee:put", "guarantee:get", "crowd:users"),
            constructs=("guarantee", "automatic_signal"),
            directness=Directness.DIRECT,
            info_handling={T6: Directness.DIRECT, T5: Directness.DIRECT},
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)
