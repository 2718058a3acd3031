"""Bounded buffer solutions — the suite's local-state (T5) problem.

Four mechanisms.  The base-path-expression finding of §5.1.2 ("nor is local
resource state information available") shows up here concretely: the bounded
buffer needs the count of stored items, which base paths cannot see, so the
path solution uses the *extended* (open) variant with the numeric-operator
counters — mechanism tag ``pathexpr_open``.
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
from ...mechanisms.pathexpr import GuardedPathResource
from ...mechanisms.serializer import Serializer
from ...resources import BoundedBuffer
from ...runtime.primitives import Semaphore
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T4 = InformationType.SYNC_STATE
T5 = InformationType.LOCAL_STATE
T6 = InformationType.HISTORY


class SemaphoreBoundedBuffer(SolutionBase):
    """Dijkstra's classic: counting semaphores mirror the buffer state."""

    problem = "bounded_buffer"
    mechanism = "semaphore"

    def __init__(self, sched: Scheduler, capacity: int = 4,
                 name: str = "buf") -> None:
        super().__init__(sched, name)
        self.buffer = BoundedBuffer(capacity)
        self._spaces = Semaphore(sched, capacity, name + ".spaces")
        self._items = Semaphore(sched, 0, name + ".items")
        self._mutex = Semaphore(sched, 1, name + ".mutex")

    def put(self, item: Any, work: int = 0) -> Generator:
        """Insert one item, blocking while the buffer is full."""
        self._request("put", item)
        yield from self._spaces.p()
        yield from self._mutex.p()
        self._start("put")
        yield from self.buffer.put(item)
        yield from self._work(work)
        self._finish("put")
        self._mutex.v()
        self._items.v()

    def get(self, work: int = 0) -> Generator:
        """Remove and return the oldest item, blocking while empty."""
        self._request("get")
        yield from self._items.p()
        yield from self._mutex.p()
        self._start("get")
        item = yield from self.buffer.get()
        yield from self._work(work)
        self._finish("get")
        self._mutex.v()
        self._spaces.v()
        return item


class MonitorBoundedBuffer(SolutionBase):
    """Hoare's bounded buffer, structured per §2: the monitor is a pure
    synchronizer reading the buffer's *local state* (``full`` / ``empty``)
    directly off the separate resource object."""

    problem = "bounded_buffer"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, capacity: int = 4,
                 name: str = "buf") -> None:
        super().__init__(sched, name)
        self.buffer = BoundedBuffer(capacity)
        self.mon = Monitor(sched, name + ".mon")
        self.nonfull = self.mon.condition("nonfull")
        self.nonempty = self.mon.condition("nonempty")
        self._op_active = False

    def put(self, item: Any, work: int = 0) -> Generator:
        """Insert one item, blocking while the buffer is full."""
        self._request("put", item)
        yield from self.mon.enter()
        while self._op_active or self.buffer.full:
            yield from self.nonfull.wait()
        self._op_active = True
        self.mon.exit()
        self._start("put")
        yield from self.buffer.put(item)
        yield from self._work(work)
        self._finish("put")
        yield from self.mon.enter()
        self._op_active = False
        yield from self.nonempty.signal()
        if not self.buffer.full:
            yield from self.nonfull.signal()
        self.mon.exit()

    def get(self, work: int = 0) -> Generator:
        """Remove and return the oldest item, blocking while empty."""
        self._request("get")
        yield from self.mon.enter()
        while self._op_active or self.buffer.empty:
            yield from self.nonempty.wait()
        self._op_active = True
        self.mon.exit()
        self._start("get")
        item = yield from self.buffer.get()
        yield from self._work(work)
        self._finish("get")
        yield from self.mon.enter()
        self._op_active = False
        yield from self.nonfull.signal()
        if not self.buffer.empty:
            yield from self.nonempty.signal()
        self.mon.exit()
        return item


class SerializerBoundedBuffer(SolutionBase):
    """Serializer bounded buffer: guarantees read buffer state and the
    crowd; no signals anywhere."""

    problem = "bounded_buffer"
    mechanism = "serializer"

    def __init__(self, sched: Scheduler, capacity: int = 4,
                 name: str = "buf") -> None:
        super().__init__(sched, name)
        self.buffer = BoundedBuffer(capacity)
        self.ser = Serializer(sched, name + ".ser")
        self.putq = self.ser.queue("putq")
        self.getq = self.ser.queue("getq")
        self.users = self.ser.crowd("users")

    def put(self, item: Any, work: int = 0) -> Generator:
        """Insert one item, blocking while the buffer is full."""
        self._request("put", item)
        yield from self.ser.enter()
        yield from self.ser.enqueue(
            self.putq, lambda: self.users.empty and not self.buffer.full
        )
        yield from self.ser.join_crowd(self.users)
        self._start("put")
        yield from self.buffer.put(item)
        yield from self._work(work)
        self._finish("put")
        yield from self.ser.leave_crowd(self.users)
        self.ser.exit()

    def get(self, work: int = 0) -> Generator:
        """Remove and return the oldest item, blocking while empty."""
        self._request("get")
        yield from self.ser.enter()
        yield from self.ser.enqueue(
            self.getq, lambda: self.users.empty and not self.buffer.empty
        )
        yield from self.ser.join_crowd(self.users)
        self._start("get")
        item = yield from self.buffer.get()
        yield from self._work(work)
        self._finish("get")
        yield from self.ser.leave_crowd(self.users)
        self.ser.exit()
        return item


class OpenPathBoundedBuffer(SolutionBase):
    """Bounded buffer in *extended* path expressions via the numeric
    operator (Flon–Habermann, the §5.1.2 lineage).

    ``path N : ( put ; get ) end`` keeps at most N put→get cycles in flight
    — puts can run at most N ahead of gets, which *is* the capacity bound;
    ``path put , get end`` serializes the individual operations.  No guards,
    no counters: the bound lives in the path text, expressing the local-state
    condition through history (the interchangeability §3 notes).
    """

    problem = "bounded_buffer"
    mechanism = "pathexpr_open"

    def __init__(self, sched: Scheduler, capacity: int = 4,
                 name: str = "buf") -> None:
        super().__init__(sched, name)
        self.buffer = BoundedBuffer(capacity)
        self.capacity = capacity
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def put_body(res, item: Any, work: int) -> Generator:
            solution._start("put")
            yield from solution.buffer.put(item)
            yield from solution._work(work)
            solution._finish("put")

        def get_body(res, work: int) -> Generator:
            solution._start("get")
            item = yield from solution.buffer.get()
            yield from solution._work(work)
            solution._finish("get")
            return item

        self.paths = GuardedPathResource(
            sched,
            [
                "path {} : ( put ; get ) end".format(capacity),
                "path put , get end",
            ],
            operations={"put": put_body, "get": get_body},
            name=name + ".paths",
        )

    def put(self, item: Any, work: int = 0) -> Generator:
        """Insert one item, blocking while the buffer is full."""
        self._request("put", item)
        yield from self.paths.invoke("put", item, work)

    def get(self, work: int = 0) -> Generator:
        """Remove and return the oldest item, blocking while empty."""
        self._request("get")
        item = yield from self.paths.invoke("get", work)
        return item


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
SEMAPHORE_BOUNDED_BUFFER_DESCRIPTION = SolutionDescription(
    problem="bounded_buffer",
    mechanism="semaphore",
    components=(
        Component("sem:spaces", "semaphore", "init N: free slots"),
        Component("sem:items", "semaphore", "init 0: stored items"),
        Component("sem:mutex", "semaphore", "op exclusion"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="buffer_bounds",
            components=("sem:spaces", "sem:items"),
            constructs=("counting_semaphore",),
            directness=Directness.INDIRECT,
            info_handling={T5: Directness.INDIRECT},
            notes="local state is *encoded* in semaphore counts that must "
            "be kept consistent with the buffer by hand",
        ),
        ConstraintRealization(
            constraint_id="buffer_mutex",
            components=("sem:mutex",),
            constructs=("semaphore",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
    ),
    modularity=ModularityProfile(False, False, False,
                                 "P/V at every access point"),
)

MONITOR_BOUNDED_BUFFER_DESCRIPTION = SolutionDescription(
    problem="bounded_buffer",
    mechanism="monitor",
    components=(
        Component("cond:nonfull", "condition"),
        Component("cond:nonempty", "condition"),
        Component("var:op_active", "variable", "op_active := false"),
        Component("proc:before_put", "procedure",
                  "while op_active or buffer.full do nonfull.wait"),
        Component("proc:after_put", "procedure",
                  "op_active := false; nonempty.signal"),
        Component("proc:before_get", "procedure",
                  "while op_active or buffer.empty do nonempty.wait"),
        Component("proc:after_get", "procedure",
                  "op_active := false; nonfull.signal"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="buffer_bounds",
            components=("cond:nonfull", "cond:nonempty",
                        "proc:before_put", "proc:before_get"),
            constructs=("condition_queue", "resource_state_query"),
            directness=Directness.DIRECT,
            info_handling={T5: Directness.DIRECT},
            notes="guards read buffer.full / buffer.empty straight off the "
            "separate resource object (the §2 structure)",
        ),
        ConstraintRealization(
            constraint_id="buffer_mutex",
            components=("var:op_active", "proc:before_put", "proc:after_put",
                        "proc:before_get", "proc:after_get"),
            constructs=("monitor_mutex", "local_data"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
    ),
    modularity=ModularityProfile(True, True, False),
)

SERIALIZER_BOUNDED_BUFFER_DESCRIPTION = SolutionDescription(
    problem="bounded_buffer",
    mechanism="serializer",
    components=(
        Component("queue:putq", "queue"),
        Component("queue:getq", "queue"),
        Component("crowd:users", "crowd"),
        Component("guarantee:put", "guarantee",
                  "users.empty and not buffer.full"),
        Component("guarantee:get", "guarantee",
                  "users.empty and not buffer.empty"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="buffer_bounds",
            components=("guarantee:put", "guarantee:get"),
            constructs=("guarantee", "automatic_signal",
                        "resource_state_query"),
            directness=Directness.DIRECT,
            info_handling={T5: Directness.DIRECT},
        ),
        ConstraintRealization(
            constraint_id="buffer_mutex",
            components=("crowd:users", "guarantee:put", "guarantee:get"),
            constructs=("crowd", "guarantee"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.DIRECT},
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)

OPEN_PATH_BOUNDED_BUFFER_DESCRIPTION = SolutionDescription(
    problem="bounded_buffer",
    mechanism="pathexpr_open",
    components=(
        Component("path:1", "path", "path N : ( put ; get ) end"),
        Component("path:2", "path", "path put , get end"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="buffer_bounds",
            components=("path:1",),
            constructs=("numeric_operator", "sequence"),
            directness=Directness.INDIRECT,
            info_handling={T5: Directness.INDIRECT, T6: Directness.DIRECT},
            notes="base paths cannot see local state (§5.1.2); the numeric "
            "operator expresses the bound through history (N cycles in "
            "flight) — the §3 state/history interchangeability",
        ),
        ConstraintRealization(
            constraint_id="buffer_mutex",
            components=("path:2",),
            constructs=("selection",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
    ),
    modularity=ModularityProfile(True, False, True),
)
