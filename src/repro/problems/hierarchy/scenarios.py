"""Hierarchically structured resources — the nested-monitor-call problem.

§5.2 of the paper: "The nested monitor call problem results when an
operation in one monitor is always invoked from an operation within another
monitor.  If the second monitor waits, a deadlock will result because the
second monitor is released by the wait, but the calling monitor is not."

Three runnable scenarios over the same two-level structure (an outer
directory object wrapping an inner one-slot channel):

* :func:`run_nested_monitors` — inner wait inside outer monitor: the
  producer can never enter the outer monitor to signal → **deadlock**.
* :func:`run_layered_protected` — the §2 protected-resource structure:
  "the monitor is released before the resource operation is invoked...
  Therefore, no deadlock will result."
* :func:`run_serializer_nested` — serializers: ``join_crowd`` releases
  possession around the inner access, so nesting is safe by construction.

Each returns the :class:`RunResult`; experiment E7 asserts the deadlock
pattern (first deadlocks, other two complete).
"""

from __future__ import annotations

from typing import List

from ...mechanisms.monitor import Monitor
from ...mechanisms.serializer import Serializer
from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult


class _InnerChannelMonitor:
    """A one-slot channel protected by its own (inner) monitor."""

    def __init__(self, sched: Scheduler, name: str = "inner") -> None:
        self._sched = sched
        self.mon = Monitor(sched, name + ".mon")
        self.nonempty = self.mon.condition("nonempty")
        self._value = None
        self._full = False

    def put(self, value):
        yield from self.mon.enter()
        self._value = value
        self._full = True
        yield from self.nonempty.signal()
        self.mon.exit()

    def get(self):
        yield from self.mon.enter()
        while not self._full:
            yield from self.nonempty.wait()  # releases INNER monitor only
        value = self._value
        self._full = False
        self.mon.exit()
        return value


def run_nested_monitors() -> RunResult:
    """The deadlock shape: outer monitor ops call inner monitor ops.

    The consumer holds the outer monitor while waiting inside the inner one;
    the producer blocks at outer entry; nobody can ever signal.
    """
    sched = Scheduler()
    inner = _InnerChannelMonitor(sched)
    outer = Monitor(sched, "outer.mon")

    def outer_get():
        yield from outer.enter()
        value = yield from inner.get()  # called while HOLDING outer
        outer.exit()
        return value

    def outer_put(value):
        yield from outer.enter()
        yield from inner.put(value)
        outer.exit()

    def consumer():
        value = yield from outer_get()
        return value

    def producer():
        yield  # let the consumer get stuck first
        yield from outer_put(42)

    sched.spawn(consumer, name="consumer0")
    sched.spawn(producer, name="producer")
    return sched.run(on_deadlock="return")


def run_layered_protected() -> RunResult:
    """The §2 fix: the outer monitor only performs the *admission* decision
    and is exited before the inner (resource) operation is invoked."""
    sched = Scheduler()
    inner = _InnerChannelMonitor(sched)
    outer = Monitor(sched, "outer.mon")
    state = {"gets": 0, "puts": 0}
    received: List[int] = []

    def outer_get():
        yield from outer.enter()
        state["gets"] += 1  # bookkeeping under the outer monitor
        outer.exit()  # RELEASED before the lower-level call
        value = yield from inner.get()
        return value

    def outer_put(value):
        yield from outer.enter()
        state["puts"] += 1
        outer.exit()
        yield from inner.put(value)

    def consumer():
        value = yield from outer_get()
        received.append(value)

    def producer():
        yield
        yield from outer_put(42)

    sched.spawn(consumer, name="consumer")
    sched.spawn(producer, name="producer")
    result = sched.run(on_deadlock="return")
    result.results["received"] = received
    return result


def run_serializer_nested() -> RunResult:
    """Serializer outer layer: join_crowd releases possession around the
    inner access, so the producer can pass through the outer serializer
    while the consumer is blocked inside the inner resource."""
    sched = Scheduler()
    inner = _InnerChannelMonitor(sched)
    outer = Serializer(sched, "outer.ser")
    users = outer.crowd("users")
    received: List[int] = []

    def outer_get():
        yield from outer.enter()
        yield from outer.join_crowd(users)  # possession released here
        value = yield from inner.get()
        yield from outer.leave_crowd(users)
        outer.exit()
        return value

    def outer_put(value):
        yield from outer.enter()
        yield from outer.join_crowd(users)
        yield from inner.put(value)
        yield from outer.leave_crowd(users)
        outer.exit()

    def consumer():
        value = yield from outer_get()
        received.append(value)

    def producer():
        yield
        yield from outer_put(42)

    sched.spawn(consumer, name="consumer")
    sched.spawn(producer, name="producer")
    result = sched.run(on_deadlock="return")
    result.results["received"] = received
    return result
