"""Exception hierarchy for the deterministic concurrency runtime.

Every error raised by :mod:`repro.runtime` derives from :class:`RuntimeBaseError`
so callers can catch runtime failures without masking ordinary Python bugs.
"""

from __future__ import annotations


class RuntimeBaseError(Exception):
    """Base class for all runtime errors."""


class DeadlockError(RuntimeBaseError):
    """Raised when no process is runnable, no timer is pending, and at least
    one process is still blocked.

    The blocked processes and what each is blocked on are carried so
    experiment E7 (nested monitor calls) can report the deadlock cycle.
    When the scheduler can reconstruct the wait-for relation, :attr:`graph`
    holds a :class:`repro.runtime.faults.WaitForGraph`: who holds what, who
    waits on what, and any cycle rendered as
    ``P1 -> mutex m -> P2 -> condition c -> P1``.  Dead (killed or failed)
    processes that still hold resources are named explicitly, which is what
    makes injected-crash deadlocks diagnosable.
    """

    def __init__(self, blocked, graph=None):
        self.blocked = list(blocked)
        self.graph = graph
        detail = ", ".join(
            "{} on {}".format(p.name, p.blocked_on) for p in self.blocked
        )
        message = "deadlock: {}".format(detail)
        if graph is not None:
            rendered = graph.render()
            if rendered:
                message += "\n" + rendered
        super().__init__(message)


class StepLimitExceeded(RuntimeBaseError):
    """Raised when a run exceeds its step budget (livelock guard).

    Carries the tail of the event trace (:attr:`recent_events`) and a
    snapshot of the ready queue (:attr:`ready`) so livelock failures are
    diagnosable from the exception alone — mirroring the wait-for graph
    carried by :class:`DeadlockError`.
    """

    def __init__(self, message, recent_events=None, ready=None):
        self.recent_events = list(recent_events or [])
        self.ready = list(ready or [])
        if self.ready:
            message += "\nready queue: {}".format(", ".join(self.ready))
        if self.recent_events:
            message += "\nlast {} events:\n{}".format(
                len(self.recent_events),
                "\n".join("  " + str(ev) for ev in self.recent_events),
            )
        super().__init__(message)


class ProcessFailed(RuntimeBaseError):
    """Raised by :meth:`Scheduler.run` when a process body raised an exception.

    The original exception is available as ``__cause__`` and via
    :attr:`process`.
    """

    def __init__(self, process, cause):
        self.process = process
        super().__init__(
            "process {!r} failed: {!r}".format(process.name, cause)
        )


class SchedulerStateError(RuntimeBaseError):
    """Raised on misuse of the scheduler API (e.g. blocking a process that is
    not the current one, or spawning after the run completed)."""


class IllegalOperationError(RuntimeBaseError):
    """Raised by synchronization mechanisms on protocol violations, such as
    releasing a mutex the caller does not hold or signalling outside a
    monitor."""


class WaitTimeout(RuntimeBaseError):
    """Raised *inside a process* when a timed blocking call expires.

    A channel ``send``/``receive`` with ``timeout=`` (the dist layer's
    ``Node.receive``/``request`` reach it through a node's inbox) raises
    this after ``timeout`` units of *virtual* time without a wakeup.  The
    channel withdraws the caller's offer before the exception is delivered,
    so a later match can never target a process that already gave up.
    """

    def __init__(self, what, timeout):
        self.what = what
        self.timeout = timeout
        super().__init__(
            "timed out after {} ticks waiting on {}".format(timeout, what)
        )


class ProcessKilled(RuntimeBaseError):
    """Injected into a process terminated by a :class:`~repro.runtime.faults.
    FaultPlan` (or an explicit :meth:`Scheduler.kill`).

    Recorded as the dead process's :attr:`SimProcess.exception`; the process
    body itself never observes it (the generator is closed, so ``finally``
    blocks run but cannot block).
    """

    def __init__(self, pname, why=""):
        self.pname = pname
        self.why = why
        detail = " ({})".format(why) if why else ""
        super().__init__("process {} killed by fault injection{}".format(
            pname, detail
        ))


class PeerFailed(RuntimeBaseError):
    """Raised by a channel operation when a communication peer died.

    A channel remembers every process that has used it; when one of them is
    killed the channel *breaks*: every parked offer is woken with this
    exception and later operations fail immediately.  This is the defined
    crash semantics of message passing — failure propagates to the partner
    instead of leaving it parked forever (cf. Erlang link semantics).
    """

    def __init__(self, channel, peer):
        self.channel = channel
        self.peer = peer
        super().__init__(
            "peer {} of channel {} died".format(peer, channel)
        )
