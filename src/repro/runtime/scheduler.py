"""The deterministic cooperative scheduler.

This is substrate S1 from DESIGN.md: a discrete-event, generator-based
run-to-yield scheduler.  Every blocking construct in the library (semaphores,
monitors, serializers, path expressions) is built on exactly two scheduler
services: :meth:`Scheduler.park` (suspend the current process) and
:meth:`Scheduler.unpark` (make a suspended process runnable again).  All
nondeterminism funnels through the :class:`~repro.runtime.policies.SchedulingPolicy`,
so runs are replayable and the schedule space is enumerable.

Virtual time is discrete-event style: the clock only advances when nothing is
runnable, jumping to the earliest pending timer.  The global event sequence
number (``seq``) provides the total order used for "request time"
(information type T2) reasoning.

Robustness services layered on the same two primitives:

* **timed blocking** — ``park(timeout=...)`` arms a timer-heap entry that
  delivers :class:`WaitTimeout` if no wakeup arrives in time; normal wakeups
  cancel the entry (lazily removed from the heap);
* **crash semantics** — :meth:`kill` terminates a process abruptly, running
  the cleanup callbacks mechanisms registered (release a held monitor,
  dequeue a dead waiter, break a channel) so survivors are never silently
  wedged;
* **fault injection** — a :class:`~repro.runtime.faults.FaultPlan` can
  script kills, delayed wakeups, and dropped signals into the run loop;
* **diagnosis** — the scheduler tracks who holds what (:meth:`note_hold`)
  and who waits on what, so deadlocks carry a wait-for graph naming even
  dead processes.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional

from .errors import (
    DeadlockError,
    ProcessFailed,
    ProcessKilled,
    SchedulerStateError,
    StepLimitExceeded,
    WaitTimeout,
)
from .faults import FaultPlan, WaitForGraph, _Failure
from .policies import FIFOPolicy, SchedulingPolicy
from .process import ProcessState, SimProcess
from .trace import Event, RunResult, Trace, UnkeptTrace

#: Trace events carried by :class:`StepLimitExceeded` for diagnosis.
DIAGNOSTIC_TAIL = 20

_BLOCKED = ProcessState.BLOCKED
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: ``Event`` is a named tuple: building it with ``tuple.__new__`` skips the
#: generated wrapper that only fills in keyword defaults.
_new_tuple = tuple.__new__

#: Memo of per-event digest terms.  Only events whose ``obj`` is a ``str``
#: and whose ``detail`` is exactly a ``str``, an ``int`` or ``None`` are
#: memoized: their ``repr`` is a function of the key, and ``type(detail)``
#: in the key keeps equal-but-distinct values (``1``/``True``) apart.  The
#: memo only saves work — a term is the same BLAKE2b value either way, so
#: digests never depend on ``PYTHONHASHSEED``.
_EVENT_TERMS: Dict[tuple, int] = {}
#: The memo is cleared when it reaches this size (a full pass over the
#: exploration catalog produces about a thousand distinct terms).
_EVENT_TERMS_MAX = 8192


def _discard(event: Event) -> None:
    """The event append of a finished run.  A body left suspended when
    :meth:`Scheduler.run` returns can still log when the collector
    finalizes it; those events must not reach the returned trace."""


def _event_term(pid: int, kind: str, obj: Any, detail: Any) -> int:
    """BLAKE2b-64 of ``repr((pid, kind, obj, detail))``: one event's
    summand in the commutative event digest.  :meth:`Scheduler.log` looks
    the memo up inline and calls this only on a miss or for an event the
    memo cannot hold, so this stays the single definition of a term."""
    detail_type = type(detail)
    if (type(kind) is str and type(obj) is str
            and (detail is None or detail_type is str or detail_type is int)):
        key = (pid, kind, obj, detail, detail_type)
        term = _EVENT_TERMS.get(key)
        if term is not None:
            return term
    else:
        key = None
    term = int.from_bytes(
        hashlib.blake2b(
            repr((pid, kind, obj, detail)).encode(), digest_size=8
        ).digest(),
        "big",
    )
    if key is not None:
        if len(_EVENT_TERMS) >= _EVENT_TERMS_MAX:
            _EVENT_TERMS.clear()
        _EVENT_TERMS[key] = term
    return term


class _TimerEntry:
    """One timer-heap entry.  ``kind`` selects the firing behaviour:

    * ``"sleep"``   — plain :meth:`Scheduler.sleep` wakeup;
    * ``"timeout"`` — timed ``park`` expiry: run the mechanism's
      ``on_fire`` dequeue callback, then deliver :class:`WaitTimeout`
      (unless ``on_fire`` returned ``True``, meaning it re-queued the
      wakeup itself — the monitor does this to re-enter before raising);
    * ``"delayed"`` — a fault-plan-delayed wakeup carrying the original
      wake value in ``payload``.

    Entries are cancelled lazily: normal wakeups set :attr:`cancelled` and
    the heap skips stale entries (cancelled, already-woken, or dead
    processes) when the clock advances.
    """

    __slots__ = ("proc", "kind", "on_fire", "payload", "what", "timeout",
                 "cancelled")

    def __init__(
        self,
        proc: SimProcess,
        kind: str,
        on_fire: Optional[Callable[[], Any]] = None,
        payload: Any = None,
        what: str = "",
        timeout: int = 0,
    ) -> None:
        self.proc = proc
        self.kind = kind
        self.on_fire = on_fire
        self.payload = payload
        self.what = what
        self.timeout = timeout
        self.cancelled = False


class Scheduler:
    """Owns the ready queue, virtual clock, timers, and trace.

    Args:
        policy: scheduling policy; defaults to deterministic FIFO.
        max_steps: hard step budget; exceeding it raises
            :class:`StepLimitExceeded` (livelock guard).
        preemptive: when ``True``, primitives insert extra context-switch
            points via :meth:`checkpoint`, widening the schedule space the
            explorer can reach.
        fault_plan: optional :class:`~repro.runtime.faults.FaultPlan` of
            kills / delays / dropped signals injected into the run.
        sink: optional :class:`~repro.obs.sink.InstrumentationSink` that
            receives every trace event, dispatch step, and mechanism probe.
            A sink whose class sets ``IS_NULL = True`` (the obs layer's
            ``NullSink``) is normalized to ``None`` here, so uninstrumented
            runs execute the identical code path and pay nothing.  Checked
            by duck-typing so the runtime never imports the obs package.
        keep_trace: when ``False``, the scheduler keeps only the last
            :data:`DIAGNOSTIC_TAIL` events (for
            :class:`StepLimitExceeded`); every event still reaches the
            sink, the fingerprint digest and the fault plan, and
            ``trace`` is an :class:`~repro.runtime.trace.UnkeptTrace` that
            raises on any read.  For long runs observed only through a
            sink: memory then follows the system's width, not the run's
            length.
    """

    def __init__(
        self,
        policy: Optional[SchedulingPolicy] = None,
        max_steps: int = 500_000,
        preemptive: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        sink: Optional[Any] = None,
        *,
        keep_trace: bool = True,
    ) -> None:
        self.policy = policy or FIFOPolicy()
        self.policy.reset()
        self.max_steps = max_steps
        self.preemptive = preemptive
        self.fault_plan = fault_plan
        if sink is not None and getattr(sink, "IS_NULL", False):
            sink = None
        self._sink = sink
        self._tail: Optional[deque] = None
        if keep_trace:
            self.trace = Trace()
            self._append_event = self.trace._events.append
        else:
            self.trace = UnkeptTrace()
            self._tail = deque(maxlen=DIAGNOSTIC_TAIL)
            self._append_event = self._tail.append
        self._ready: List[SimProcess] = []
        self._processes: List[SimProcess] = []
        self._timers: list = []  # heap of (deadline, seq, _TimerEntry)
        self._holds: Dict[str, List[SimProcess]] = {}
        self._time = 0
        self._seq = 0
        self._current: Optional[SimProcess] = None
        self._running = False
        self._finished = False
        self._live_nondaemons = 0
        self._park_counter = 0
        # Canonical-state fingerprinting (exploration support).  Disabled
        # until enable_fingerprinting(): ordinary runs pay one is-None test
        # per logged event, nothing more.
        self._fp_digest: Optional[int] = None
        self._fp_providers: List[Callable[[], Any]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual-clock reading."""
        return self._time

    @property
    def seq(self) -> int:
        """Next global sequence number (monotone event counter)."""
        return self._seq

    @property
    def current(self) -> Optional[SimProcess]:
        """The process executing right now (``None`` between steps)."""
        return self._current

    @property
    def processes(self) -> List[SimProcess]:
        """All processes ever spawned, in spawn order."""
        return list(self._processes)

    def wait_graph(self) -> WaitForGraph:
        """Snapshot of the current wait-for relation (see
        :class:`~repro.runtime.faults.WaitForGraph`)."""
        return WaitForGraph.snapshot(self._processes, self._holds)

    # ------------------------------------------------------------------
    # Canonical state fingerprint (exploration support)
    # ------------------------------------------------------------------
    def enable_fingerprinting(self) -> None:
        """Start maintaining the commutative event digest that
        :meth:`fingerprint` folds in.  Called once (idempotent) by
        exploration policies before the first scheduling decision; events
        logged earlier (the initial spawns) are identical across replays of
        the same system, so omitting them never conflates distinct states."""
        if self._fp_digest is None:
            self._fp_digest = 0

    def disable_fingerprinting(self) -> None:
        """Stop maintaining the event digest for the rest of the run: later
        events fold no digest term.  An exploration policy calls this once
        it will take no further snapshot; :meth:`fingerprint` must not be
        read after it."""
        self._fp_digest = None

    def add_fingerprint_provider(self, fn: Callable[[], Any]) -> None:
        """Register a zero-argument snapshot of *shared user state* (buffer
        contents, counters...) to fold into :meth:`fingerprint`.  Mechanism
        state is already visible to the scheduler (queues, holds, timers,
        event digest); providers close the gap for state the mechanisms do
        not log.  The returned value is captured via ``repr``, so any
        printable structure works."""
        self._fp_providers.append(fn)

    def fingerprint(self) -> int:
        """A 64-bit canonical digest of the *scheduler-visible* state:

        * the runnable set, in ready-queue order;
        * every process's lifecycle coordinates (state, step count, what it
          is blocked on) plus the relative park order of blocked processes
          (recovering mechanism FIFO queue order);
        * the hold registry and live timer deltas;
        * a commutative (order-insensitive) digest of all events logged
          since fingerprinting was enabled — interleavings that are
          permutations of the same events converge, dependent interleavings
          diverge;
        * registered fingerprint providers (shared user state).

        Two prefixes with equal fingerprints have behaviourally identical
        continuations (see DESIGN.md §9 for the soundness argument), which
        is what lets the exploration engine visit each equivalence class of
        interleavings once.  Uses BLAKE2b, not ``hash()``, so digests agree
        across processes regardless of ``PYTHONHASHSEED``.
        """
        # One pass builds the per-process tuples and the park order; the
        # payload is byte-identical to building each component separately.
        procs = []
        parked = []
        for p in self._processes:
            state = p.state
            procs.append((p.pid, state._value_, p.steps, p.blocked_on or "",
                          str(p.wait_obj or ""), p.daemon))
            if state is _BLOCKED:
                parked.append((p.park_seq, p.pid))
        parked.sort()
        ready = tuple(p.pid for p in self._ready)
        park_order = tuple(pid for __, pid in parked)
        holds = tuple(sorted(
            (resource, tuple(sorted(p.pid for p in holders)))
            for resource, holders in self._holds.items()
            if holders
        )) if self._holds else ()
        timers = tuple(sorted(
            (deadline - self._time, entry.proc.pid, entry.kind)
            for deadline, __, entry in self._timers
            if not entry.cancelled
            and entry.proc.state is _BLOCKED
        )) if self._timers else ()
        extra = tuple(repr(fn()) for fn in self._fp_providers)
        # Absolute virtual time is state for timed problems (alarm clock
        # deadlines are clock-relative); untimed problems stay at t=0, so
        # including it never costs them a merge.
        payload = repr((self._time, ready, tuple(procs), park_order, holds,
                        timers, self._fp_digest, extra)).encode()
        return int.from_bytes(
            hashlib.blake2b(payload, digest_size=8).digest(), "big"
        )

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        body: Callable[..., Generator],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> SimProcess:
        """Create a process from a generator function and make it runnable.

        ``body(*args)`` must return a generator.  Processes may spawn other
        processes while running.  ``daemon`` processes (forever-looping
        servers) do not keep the run alive: :meth:`run` returns once every
        non-daemon process has finished.
        """
        if self._finished:
            raise SchedulerStateError("cannot spawn after the run completed")
        generator = body(*args)
        if not hasattr(generator, "send"):
            raise SchedulerStateError(
                "process body {!r} is not a generator function".format(body)
            )
        pid = len(self._processes)
        proc = SimProcess(pid, name or "P{}".format(pid), generator, daemon)
        self._processes.append(proc)
        proc.state = ProcessState.READY
        proc.arrival = self._seq
        if not daemon:
            self._live_nondaemons += 1
        self._ready.append(proc)
        self.log("spawn", proc.name, proc=proc)
        return proc

    def kill(
        self,
        proc: SimProcess,
        exc: Optional[BaseException] = None,
        why: str = "",
    ) -> None:
        """Terminate ``proc`` abruptly, running its registered cleanups.

        The crash sequence is: mark the process FAILED, run the cleanup
        callbacks mechanisms registered (LIFO — innermost construct first),
        then close the generator so the body's ``finally`` blocks run with
        their resources already released.  Cleanup or close errors are
        recorded in the trace, never raised: a crash must not crash the
        scheduler.
        """
        if proc is self._current:
            raise SchedulerStateError(
                "a process cannot kill itself mid-step; raise instead"
            )
        if not proc.alive:
            raise SchedulerStateError(
                "kill of already-finished process {!r}".format(proc.name)
            )
        if exc is None:
            exc = ProcessKilled(proc.name, why)
        if proc in self._ready:
            self._ready.remove(proc)
        if not proc.daemon:
            self._live_nondaemons -= 1
        proc.fail(exc)
        proc.blocked_on = None
        self.log("killed", proc.name, why or repr(exc), proc=proc)
        self._run_cleanups(proc)
        proc.wait_obj = None
        try:
            proc.close_body()
        except BaseException as close_exc:  # noqa: BLE001 - body finally bug
            self.log("kill_error", proc.name, repr(close_exc), proc=proc)

    # ------------------------------------------------------------------
    # Crash-cleanup registry (used by the mechanisms)
    # ------------------------------------------------------------------
    def register_cleanup(
        self,
        key: Any,
        fn: Callable[[SimProcess], None],
        proc: Optional[SimProcess] = None,
    ) -> None:
        """Register ``fn`` to run if ``proc`` (default: current) dies
        abnormally.  Mechanisms pair this with :meth:`unregister_cleanup`
        around every hold/wait so a dead process never strands survivors.
        Callbacks must not block; errors are logged, not raised."""
        target = proc if proc is not None else self._current
        if target is None:
            raise SchedulerStateError("register_cleanup outside a process")
        target.cleanups.append((key, fn))

    def unregister_cleanup(
        self, key: Any, proc: Optional[SimProcess] = None
    ) -> None:
        """Remove the most recent cleanup registered under ``key``.

        Tolerant of absence: a cleanup that already ran (the process is
        being killed and a body ``finally`` re-unregisters) is a no-op.
        """
        target = proc if proc is not None else self._current
        if target is None:
            return
        for index in range(len(target.cleanups) - 1, -1, -1):
            if target.cleanups[index][0] == key:
                del target.cleanups[index]
                return

    def _run_cleanups(self, proc: SimProcess) -> None:
        while proc.cleanups:
            key, fn = proc.cleanups.pop()
            try:
                fn(proc)
            except Exception as exc:  # noqa: BLE001 - cleanup bug
                self.log("cleanup_error", str(key), repr(exc), proc=proc)

    # ------------------------------------------------------------------
    # Hold registry (wait-for-graph bookkeeping)
    # ------------------------------------------------------------------
    def note_hold(
        self, resource: str, proc: Optional[SimProcess] = None
    ) -> None:
        """Record that ``proc`` (default: current) now holds ``resource``
        (a label like ``"mutex m"``).  Purely diagnostic — powers the
        wait-for graph; never affects scheduling."""
        target = proc if proc is not None else self._current
        if target is not None:
            self._holds.setdefault(resource, []).append(target)

    def note_release(
        self,
        resource: str,
        proc: Optional[SimProcess] = None,
        fallback_oldest: bool = False,
    ) -> None:
        """Forget one hold of ``resource`` by ``proc`` (default: current).

        ``fallback_oldest`` releases the longest-standing holder when the
        releaser is not itself recorded — the right attribution for
        token-passing semaphore patterns, where the V-er acquired a
        *different* semaphore than it releases.
        """
        holders = self._holds.get(resource)
        if not holders:
            return
        target = proc if proc is not None else self._current
        if target in holders:
            holders.remove(target)
        elif fallback_oldest:
            holders.pop(0)

    def holders_of(self, resource: str) -> List[str]:
        """Names of the recorded holders of ``resource`` (may include dead
        processes)."""
        return [p.name for p in self._holds.get(resource, [])]

    def hold_count(self, resource: str, proc: SimProcess) -> int:
        """How many holds of ``resource`` are recorded for exactly ``proc``
        (by identity, so a dead incarnation's holds stay attributable).
        Lease reclamation uses this to revoke a corpse's holds."""
        return sum(1 for h in self._holds.get(resource, []) if h is proc)

    # ------------------------------------------------------------------
    # Blocking services (used by primitives, via ``yield from``)
    # ------------------------------------------------------------------
    def park(
        self,
        reason: str,
        obj: str = "",
        timeout: Optional[int] = None,
        on_timeout: Optional[Callable[[], Any]] = None,
        resource: Optional[str] = None,
    ) -> Generator:
        """Suspend the current process until :meth:`unpark`.

        Must be delegated to with ``yield from``.  Returns the value passed
        to :meth:`unpark` (used e.g. to hand a monitor's possession token to
        a signalled process).

        Args:
            timeout: maximum *virtual-time* wait; expiry raises
                :class:`WaitTimeout` in the parked process.
            on_timeout: mechanism callback run when the timer fires, used to
                dequeue the caller so no later signal targets a process that
                gave up.  Returning ``True`` suppresses the immediate
                :class:`WaitTimeout` delivery (the callback re-queued the
                wakeup itself).
            resource: wait-for-graph label of what is awaited (defaults to
                ``obj``).
        """
        proc = self._current
        if proc is None:
            raise SchedulerStateError("park called outside a running process")
        proc.state = ProcessState.BLOCKED
        proc.blocked_on = reason
        proc.wait_obj = resource or obj or reason
        proc.park_seq = self._park_counter
        self._park_counter += 1
        entry = None
        if timeout is not None:
            if timeout <= 0:
                raise ValueError("park timeout must be positive")
            entry = _TimerEntry(
                proc, "timeout", on_fire=on_timeout,
                what=proc.wait_obj, timeout=timeout,
            )
            heapq.heappush(
                self._timers, (self._time + timeout, self._next_seq(), entry)
            )
        # The reason rides along as detail: the causal analyses classify
        # waits by it ("enter(m)" vs "wait(m.c)" vs "P(s)"...), and obj
        # alone does not distinguish an entry wait from a condition wait.
        self.log("blocked", obj or reason, reason)
        value = yield
        if entry is not None:
            entry.cancelled = True  # normal wakeup: the timer is now stale
        if isinstance(value, _Failure):
            raise value.exc
        return value

    def unpark(self, proc: SimProcess, value: Any = None) -> None:
        """Make a parked process runnable, delivering ``value`` to it.

        A fault plan may delay the delivery (the process stays blocked and a
        timer completes the wakeup later)."""
        if proc.state is not ProcessState.BLOCKED:
            raise SchedulerStateError(
                "unpark of non-blocked process {!r}".format(proc.name)
            )
        if self.fault_plan is not None:
            delay = self.fault_plan.wake_delay(proc.name)
            if delay > 0:
                entry = _TimerEntry(proc, "delayed", payload=value)
                heapq.heappush(
                    self._timers, (self._time + delay, self._next_seq(), entry)
                )
                self.log("wake_delayed", proc.name, delay)
                return
        self._wake(proc, value)

    def _wake(self, proc: SimProcess, value: Any = None) -> None:
        """Deliver a wakeup immediately (bypasses fault-plan delays)."""
        proc.state = ProcessState.READY
        proc.blocked_on = None
        proc.wait_obj = None
        proc.set_wake_value(value)
        self._ready.append(proc)
        self.log("unblocked", proc.name)

    def checkpoint(self) -> Generator:
        """An optional context-switch point (no-op unless ``preemptive``)."""
        if self.preemptive:
            yield

    def sleep(self, ticks: int) -> Generator:
        """Suspend the current process for ``ticks`` units of virtual time."""
        if ticks <= 0:
            yield from self.checkpoint()
            return
        proc = self._current
        if proc is None:
            raise SchedulerStateError("sleep called outside a running process")
        deadline = self._time + ticks
        heapq.heappush(
            self._timers,
            (deadline, self._next_seq(), _TimerEntry(proc, "sleep")),
        )
        proc.state = ProcessState.BLOCKED
        proc.blocked_on = "sleep({})".format(ticks)
        proc.wait_obj = "timer"
        proc.park_seq = self._park_counter
        self._park_counter += 1
        yield

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def fault_drop(self, obj: str) -> bool:
        """Consulted by V/signal sites: True when the active fault plan
        wants this signal to vanish.  The call site logs the drop and simply
        returns without waking anyone."""
        return self.fault_plan is not None and self.fault_plan.should_drop(obj)

    def _find_alive(self, name: str) -> Optional[SimProcess]:
        for proc in self._processes:
            if proc.name == name and proc.alive:
                return proc
        return None

    def _fire_pending_faults(self) -> None:
        """Kill processes doomed by entry triggers or due time-based kills.
        Runs every loop iteration so even *blocked* processes die on cue."""
        plan = self.fault_plan
        for fault in plan.time_kills_due(self._time):
            victim = self._find_alive(fault.process)
            if victim is not None and victim is not self._current:
                self.kill(victim, why=fault.describe())
        for name in plan.take_doomed():
            victim = self._find_alive(name)
            if victim is not None and victim is not self._current:
                self.kill(victim, why="entered fault point")

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def log(
        self,
        kind: str,
        obj: str = "",
        detail: Any = None,
        proc: Optional[SimProcess] = None,
    ) -> Event:
        """Append an event to the trace, attributed to ``proc`` (default:
        the current process)."""
        actor = proc if proc is not None else self._current
        if actor is not None:
            pid = actor.pid
            pname = actor.name
        else:
            pid = -1
            pname = "<sched>"
        seq = self._seq
        self._seq = seq + 1
        event = _new_tuple(
            Event, (seq, self._time, pid, pname, kind, obj, detail)
        )
        self._append_event(event)
        digest = self._fp_digest
        if digest is not None:
            # Commutative (addition mod 2^64) so permutations of the same
            # event multiset — i.e. reorderings of independent steps —
            # produce the same digest.  seq/time are deliberately excluded:
            # they are positional, not state.  The memo test mirrors the
            # one in _event_term, which handles every other case.
            detail_type = type(detail)
            term = None
            if (type(kind) is str and type(obj) is str
                    and (detail is None or detail_type is str
                         or detail_type is int)):
                term = _EVENT_TERMS.get((pid, kind, obj, detail, detail_type))
            if term is None:
                term = _event_term(pid, kind, obj, detail)
            self._fp_digest = (digest + term) & _MASK64
        if self._sink is not None:
            self._sink.on_event(event)
        if self.fault_plan is not None and actor is not None:
            self.fault_plan.observe(pname, kind, obj)
        return event

    def probe(self, category: str, obj: str, value: Any) -> None:
        """Publish a mechanism gauge sample (queue depth, crowd size...) to
        the attached sink.  Free when no sink is attached — mechanisms call
        this unconditionally from their queue-mutation sites."""
        if self._sink is not None:
            self._sink.on_probe(category, obj, value, self._seq, self._time)

    def _next_seq(self) -> int:
        value = self._seq
        self._seq += 1
        return value

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(
        self,
        on_deadlock: str = "raise",
        on_error: str = "raise",
        on_steplimit: str = "raise",
    ) -> RunResult:
        """Execute until every process finishes (or deadlock / step limit).

        Args:
            on_deadlock: ``"raise"`` (default) raises :class:`DeadlockError`;
                ``"return"`` ends the run with ``RunResult.deadlocked=True``
                (used by experiment E7, which *wants* the deadlock, and by
                the chaos explorer).
            on_error: ``"raise"`` wraps a failing process body in
                :class:`ProcessFailed`; ``"record"`` marks the process FAILED
                and keeps going.  Either way the failed process's registered
                crash cleanups run, so survivors keep their locks consistent.
            on_steplimit: ``"raise"`` (default) raises
                :class:`StepLimitExceeded` when the step budget runs out;
                ``"return"`` ends the run with ``RunResult.step_limited=True``
                and the ready-queue snapshot in ``RunResult.ready``, so the
                chaos classifiers can tell a livelock (still runnable) from a
                timer-churning wedge (nothing runnable).

        Returns:
            A :class:`RunResult` with the trace and per-process results.
        """
        if self._running:
            raise SchedulerStateError("run() is not reentrant")
        self._running = True
        # Loop invariants, read once: none of these is rebound mid-run.
        fault_plan = self.fault_plan
        sink = self._sink
        ready = self._ready
        choose = self.policy.choose
        max_steps = self.max_steps
        BLOCKED = ProcessState.BLOCKED
        RUNNING = ProcessState.RUNNING
        READY = ProcessState.READY
        DONE = ProcessState.DONE
        if fault_plan is not None:
            fault_plan.begin()
        steps = 0
        deadlocked = False
        step_limited = False
        ready_names: List[str] = []
        graph: Optional[WaitForGraph] = None
        # Exploration policies implement observe_state(scheduler) to capture
        # the canonical fingerprint at every decision point; plain policies
        # don't define it and pay nothing (hook resolved once, not per step).
        observe_state = getattr(self.policy, "observe_state", None)
        try:
            while True:
                if steps >= max_steps:
                    if on_steplimit == "return":
                        step_limited = True
                        ready_names = [p.name for p in ready]
                        break
                    raise StepLimitExceeded(
                        "exceeded {} scheduling steps".format(max_steps),
                        recent_events=(self.trace[-DIAGNOSTIC_TAIL:]
                                       if self._tail is None
                                       else self._tail),
                        ready=[p.name for p in ready],
                    )
                if fault_plan is not None:
                    self._fire_pending_faults()
                if self._live_nondaemons == 0:
                    break  # only daemons remain; the run is over
                if not ready:
                    if self._timers:
                        self._advance_clock()
                        continue
                    blocked = [
                        p for p in self._processes if p.state is BLOCKED
                    ]
                    if blocked:
                        graph = self.wait_graph()
                        if on_deadlock == "return":
                            deadlocked = True
                            break
                        raise DeadlockError(blocked, graph)
                    break  # everything finished
                if observe_state is not None:
                    observe_state(self)
                proc = ready.pop(choose(ready))
                if fault_plan is not None:
                    fault = fault_plan.kill_due(
                        proc.name, proc.steps, self._time
                    )
                    if fault is not None:
                        self.kill(proc, why=fault.describe())
                        steps += 1
                        continue
                proc.state = RUNNING
                self._current = proc
                if sink is not None:
                    sink.on_step(proc, self._seq, self._time)
                try:
                    alive = proc.step()
                except Exception as exc:  # noqa: BLE001 - process body failure
                    proc.kill(exc)
                    self.log("failed", proc.name, repr(exc), proc=proc)
                    if not proc.daemon:
                        self._live_nondaemons -= 1
                    self._current = None
                    self._run_cleanups(proc)
                    if on_error == "raise":
                        raise ProcessFailed(proc, exc) from exc
                    alive = False
                finally:
                    self._current = None
                proc.steps += 1
                if alive and proc.state is RUNNING:
                    proc.state = READY
                    ready.append(proc)
                elif not alive and proc.state is DONE:
                    if not proc.daemon:
                        self._live_nondaemons -= 1
                    self.log("exit", proc.name, proc=proc)
                steps += 1
        finally:
            self._running = False
            self._finished = True
            self._append_event = _discard
            self._sink = None
        results = {
            p.name: p.result for p in self._processes if p.state is DONE
        }
        blocked_names = [
            p.name
            for p in self._processes
            if p.state is BLOCKED and not p.daemon
        ]
        result = RunResult(
            trace=self.trace,
            deadlocked=deadlocked,
            blocked=blocked_names,
            steps=steps,
            time=self._time,
            results=results,
            proc_steps={p.name: p.steps for p in self._processes},
            graph=graph,
            step_limited=step_limited,
            ready=ready_names,
        )
        if sink is not None:
            sink.on_run_end(result)
        return result

    def _advance_clock(self) -> None:
        """Jump virtual time to the earliest *live* timer and fire
        everything due.

        Stale entries — cancelled by a normal wakeup, or belonging to a
        process that is no longer BLOCKED (already woken, killed, or
        finished) — are discarded without waking anyone: a process that was
        already unparked must never be woken a second time by its leftover
        timer.
        """
        while self._timers:
            __, __, entry = self._timers[0]
            if entry.cancelled or entry.proc.state is not ProcessState.BLOCKED:
                heapq.heappop(self._timers)
                continue
            break
        if not self._timers:
            return
        deadline = self._timers[0][0]
        self._time = deadline
        while self._timers and self._timers[0][0] == deadline:
            __, __, entry = heapq.heappop(self._timers)
            proc = entry.proc
            if entry.cancelled or proc.state is not ProcessState.BLOCKED:
                continue  # stale: woken or killed before the deadline
            if entry.kind == "sleep":
                proc.state = ProcessState.READY
                proc.blocked_on = None
                proc.wait_obj = None
                self._ready.append(proc)
                self.log("unblocked", proc.name, "timer", proc=proc)
            elif entry.kind == "timeout":
                handled = entry.on_fire() if entry.on_fire is not None else None
                self.log("timeout", entry.what, entry.timeout, proc=proc)
                if handled is not True:
                    self._wake(
                        proc, _Failure(WaitTimeout(entry.what, entry.timeout))
                    )
            else:  # "delayed" — a fault-plan-postponed wakeup
                self._wake(proc, entry.payload)


def run_processes(
    *bodies,
    policy: Optional[SchedulingPolicy] = None,
    names: Optional[List[str]] = None,
    on_deadlock: str = "raise",
    on_error: str = "raise",
    on_steplimit: str = "raise",
    max_steps: int = 500_000,
    preemptive: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    sink: Optional[Any] = None,
) -> RunResult:
    """Convenience wrapper: spawn each generator-returning thunk and run.

    Each element of ``bodies`` must be a zero-argument callable returning a
    generator (use closures or ``functools.partial`` to bind arguments).
    All :class:`Scheduler` and :meth:`Scheduler.run` knobs are plumbed
    through, so callers never need to hand-build a scheduler just to set
    ``preemptive``, ``on_error``, a fault plan, or an instrumentation sink.
    """
    sched = Scheduler(
        policy=policy,
        max_steps=max_steps,
        preemptive=preemptive,
        fault_plan=fault_plan,
        sink=sink,
    )
    for i, body in enumerate(bodies):
        name = names[i] if names else None
        sched.spawn(body, name=name)
    return sched.run(
        on_deadlock=on_deadlock, on_error=on_error, on_steplimit=on_steplimit
    )
