"""Fault injection and deadlock diagnosis (substrate S1's adversary).

The paper evaluates whether a mechanism keeps a resource's constraints
intact; this module lets the runtime *provoke* the adverse conditions the
evaluation cares about instead of waiting for scheduling to produce them:

* :class:`FaultPlan` — a declarative script of faults, wired into
  :meth:`Scheduler.run`:

  - ``kill(P, at_step=N)``     — kill process P before its Nth step;
  - ``kill(P, on_entry=obj)``  — kill P right after it enters object ``obj``
    (a mutex, monitor, serializer, channel, or resource operation), i.e.
    *inside* the construct;
  - ``kill(P, at_time=T)``     — kill P once virtual time reaches T, even if
    it is blocked;
  - ``delay_wakeups(P, ticks)`` — every wakeup of P is delivered ``ticks``
    units of virtual time late (models a slow or descheduled process);
  - ``drop_signal(obj, nth)``  — the nth ``V``/``signal`` on ``obj``
    vanishes (models a lost wakeup).

* :class:`WaitForGraph` — the diagnosis :class:`~repro.runtime.errors.
  DeadlockError` carries: who holds what, who waits on what, cycles rendered
  as ``P1 -> mutex m -> P2 -> condition c -> P1``, and every dead process
  with the resources it took to its grave.

Plans are deterministic and replayable: a (policy, plan) pair fully
determines a run, which is what lets :mod:`repro.verify.chaos` enumerate
schedules *and* fault points together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Event kinds that mean "the acting process just entered the named object".
#: ``kill(P, on_entry=obj)`` triggers on any of these; the kill lands before
#: P's next step, i.e. while it is inside the object.
ENTRY_KINDS = frozenset((
    "enter",        # monitor / serializer possession
    "acquire",      # mutex
    "sem_p",        # semaphore permit
    "op_start",     # path-controlled resource operation
    "join_crowd",   # serializer crowd
    "send",         # channel communication completed
    "recv",
))


@dataclass
class Fault:
    """One scripted fault.  Constructed via the :class:`FaultPlan` builder
    methods rather than directly."""

    action: str                       # "kill" | "delay" | "drop"
    process: Optional[str] = None     # target process name (kill / delay)
    at_step: Optional[int] = None     # kill before the target's Nth step
    on_entry: Optional[str] = None    # kill after entering this object
    at_time: Optional[int] = None     # kill once virtual time reaches this
    ticks: int = 0                    # delay amount (delay)
    obj: Optional[str] = None         # drop target object name (drop)
    nth: int = 1                      # drop the nth signal on obj (1-based)
    fired: bool = False

    def describe(self) -> str:
        if self.action == "kill":
            if self.at_step is not None:
                where = "at step {}".format(self.at_step)
            elif self.on_entry is not None:
                where = "on entry to {}".format(self.on_entry)
            else:
                where = "at time {}".format(self.at_time)
            return "kill {} {}".format(self.process, where)
        if self.action == "delay":
            return "delay wakeups of {} by {} ticks".format(
                self.process, self.ticks)
        return "drop signal #{} on {}".format(
            self.nth, "any object" if self.obj == "*" else self.obj)

    def to_dict(self) -> Dict[str, Any]:
        """Portable form (runtime state — ``fired`` — excluded)."""
        out: Dict[str, Any] = {"action": self.action}
        for key in ("process", "at_step", "on_entry", "at_time", "obj"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.action == "delay":
            out["ticks"] = self.ticks
        if self.action == "drop":
            out["nth"] = self.nth
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":
        return cls(
            action=data["action"],
            process=data.get("process"),
            at_step=data.get("at_step"),
            on_entry=data.get("on_entry"),
            at_time=data.get("at_time"),
            ticks=int(data.get("ticks", 0)),
            obj=data.get("obj"),
            nth=int(data.get("nth", 1)),
        )


class FaultPlan:
    """A deterministic script of faults, consulted by the scheduler.

    Build with the chaining methods, pass to ``Scheduler(fault_plan=...)``
    or ``run_processes(..., fault_plan=...)``::

        plan = (FaultPlan()
                .kill("W1", on_entry="db.mon")
                .drop_signal("ok_to_read", nth=2))

    One plan instance may be reused across runs (the explorer does): the
    scheduler calls :meth:`begin` before each run to reset fired-flags and
    counters.
    """

    def __init__(self) -> None:
        self.faults: List[Fault] = []
        self._doomed: List[str] = []
        self._drop_counts: Dict[int, int] = {}  # fault index -> signals seen

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def kill(
        self,
        process: str,
        at_step: Optional[int] = None,
        on_entry: Optional[str] = None,
        at_time: Optional[int] = None,
    ) -> "FaultPlan":
        """Schedule the death of ``process`` (exactly one coordinate)."""
        coords = [at_step, on_entry, at_time]
        if sum(c is not None for c in coords) != 1:
            raise ValueError(
                "kill() needs exactly one of at_step / on_entry / at_time"
            )
        self.faults.append(Fault(
            "kill", process=process,
            at_step=at_step, on_entry=on_entry, at_time=at_time,
        ))
        return self

    def delay_wakeups(self, process: str, ticks: int) -> "FaultPlan":
        """Deliver every wakeup of ``process`` ``ticks`` late.

        ``process="*"`` delays every process — a uniform synthetic slowdown
        (what ``repro regress --inject-delay`` uses to prove the gate
        trips)."""
        if ticks <= 0:
            raise ValueError("delay must be positive")
        self.faults.append(Fault("delay", process=process, ticks=ticks))
        return self

    def drop_signal(self, obj: str, nth: int = 1) -> "FaultPlan":
        """Make the ``nth`` V/signal on object ``obj`` vanish (1-based).

        ``obj="*"`` counts every V/signal regardless of object — the nth
        wakeup *anywhere* vanishes.  Each fault keeps its own counter, so
        a wildcard and an exact entry never interfere."""
        if nth < 1:
            raise ValueError("nth is 1-based")
        self.faults.append(Fault("drop", obj=obj, nth=nth))
        return self

    # ------------------------------------------------------------------
    # Runtime hooks (called by the scheduler)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Reset per-run state so the plan can be replayed."""
        for f in self.faults:
            f.fired = False
        self._doomed = []
        self._drop_counts = {}

    def kill_due(self, pname: str, steps: int, now: int) -> Optional[Fault]:
        """The first unfired kill fault due for ``pname`` about to run its
        next step (``steps`` completed so far) at virtual time ``now``."""
        for f in self.faults:
            if f.action != "kill" or f.fired or f.process != pname:
                continue
            if f.at_step is not None and steps >= f.at_step:
                f.fired = True
                return f
            if f.at_time is not None and now >= f.at_time:
                f.fired = True
                return f
        return None

    def time_kills_due(self, now: int) -> List[Fault]:
        """Unfired ``at_time`` kills due at ``now`` — checked every loop
        iteration so even a *blocked* process can die on schedule."""
        due = []
        for f in self.faults:
            if (f.action == "kill" and not f.fired
                    and f.at_time is not None and now >= f.at_time):
                f.fired = True
                due.append(f)
        return due

    def observe(self, pname: str, kind: str, obj: str) -> None:
        """Watch the event stream for ``on_entry`` triggers."""
        if kind not in ENTRY_KINDS:
            return
        for f in self.faults:
            if (f.action == "kill" and not f.fired
                    and f.on_entry is not None
                    and f.process == pname and f.on_entry == obj):
                f.fired = True
                self._doomed.append(pname)

    def take_doomed(self) -> List[str]:
        """Processes marked for death by ``on_entry`` triggers (drained)."""
        doomed, self._doomed = self._doomed, []
        return doomed

    def wake_delay(self, pname: str) -> int:
        """Extra ticks to delay a wakeup of ``pname`` (0 = deliver now)."""
        total = 0
        for f in self.faults:
            if f.action == "delay" and f.process in (pname, "*"):
                total += f.ticks
        return total

    def should_drop(self, obj: str) -> bool:
        """Consulted by V/signal sites: True when this signal must vanish.

        Counters are per-fault (keyed by the fault's position in the
        plan): every drop entry matching ``obj`` — exactly or via the
        ``"*"`` wildcard — advances its own count, and the signal vanishes
        if any unfired entry just reached its ``nth``."""
        drop = False
        for idx, f in enumerate(self.faults):
            if f.action != "drop" or f.obj not in (obj, "*"):
                continue
            count = self._drop_counts.get(idx, 0) + 1
            self._drop_counts[idx] = count
            if not f.fired and f.nth == count:
                f.fired = True
                drop = True
        return drop

    def describe(self) -> List[str]:
        """Human-readable rendering of every scripted fault."""
        return [f.describe() for f in self.faults]

    # ------------------------------------------------------------------
    # Serialization (run store / witness persistence)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-portable form of the *script* (no runtime state): a plan
        round-trips through ``FaultPlan.from_dict(plan.to_dict())`` into an
        exactly-replayable equal script."""
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        plan = cls()
        plan.faults = [Fault.from_dict(f) for f in data.get("faults", [])]
        return plan

    def __repr__(self) -> str:
        return "<FaultPlan [{}]>".format("; ".join(self.describe()))


# ----------------------------------------------------------------------
# Wait-for graph
# ----------------------------------------------------------------------
@dataclass
class WaitForGraph:
    """The wait-for relation at the moment a run wedged.

    Attributes:
        waits: ``process name -> resource label`` it is parked on.
        holds: ``resource label -> holder names`` (insertion order; a label
            like ``"mutex m"`` or ``"monitor db.mon"``).
        dead: ``process name -> resource labels it still held when it died``
            (empty list when it held nothing).
    """

    waits: Dict[str, str] = field(default_factory=dict)
    holds: Dict[str, List[str]] = field(default_factory=dict)
    dead: Dict[str, List[str]] = field(default_factory=dict)

    @classmethod
    def snapshot(cls, processes, holds) -> "WaitForGraph":
        """Build from live scheduler state: ``processes`` are
        :class:`SimProcess` instances, ``holds`` maps resource label to a
        list of holder processes."""
        graph = cls()
        for p in processes:
            if p.state.value == "blocked" and p.wait_obj:
                graph.waits[p.name] = p.wait_obj
        for label, holders in holds.items():
            names = [h.name for h in holders]
            if names:
                graph.holds[label] = names
        for p in processes:
            if p.state.value == "failed":
                graph.dead[p.name] = [
                    label for label, holders in holds.items()
                    if any(h is p for h in holders)
                ]
        return graph

    # ------------------------------------------------------------------
    def edges_from(self, pname: str) -> List[Tuple[str, str]]:
        """``(resource, holder)`` pairs one hop from ``pname``."""
        resource = self.waits.get(pname)
        if resource is None:
            return []
        return [(resource, h) for h in self.holds.get(resource, [])]

    def cycles(self) -> List[List[str]]:
        """Every distinct wait-for cycle, as alternating
        ``[proc, resource, proc, resource, ...]`` node lists (first process
        repeated implicitly)."""
        found: List[List[str]] = []
        seen_keys = set()
        for start in self.waits:
            path: List[str] = []
            node = start
            visited = {}
            while node is not None and node not in visited:
                visited[node] = len(path)
                resource = self.waits.get(node)
                if resource is None:
                    break
                path.extend([node, resource])
                holders = self.holds.get(resource, [])
                node = holders[0] if holders else None
            else:
                if node is not None:  # cycle closes at `node`
                    cycle = path[visited[node]:]
                    key = frozenset(cycle)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        found.append(cycle)
        return found

    def _decorate(self, pname: str) -> str:
        return pname + "[dead]" if pname in self.dead else pname

    def render(self) -> str:
        """Multi-line diagnosis: per-process wait chains, cycles, and the
        dead with what they still hold."""
        lines: List[str] = []
        for pname in sorted(self.waits):
            resource = self.waits[pname]
            holders = self.holds.get(resource, [])
            chain = "{} -> {}".format(self._decorate(pname), resource)
            if holders:
                chain += " -> " + ", ".join(
                    self._decorate(h) for h in holders
                )
            lines.append("  waits: " + chain)
        for cycle in self.cycles():
            rendered = " -> ".join(
                self._decorate(n) if i % 2 == 0 else n
                for i, n in enumerate(cycle)
            )
            lines.append("  cycle: {} -> {}".format(
                rendered, self._decorate(cycle[0])
            ))
        for pname in sorted(self.dead):
            held = self.dead[pname]
            lines.append("  dead:  {} (held: {})".format(
                pname, ", ".join(held) if held else "nothing"
            ))
        if not lines:
            return ""
        return "wait-for graph:\n" + "\n".join(lines)


class _Failure:
    """Wake-value wrapper: ``park`` raises the wrapped exception instead of
    returning.  How :class:`WaitTimeout` and :class:`PeerFailed` are
    delivered to a parked process."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<_Failure {!r}>".format(self.exc)


def deliver(exc: BaseException) -> Any:
    """Public helper: build a wake value that makes ``park`` raise ``exc``.

    Mechanisms use this with :meth:`Scheduler.unpark` to propagate a failure
    into a parked process (e.g. a channel delivering :class:`PeerFailed`)."""
    return _Failure(exc)
