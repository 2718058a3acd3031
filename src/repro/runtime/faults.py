"""Fault injection and deadlock diagnosis (substrate S1's adversary).

The paper evaluates whether a mechanism keeps a resource's constraints
intact; this module lets the runtime *provoke* the adverse conditions the
evaluation cares about instead of waiting for scheduling to produce them:

* :class:`FaultPlan` — a declarative script of faults, wired into
  :meth:`Scheduler.run`:

  - ``kill(P, at_step=N)``     — kill process P before its Nth step (with
    ``Scheduler(preemptive=True)`` every checkpoint is a step, so a step
    count can land *inside* a construct);
  - ``kill(P, at_time=T)``     — kill P once virtual time reaches T, even if
    it is blocked;
  - ``delay_wakeups(P, ticks)`` — every wakeup of P is delivered ``ticks``
    units of virtual time late (models a slow or descheduled process).

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

#: The keys each fault action's portable form may carry.
_KEYS = {
    "kill": frozenset(("action", "process", "at_step", "at_time")),
    "delay": frozenset(("action", "process", "ticks")),
}


@dataclass
class Fault:
    """One scripted fault.  Constructed via the :class:`FaultPlan` builder
    methods rather than directly."""

    action: str                       # "kill" | "delay"
    process: str                      # target process name
    at_step: Optional[int] = None     # kill before the target's Nth step
    at_time: Optional[int] = None     # kill once virtual time reaches this
    ticks: int = 0                    # delay amount (delay)
    fired: bool = False

    def describe(self) -> str:
        if self.action == "kill":
            if self.at_step is not None:
                where = "at step {}".format(self.at_step)
            else:
                where = "at time {}".format(self.at_time)
            return "kill {} {}".format(self.process, where)
        return "delay wakeups of {} by {} ticks".format(
            self.process, self.ticks)

    def to_dict(self) -> Dict[str, Any]:
        """Portable form (runtime state — ``fired`` — excluded)."""
        out: Dict[str, Any] = {"action": self.action, "process": self.process}
        for key in ("at_step", "at_time"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.action == "delay":
            out["ticks"] = self.ticks
        return out


class FaultPlan:
    """A deterministic script of faults, consulted by the scheduler.

    Build with the chaining methods and pass to
    ``Scheduler(fault_plan=...)``::

        plan = (FaultPlan()
                .kill("W1", at_step=2)
                .delay_wakeups("R0", ticks=3))

    One plan instance may be reused across runs (the explorer does): the
    scheduler calls :meth:`begin` before each run to reset fired-flags.
    """

    def __init__(self) -> None:
        self.faults: List[Fault] = []

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def kill(
        self,
        process: str,
        at_step: Optional[int] = None,
        at_time: Optional[int] = None,
    ) -> "FaultPlan":
        """Schedule the death of ``process`` (exactly one coordinate)."""
        if (at_step is None) == (at_time is None):
            raise ValueError("kill() needs exactly one of at_step / at_time")
        self.faults.append(Fault(
            "kill", process=process, at_step=at_step, at_time=at_time,
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

    # ------------------------------------------------------------------
    # Runtime hooks (called by the scheduler)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Reset per-run state so the plan can be replayed."""
        for f in self.faults:
            f.fired = False

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

    def wake_delay(self, pname: str) -> int:
        """Extra ticks to delay a wakeup of ``pname`` (0 = deliver now)."""
        total = 0
        for f in self.faults:
            if f.action == "delay" and f.process in (pname, "*"):
                total += f.ticks
        return total

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
        """Rebuild a plan through the builders, so a persisted plan gets
        the same checks as a hand-built one.  An unknown action or key
        raises :class:`ValueError` instead of replaying a different
        plan."""
        plan = cls()
        for entry in data.get("faults", []):
            keys = _KEYS.get(entry.get("action"))
            if keys is None:
                raise ValueError(
                    "unknown fault action {!r}".format(entry.get("action")))
            unknown = sorted(set(entry) - keys)
            if unknown:
                raise ValueError("unknown {} fault key(s): {}".format(
                    entry["action"], ", ".join(unknown)))
            if "process" not in entry:
                raise ValueError("{} fault names no process".format(
                    entry["action"]))
            if entry["action"] == "kill":
                plan.kill(entry["process"], at_step=entry.get("at_step"),
                          at_time=entry.get("at_time"))
            else:
                plan.delay_wakeups(entry["process"],
                                   int(entry.get("ticks", 0)))
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
