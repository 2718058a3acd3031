"""NetPlan: the message-level fault plan.

:class:`~repro.runtime.faults.FaultPlan` scripts *process* faults (kills
and delayed wakeups).  A :class:`NetPlan` scripts *network*
faults against the message layer the dist package builds over buffered
channels: per-link drops, duplicates, delays, reorders, and full or
partial **partitions** between named process groups, each with an optional
heal schedule.  Like its process-level sibling it is a deterministic,
replayable script: rules are declared up front with builder methods,
consulted at every send, and reset by :meth:`begin` so one plan instance
can be reused across explored runs.

Every verdict the plan hands out is logged by the network as a first-class
trace event (``msg_drop``, ``msg_dup``, ``msg_delay``, ``msg_hold``,
``net_partition``, ``net_heal``), so the causal/obs layer can attribute
message loss and the partition-recovery MTTR analysis in
:mod:`repro.obs.recovery` can anchor on the exact heal tick.

Addressing is by *node* (process group): the :class:`~repro.dist.network.
Network` maps each sending process to its node, and a rule's ``src`` /
``dst`` may be a node name or the wildcard ``"*"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

#: Verdict actions a send can receive, in the order they are applied.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "dup"
DELAY = "delay"
REORDER = "reorder"


@dataclass
class NetFault:
    """One scripted link fault.  Built via the :class:`NetPlan` builder
    methods rather than directly."""

    action: str                 # "drop" | "dup" | "delay" | "reorder"
    src: str                    # sending node, or "*"
    dst: str                    # receiving node, or "*"
    nth: int = 1                # fire on the nth matching message (1-based)
    ticks: int = 0              # delay amount (delay only)
    fired: bool = False

    def matches(self, src: str, dst: str) -> bool:
        return (self.src in ("*", src)) and (self.dst in ("*", dst))

    def describe(self) -> str:
        link = "{}->{}".format(self.src, self.dst)
        if self.action == DROP:
            return "drop message #{} on {}".format(self.nth, link)
        if self.action == DUPLICATE:
            return "duplicate message #{} on {}".format(self.nth, link)
        if self.action == DELAY:
            return "delay message #{} on {} by {} ticks".format(
                self.nth, link, self.ticks)
        return "reorder message #{} on {}".format(self.nth, link)

    def to_dict(self) -> Dict[str, Any]:
        """Portable form (runtime state — ``fired`` — excluded)."""
        out: Dict[str, Any] = {
            "action": self.action, "src": self.src, "dst": self.dst,
            "nth": self.nth,
        }
        if self.action == DELAY:
            out["ticks"] = self.ticks
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetFault":
        return cls(
            action=data["action"], src=data["src"], dst=data["dst"],
            nth=int(data.get("nth", 1)), ticks=int(data.get("ticks", 0)),
        )


@dataclass
class PartitionRule:
    """A (possibly partial) partition between two sides, with an optional
    heal tick.  While active, messages crossing sides — either direction —
    are dropped and logged with reason ``partition``."""

    side_a: FrozenSet[str]
    side_b: Optional[FrozenSet[str]]   # None = everything not in side_a
    at: int = 0
    heal_at: Optional[int] = None
    announced: bool = False            # "net_partition" event emitted
    healed: bool = False               # "net_heal" event emitted

    def active(self, now: int) -> bool:
        if now < self.at:
            return False
        return self.heal_at is None or now < self.heal_at

    def _side_of(self, node: str) -> Optional[str]:
        if node in self.side_a:
            return "a"
        if self.side_b is None:
            return "b"
        if node in self.side_b:
            return "b"
        return None

    def blocks(self, src: str, dst: str, now: int) -> bool:
        if not self.active(now):
            return False
        a, b = self._side_of(src), self._side_of(dst)
        return a is not None and b is not None and a != b

    def describe(self) -> str:
        left = ",".join(sorted(self.side_a))
        right = ("rest" if self.side_b is None
                 else ",".join(sorted(self.side_b)))
        healed = ("never heals" if self.heal_at is None
                  else "heals at t={}".format(self.heal_at))
        return "partition {{{}}} | {{{}}} at t={} ({})".format(
            left, right, self.at, healed)

    def to_dict(self) -> Dict[str, Any]:
        """Portable form (announce/heal runtime flags excluded).  Sides are
        sorted lists so equal rules serialize identically."""
        return {
            "side_a": sorted(self.side_a),
            "side_b": None if self.side_b is None else sorted(self.side_b),
            "at": self.at,
            "heal_at": self.heal_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PartitionRule":
        side_b = data.get("side_b")
        return cls(
            side_a=frozenset(data["side_a"]),
            side_b=None if side_b is None else frozenset(side_b),
            at=int(data.get("at", 0)),
            heal_at=data.get("heal_at"),
        )


class NetPlan:
    """A deterministic script of network faults, consulted at every send.

    Build with the chaining methods and hand to a
    :class:`~repro.dist.network.Network`::

        plan = (NetPlan()
                .drop("c0", "s1", nth=2)
                .partition(["s0", "s1"], ["s2", "c1"], at=10, heal_at=30))

    One instance may be reused across runs (the partition explorer does):
    :meth:`begin` resets fired-flags, per-rule counters, and partition
    announcement state before each run.
    """

    def __init__(self) -> None:
        self.faults: List[NetFault] = []
        self.partitions: List[PartitionRule] = []
        self._rule_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def drop(self, src: str, dst: str, nth: int = 1) -> "NetPlan":
        """The ``nth`` message from ``src`` to ``dst`` vanishes in flight."""
        return self._rule(DROP, src, dst, nth)

    def duplicate(self, src: str, dst: str, nth: int = 1) -> "NetPlan":
        """The ``nth`` message on the link is delivered twice."""
        return self._rule(DUPLICATE, src, dst, nth)

    def delay(self, src: str, dst: str, ticks: int,
              nth: int = 1) -> "NetPlan":
        """The ``nth`` message is delivered ``ticks`` units of virtual time
        late (later traffic may overtake it)."""
        if ticks <= 0:
            raise ValueError("delay must be positive")
        return self._rule(DELAY, src, dst, nth, ticks=ticks)

    def reorder(self, src: str, dst: str) -> "NetPlan":
        """The first message on the link is held back until the *next*
        message on it is delivered, then released right after it — a
        minimal pairwise reordering."""
        return self._rule(REORDER, src, dst, 1)

    def _rule(self, action: str, src: str, dst: str, nth: int,
              ticks: int = 0) -> "NetPlan":
        if nth < 1:
            raise ValueError("nth is 1-based")
        self.faults.append(NetFault(action, src, dst, nth=nth, ticks=ticks))
        return self

    def partition(
        self,
        side_a: Sequence[str],
        side_b: Optional[Sequence[str]] = None,
        at: int = 0,
        heal_at: Optional[int] = None,
    ) -> "NetPlan":
        """Partition ``side_a`` from ``side_b`` (default: everything else)
        starting at virtual time ``at``; ``heal_at`` removes it (``None``
        = the partition never heals)."""
        if heal_at is not None and heal_at <= at:
            raise ValueError("heal_at must come after at")
        self.partitions.append(PartitionRule(
            side_a=frozenset(side_a),
            side_b=None if side_b is None else frozenset(side_b),
            at=at, heal_at=heal_at,
        ))
        return self

    def isolate(self, node: str, at: int = 0,
                heal_at: Optional[int] = None) -> "NetPlan":
        """Convenience: partition one node away from every other node."""
        return self.partition([node], None, at=at, heal_at=heal_at)

    # ------------------------------------------------------------------
    # Runtime hooks (called by the network)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Reset per-run state so the plan can be replayed."""
        for f in self.faults:
            f.fired = False
        for p in self.partitions:
            p.announced = False
            p.healed = False
        self._rule_counts = {}

    def verdict(self, src: str, dst: str,
                now: int) -> Tuple[str, Optional[int]]:
        """The fate of one message sent ``src -> dst`` at ``now``.

        Returns ``(action, arg)``: ``("drop", None)`` (a partition drop is
        reported as a drop — the network distinguishes the reason via
        :meth:`partitioned`), ``("dup", None)``, ``("delay", ticks)``,
        ``("reorder", None)``, or ``("deliver", None)``.  Partitions take
        precedence; link rules fire at most once each, counted over the
        messages matching that rule's own pattern.
        """
        if self.partitioned(src, dst, now):
            return DROP, None
        chosen: Tuple[str, Optional[int]] = (DELIVER, None)
        for idx, fault in enumerate(self.faults):
            if not fault.matches(src, dst):
                continue
            count = self._rule_counts.get(idx, 0) + 1
            self._rule_counts[idx] = count
            if fault.fired or count != fault.nth:
                continue
            fault.fired = True
            if chosen[0] == DELIVER:
                chosen = (fault.action,
                          fault.ticks if fault.action == DELAY else None)
        return chosen

    def partitioned(self, src: str, dst: str, now: int) -> bool:
        """True when an active partition separates ``src`` from ``dst``."""
        return any(p.blocks(src, dst, now) for p in self.partitions)

    def schedule_ticks(self) -> List[int]:
        """Every tick at which the network's visible topology changes
        (partition starts and heals), ascending — the network pump sleeps
        toward these to emit ``net_partition`` / ``net_heal`` events on
        cue even when no traffic flows."""
        ticks = set()
        for p in self.partitions:
            ticks.add(p.at)
            if p.heal_at is not None:
                ticks.add(p.heal_at)
        return sorted(ticks)

    def describe(self) -> List[str]:
        """Human-readable rendering of every scripted fault and
        partition."""
        return ([f.describe() for f in self.faults]
                + [p.describe() for p in self.partitions])

    # ------------------------------------------------------------------
    # Serialization (run store / witness persistence)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-portable form of the *script* (no runtime state): a plan
        round-trips through ``NetPlan.from_dict(plan.to_dict())`` into an
        exactly-replayable equal script — what lets minimized combined
        witnesses be persisted and replayed."""
        return {
            "faults": [f.to_dict() for f in self.faults],
            "partitions": [p.to_dict() for p in self.partitions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetPlan":
        plan = cls()
        plan.faults = [
            NetFault.from_dict(f) for f in data.get("faults", [])]
        plan.partitions = [
            PartitionRule.from_dict(p) for p in data.get("partitions", [])]
        return plan

    def __repr__(self) -> str:
        return "<NetPlan [{}]>".format("; ".join(self.describe()))
