"""Durable vs volatile state: what survives a node restart.

A crash-restart is only interesting if the restarted incarnation comes
back with *less* than it had: in-flight protocol state (pending replies,
dedup sets, the volatile lease-validity clock) dies with the process,
while whatever the node explicitly persisted — sequence stamps, grant
epochs, term state, application records — survives.  The
:class:`DurableStore` is that persistence: a per-node namespace of
key/value records living *outside* every simulated process, so a
:class:`~repro.resilience.supervisor.NodeSupervisor` restart hands the new
incarnation exactly the records the old one wrote and nothing else.

The store is deliberately dumb — synchronous puts, no corruption model —
because the failure mode under study is *amnesia about volatile facts*
(a restarted lease holder trusting a persisted "I hold the lock" record
after its validity horizon silently passed), not storage loss.  Writes are
deterministic plain-dict mutations, so runs stay replayable.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["DurableStore", "DurableNamespace"]


class DurableNamespace:
    """One node's durable records.  Handed to node factories by the
    :class:`~repro.resilience.supervisor.NodeSupervisor`; also accepted by
    :class:`~repro.dist.protocol.Node` (sequence stamps) and
    :class:`~repro.dist.quorum.LeaseServer` (grant/epoch state) as their
    optional ``store``."""

    __slots__ = ("node", "_data")

    def __init__(self, node: str) -> None:
        self.node = node
        self._data: Dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` (synchronous: survives any
        crash after this call returns)."""
        self._data[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def snapshot(self) -> Dict[str, Any]:
        """A copy of every record (what a restarted incarnation sees)."""
        return dict(self._data)

    def clear(self) -> None:
        """Wipe the namespace — models losing the disk, for experiments
        that need a truly fresh node."""
        self._data.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<DurableNamespace {} {!r}>".format(self.node, self._data)


class DurableStore:
    """The cluster's persistent storage: one namespace per node.

    Namespaces are created on first access and live for the whole run —
    process kills and restarts never touch them.  ``begin()`` wipes
    everything, the same replay contract :class:`FaultPlan` and
    :class:`NetPlan` follow, so one store instance can be reused across
    explored runs.
    """

    def __init__(self) -> None:
        self._namespaces: Dict[str, DurableNamespace] = {}

    def namespace(self, node: str) -> DurableNamespace:
        ns = self._namespaces.get(node)
        if ns is None:
            ns = self._namespaces[node] = DurableNamespace(node)
        return ns

    def begin(self) -> None:
        """Reset per-run state so the store can be replayed."""
        self._namespaces = {}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {name: ns.snapshot()
                for name, ns in sorted(self._namespaces.items())}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<DurableStore nodes={}>".format(
            sorted(self._namespaces))
