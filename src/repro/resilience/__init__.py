"""Combined-fault resilience: crash-restart under partitions.

The :mod:`repro.recover` layer restarts crashed processes; the
:mod:`repro.dist` layer partitions and heals the network.  Each is
survivable alone.  This package studies their *composition* — the fault
class where a crashed node restarts with durable state but without its
volatile guards, inside a partition that blocks it from re-validating —
and the mechanism that makes the composition safe:

* :mod:`~repro.resilience.durable` — the durable/volatile state split:
  what a restarted incarnation may trust (:class:`DurableStore`);
* :mod:`~repro.resilience.fencing` — fencing tokens checked *at the
  resource* (:class:`FencedResource`), the guard lease validity alone
  cannot provide;
* :mod:`~repro.resilience.supervisor` — :class:`NodeSupervisor`,
  adapting process supervision to network nodes with inbox quarantine
  on rejoin.

The distributed problems build on these three, so this package
re-exports nothing above them.  :mod:`repro.resilience.report` — the
scenario × combined-fault table at 5-node clusters, with MTTR and
availability, and the joint crash × partition witness search
(ddmin-minimized mixed witnesses over
:class:`~repro.explore.campaign.CrashSpec` and
:class:`~repro.explore.campaign.CutSpec` atoms) — runs those problems
under a fault campaign and is imported by its full path.
"""

from .durable import DurableNamespace, DurableStore
from .fencing import FencedResource
from .supervisor import NodeSupervisor, QUARANTINE, REPLAY

__all__ = [
    "DurableNamespace", "DurableStore",
    "FencedResource",
    "NodeSupervisor", "QUARANTINE", "REPLAY",
]
