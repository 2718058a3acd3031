"""Recovery runtime (S11): supervision, lease reclamation, retry.

Turns the fault layer's crash *tolerance* into crash *recovery*:

* :class:`Supervisor` / :class:`RestartPolicy` — deterministic respawning
  of killed processes (one-for-one or escalate, restart intensity,
  tick-based backoff);
* :class:`LeaseManager` — per-mechanism ``crash_reclaim`` hooks revoke a
  corpse's holds so waiters unwedge (all six mechanisms);
* :class:`BackoffPolicy` family and :func:`retry_with_backoff` — bounded
  retry around timed blocking calls;
* :class:`Degrader` — graceful degradation: relax priority constraints
  under repeated failure, never exclusion (the paper's §3–4 split).

The dist layer builds on these, so this package re-exports nothing above
them.  :func:`repro.recover.search.search_fault_plans` — search kill sets
that defeat recovery and ddmin them to a minimal crash witness — runs a
fault campaign (:mod:`repro.explore.campaign`) and is imported by its full
path.
"""

from .backoff import (
    BackoffPolicy,
    ExponentialBackoff,
    FixedBackoff,
    NoBackoff,
    retry_with_backoff,
)
from .degrade import Degrader
from .leases import LeaseManager, ReclaimAction
from .supervisor import ESCALATE, ONE_FOR_ONE, RestartPolicy, Supervisor

__all__ = [
    "BackoffPolicy",
    "Degrader",
    "ESCALATE",
    "ExponentialBackoff",
    "FixedBackoff",
    "LeaseManager",
    "NoBackoff",
    "ONE_FOR_ONE",
    "ReclaimAction",
    "RestartPolicy",
    "Supervisor",
    "retry_with_backoff",
]
