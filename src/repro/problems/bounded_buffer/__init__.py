"""Bounded buffer (footnote 2: the local-state problem)."""

from ...runtime.scheduler import Scheduler
from ...runtime.trace import RunResult
from .. import eventcount_impls
from ..base import (ExploreWorkload, catalog_cells, consumed_both,
                    explore_check, run_two_producers)
from . import ext_impls, impls
from .ext_impls import CcrBoundedBuffer, CspBoundedBuffer
from .impls import (
    MonitorBoundedBuffer,
    OpenPathBoundedBuffer,
    SemaphoreBoundedBuffer,
    SerializerBoundedBuffer,
)
from .workloads import make_verifier, run_producers_consumers, trace_battery


def _profile_run(factory, sched: Scheduler) -> RunResult:
    result, __, __ = run_producers_consumers(
        factory, producers=3, consumers=3, items_each=4, sched=sched)
    return result


#: This package's cells of the solution catalog (see :func:`catalog_cells`).
CATALOG = catalog_cells(
    (SemaphoreBoundedBuffer, impls.SEMAPHORE_BOUNDED_BUFFER_DESCRIPTION),
    (MonitorBoundedBuffer, impls.MONITOR_BOUNDED_BUFFER_DESCRIPTION),
    (SerializerBoundedBuffer, impls.SERIALIZER_BOUNDED_BUFFER_DESCRIPTION),
    (OpenPathBoundedBuffer, impls.OPEN_PATH_BOUNDED_BUFFER_DESCRIPTION),
    (CspBoundedBuffer, ext_impls.CSP_BOUNDED_BUFFER_DESCRIPTION),
    (CcrBoundedBuffer, ext_impls.CCR_BOUNDED_BUFFER_DESCRIPTION),
    (eventcount_impls.EventCountBoundedBuffer,
     eventcount_impls.EVENTCOUNT_BOUNDED_BUFFER_DESCRIPTION),
    verifier=make_verifier,
    workload=_profile_run,
)

#: This package's exhaustible explore workload (see :class:`ExploreWorkload`).
EXPLORE = (ExploreWorkload(
    "bounded_buffer", "bounded_buffer",
    lambda factory, sched: run_two_producers(factory, sched, "C"),
    explore_check(trace_battery, consumed_both("buffer"))),)

__all__ = [
    "CATALOG",
    "CcrBoundedBuffer",
    "CspBoundedBuffer",
    "EXPLORE",
    "MonitorBoundedBuffer",
    "OpenPathBoundedBuffer",
    "SemaphoreBoundedBuffer",
    "SerializerBoundedBuffer",
    "make_verifier",
    "run_producers_consumers",
    "trace_battery",
]
