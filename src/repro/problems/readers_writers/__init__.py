"""The readers/writers problem family — the paper's central example.

Three specifications (readers priority, writers priority, FCFS) × four
mechanisms.  The path-expression solutions are the paper's Figures 1 and 2,
preserved warts and all (footnote-3 anomaly included).
"""

from ...verify import oracle
from ..base import ExploreWorkload, catalog_cells, explore_check
from . import (ccr_impl, csp_impl, monitor_impl, pathexpr_impl,
               semaphore_impl, serializer_impl)
from .anomaly import footnote3_workload
from .ccr_impl import CcrReadersPriority, CcrRWFcfs, CcrWritersPriority
from .csp_impl import CspReadersPriority, CspRWFcfs, CspWritersPriority
from .monitor_impl import (
    MonitorReadersPriority,
    MonitorRWFcfs,
    MonitorWritersPriority,
)
from .pathexpr_impl import (
    FCFS_PATHS,
    FIGURE1_PATHS,
    FIGURE2_PATHS,
    PathReadersPriority,
    PathRWFcfs,
    PathWritersPriority,
)
from .semaphore_impl import SemaphoreReadersPriority, SemaphoreWritersPriority
from .serializer_impl import (
    SerializerReadersPriority,
    SerializerRWFcfs,
    SerializerWritersPriority,
)
from .workloads import (
    BURST_PLAN,
    PHASED_PLAN,
    make_verifier,
    run_reader_writer,
    run_workload,
    staggered_plan,
    trace_battery,
)

#: This package's cells of the solution catalog (see :func:`catalog_cells`):
#: the three problems share one workload, and the class's problem picks the
#: ordering oracle.
CATALOG = catalog_cells(
    (SemaphoreReadersPriority, semaphore_impl.READERS_PRIORITY_DESCRIPTION),
    (MonitorReadersPriority,
     monitor_impl.MONITOR_READERS_PRIORITY_DESCRIPTION),
    (SerializerReadersPriority,
     serializer_impl.SERIALIZER_READERS_PRIORITY_DESCRIPTION),
    (PathReadersPriority, pathexpr_impl.PATH_READERS_PRIORITY_DESCRIPTION),
    (SemaphoreWritersPriority, semaphore_impl.WRITERS_PRIORITY_DESCRIPTION),
    (MonitorWritersPriority,
     monitor_impl.MONITOR_WRITERS_PRIORITY_DESCRIPTION),
    (SerializerWritersPriority,
     serializer_impl.SERIALIZER_WRITERS_PRIORITY_DESCRIPTION),
    (PathWritersPriority, pathexpr_impl.PATH_WRITERS_PRIORITY_DESCRIPTION),
    (MonitorRWFcfs, monitor_impl.MONITOR_RW_FCFS_DESCRIPTION),
    (SerializerRWFcfs, serializer_impl.SERIALIZER_RW_FCFS_DESCRIPTION),
    (PathRWFcfs, pathexpr_impl.PATH_RW_FCFS_DESCRIPTION),
    # §6 extension mechanisms (experiment E11):
    (CspReadersPriority, csp_impl.CSP_READERS_PRIORITY_DESCRIPTION),
    (CspWritersPriority, csp_impl.CSP_WRITERS_PRIORITY_DESCRIPTION),
    (CspRWFcfs, csp_impl.CSP_RW_FCFS_DESCRIPTION),
    (CcrReadersPriority, ccr_impl.CCR_READERS_PRIORITY_DESCRIPTION),
    (CcrWritersPriority, ccr_impl.CCR_WRITERS_PRIORITY_DESCRIPTION),
    (CcrRWFcfs, ccr_impl.CCR_RW_FCFS_DESCRIPTION),
    verifier=lambda cls: make_verifier(cls, cls.problem),
    workload=lambda factory, sched: run_workload(factory, BURST_PLAN,
                                                 sched=sched),
)

#: This package's exhaustible explore workloads (see
#: :class:`ExploreWorkload`), both over the readers-priority solutions.
#: ``footnote3`` is the paper's E5 anomaly as a search problem: the
#: Figure-1 arrival pattern judged by the strict Courtois–Heymans–Parnas
#: oracle alone.
EXPLORE = (
    ExploreWorkload("readers_priority", "readers_priority",
                    run_reader_writer, explore_check(trace_battery)),
    ExploreWorkload("footnote3", "readers_priority", footnote3_workload,
                    oracle("footnote3_strict")),
)

__all__ = [
    "BURST_PLAN",
    "CATALOG",
    "CcrRWFcfs",
    "CcrReadersPriority",
    "CcrWritersPriority",
    "CspRWFcfs",
    "CspReadersPriority",
    "CspWritersPriority",
    "EXPLORE",
    "FCFS_PATHS",
    "FIGURE1_PATHS",
    "FIGURE2_PATHS",
    "MonitorRWFcfs",
    "MonitorReadersPriority",
    "MonitorWritersPriority",
    "PHASED_PLAN",
    "PathRWFcfs",
    "PathReadersPriority",
    "PathWritersPriority",
    "SemaphoreReadersPriority",
    "SemaphoreWritersPriority",
    "SerializerRWFcfs",
    "SerializerReadersPriority",
    "SerializerWritersPriority",
    "make_verifier",
    "run_reader_writer",
    "run_workload",
    "staggered_plan",
    "trace_battery",
]
