"""The readers/writers problem family — the paper's central example.

Three specifications (readers priority, writers priority, FCFS) × four
mechanisms.  The path-expression solutions are the paper's Figures 1 and 2,
preserved warts and all (footnote-3 anomaly included).
"""

from ..base import catalog_cells
from . import (ccr_impl, csp_impl, monitor_impl, pathexpr_impl,
               semaphore_impl, serializer_impl)
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
    run_workload,
    staggered_plan,
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

__all__ = [
    "BURST_PLAN",
    "CATALOG",
    "CcrRWFcfs",
    "CcrReadersPriority",
    "CcrWritersPriority",
    "CspRWFcfs",
    "CspReadersPriority",
    "CspWritersPriority",
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
    "run_workload",
    "staggered_plan",
]
