"""Observability layer: instrumentation sinks, span folding, metrics,
exporters, causal analysis, harness telemetry and the run store.

Layered *on top of* the runtime: the runtime never imports this package
(the scheduler's ``sink`` hook is duck-typed), so ``repro.runtime`` stays
dependency-free and uninstrumented runs pay nothing.  This package in turn
imports only ``repro.runtime`` and ``repro.core``; the runners that drive
the problem suite through it live in :mod:`repro.suite`.

Quick use::

    from repro.suite import run_profile
    report = run_profile("bounded_buffer", "monitor")
    print(report.metrics.render())

or from the command line::

    python -m repro profile bounded_buffer monitor --export chrome \
        --out /tmp/trace.json
"""

from .causality import (
    HBEdge,
    HBGraph,
    Wake,
    WaitClass,
    build_hb_graph,
    classify_wait,
    wake_records,
)
from .critical_path import (
    CriticalPathReport,
    Segment,
    causal_chain,
    compute_critical_path,
)
from .exporters import (
    ascii_contention,
    ascii_timeline,
    chrome_trace,
    jsonl_lines,
    parse_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .harness import (
    PHASES,
    HarnessTelemetry,
    Hotspot,
    HotspotReport,
    NullHarnessTelemetry,
    self_profile,
)
from .metrics import Histogram, ObjectMetrics, RunMetrics, compute_metrics
from .runstore import (
    GateRecord,
    Regression,
    RunStore,
    compare_records,
    dump_baseline,
    load_baseline,
    render_comparison,
)
from .recovery import (
    PartitionRecoveryMetrics,
    PartitionRecoverySpan,
    RecoveryMetrics,
    RecoverySpan,
    compute_partition_mttr,
    compute_recovery_metrics,
    partition_recovery_spans,
    recovery_spans,
)
from .sink import InstrumentationSink, MetricsSink, NullSink, RecordingSink
from .streaming import QuantileSketch, StreamingSink, WindowedSeries
from .spans import (
    Span,
    blocked_time_by_object,
    fold_spans,
    max_concurrent,
    spans_by_kind,
)

__all__ = [
    "InstrumentationSink",
    "NullSink",
    "MetricsSink",
    "RecordingSink",
    "StreamingSink",
    "QuantileSketch",
    "WindowedSeries",
    "Span",
    "fold_spans",
    "spans_by_kind",
    "blocked_time_by_object",
    "max_concurrent",
    "Histogram",
    "ObjectMetrics",
    "RunMetrics",
    "compute_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "ascii_timeline",
    "ascii_contention",
    "HBGraph",
    "HBEdge",
    "Wake",
    "WaitClass",
    "build_hb_graph",
    "wake_records",
    "classify_wait",
    "CriticalPathReport",
    "Segment",
    "compute_critical_path",
    "causal_chain",
    "parse_jsonl",
    "GateRecord",
    "RunStore",
    "Regression",
    "compare_records",
    "load_baseline",
    "dump_baseline",
    "render_comparison",
    "RecoverySpan",
    "RecoveryMetrics",
    "recovery_spans",
    "compute_recovery_metrics",
    "PartitionRecoverySpan",
    "PartitionRecoveryMetrics",
    "partition_recovery_spans",
    "compute_partition_mttr",
    "PHASES",
    "HarnessTelemetry",
    "NullHarnessTelemetry",
    "Hotspot",
    "HotspotReport",
    "self_profile",
]
