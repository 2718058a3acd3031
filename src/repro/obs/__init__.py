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

import importlib
from typing import Any, Dict, Tuple

#: Each public name and the module that defines it.  A name is imported on
#: first access (PEP 562), so importing one helper module, such as
#: ``repro.obs.recovery``, loads that module alone, not the whole layer
#: (``harness`` pulls in cProfile).
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "sink": ("InstrumentationSink", "NullSink", "MetricsSink",
             "RecordingSink"),
    "streaming": ("StreamingSink", "QuantileSketch", "WindowedSeries"),
    "spans": ("Span", "fold_spans", "spans_by_kind",
              "blocked_time_by_object", "max_concurrent"),
    "metrics": ("Histogram", "ObjectMetrics", "RunMetrics",
                "compute_metrics"),
    "exporters": ("chrome_trace", "write_chrome_trace", "jsonl_lines",
                  "write_jsonl", "ascii_timeline", "ascii_contention",
                  "parse_jsonl"),
    "causality": ("HBGraph", "HBEdge", "Wake", "WaitClass",
                  "build_hb_graph", "wake_records", "classify_wait"),
    "critical_path": ("CriticalPathReport", "Segment",
                      "compute_critical_path", "causal_chain"),
    "runstore": ("GateRecord", "RunStore", "Regression", "compare_records",
                 "load_baseline", "dump_baseline", "render_comparison"),
    "recovery": ("RecoverySpan", "RecoveryMetrics", "recovery_spans",
                 "compute_recovery_metrics", "PartitionRecoverySpan",
                 "PartitionRecoveryMetrics", "partition_recovery_spans",
                 "compute_partition_mttr"),
    "harness": ("PHASES", "HarnessTelemetry", "NullHarnessTelemetry",
                "Hotspot", "HotspotReport", "self_profile"),
}

_MODULE_OF: Dict[str, str] = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
