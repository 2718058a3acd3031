"""Streaming telemetry: sketch error bounds, window semantics, and the
StreamingSink's on-arrival folding of the uniform trace vocabulary."""

import gc
import random
import tracemalloc

import pytest

from repro.load import run_load
from repro.obs import QuantileSketch, StreamingSink, WindowedSeries
from repro.problems import bounded_buffer
from repro.problems.registry import get_solution
from repro.runtime import OpFold
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Event


# ----------------------------------------------------------------------
# QuantileSketch
# ----------------------------------------------------------------------
def _exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def test_sketch_within_declared_relative_error():
    rng = random.Random(42)
    sketch = QuantileSketch(rel_error=0.01)
    values = [int(rng.lognormvariate(3.0, 1.2)) + 1 for _ in range(5000)]
    for v in values:
        sketch.observe(v)
    for q in (10, 50, 90, 95, 99):
        exact = _exact_quantile(values, q)
        est = sketch.quantile(q)
        # Midpoint reporting guarantees ε relative; nearest-rank tie
        # handling at bucket edges costs at most one more ε.
        assert abs(est - exact) / exact <= 0.02 + 1e-9, (q, exact, est)


def test_sketch_memory_independent_of_observations():
    import math

    sketch = QuantileSketch()
    rng = random.Random(7)
    for _ in range(20_000):
        sketch.observe(rng.randint(1, 1000))
    saturated = sketch.bucket_count()
    # The ceiling is set by the value RANGE, not the observation count:
    # at most ceil(log(1000)/log(gamma)) + 1 buckets can ever exist.
    ceiling = math.ceil(math.log(1000) / math.log(sketch._gamma)) + 1
    assert saturated <= ceiling
    for _ in range(20_000):
        sketch.observe(rng.randint(1, 1000))
    # Doubling the observations adds (almost) nothing once saturated.
    assert sketch.bucket_count() <= saturated + 3
    assert sketch.count == 40_000


def test_sketch_zero_and_stats():
    sketch = QuantileSketch()
    for v in (0, 0, 0, 10):
        sketch.observe(v)
    assert sketch.quantile(50) == 0.0
    assert sketch.min == 0 and sketch.max == 10
    assert sketch.mean == pytest.approx(2.5)
    assert sketch.quantile(100) == pytest.approx(10, rel=0.011)


def test_sketch_merge_matches_single_sketch():
    rng = random.Random(3)
    merged = QuantileSketch()
    parts = [QuantileSketch() for _ in range(4)]
    reference = QuantileSketch()
    for i in range(2000):
        v = rng.randint(1, 500)
        parts[i % 4].observe(v)
        reference.observe(v)
    for part in parts:
        merged.merge(part)
    assert merged.count == reference.count
    assert merged.total == reference.total
    for q in (50, 95, 99):
        assert merged.quantile(q) == reference.quantile(q)


def test_sketch_rejects_bad_input():
    with pytest.raises(ValueError):
        QuantileSketch(rel_error=0.0)
    with pytest.raises(ValueError):
        QuantileSketch(rel_error=1.0)
    sketch = QuantileSketch()
    with pytest.raises(ValueError):
        sketch.observe(-1)
    with pytest.raises(ValueError):
        sketch.quantile(101)
    with pytest.raises(ValueError):
        sketch.merge(QuantileSketch(rel_error=0.05))
    assert sketch.quantile(99) == 0.0  # empty


# ----------------------------------------------------------------------
# WindowedSeries
# ----------------------------------------------------------------------
def test_windows_align_on_absolute_virtual_time():
    series = WindowedSeries(width=10, max_windows=8)
    series.add(0, "arrivals")
    series.add(9, "arrivals")
    series.add(10, "arrivals")
    out = series.series()
    assert [w["start"] for w in out] == [0, 10]
    assert out[0]["arrivals"] == 2 and out[1]["arrivals"] == 1


def test_windows_evict_oldest_and_conserve_totals():
    series = WindowedSeries(width=10, max_windows=3)
    for t in range(0, 60, 10):
        series.add(t, "completed", 2)
        series.gauge(t, "depth", t)
    assert len(series.series()) == 3
    assert series.evicted_windows == 3
    # Sums survive eviction; gauges fold with max.
    assert series.total("completed") == 12
    assert series.evicted["max_depth"] == 20  # newest evicted gauge wins
    assert series.cells() <= 3 * 2


def test_windows_contention_ratio():
    series = WindowedSeries(width=10)
    for _ in range(4):
        series.add(5, "op_start")
    series.add(5, "blocked")
    (win,) = series.series()
    assert win["contention"] == pytest.approx(0.25)


def test_windows_reject_bad_config():
    with pytest.raises(ValueError):
        WindowedSeries(width=0)
    with pytest.raises(ValueError):
        WindowedSeries(max_windows=0)


# ----------------------------------------------------------------------
# StreamingSink — synthetic event folding
# ----------------------------------------------------------------------
def _ev(seq, kind, pname="p", obj="", time=0):
    return Event(seq=seq, time=time, pid=1, pname=pname, kind=kind, obj=obj)


def test_sink_folds_request_start_end_latencies():
    sink = StreamingSink(window=16)
    sink.on_event(_ev(10, "request", "p1", "buf.put"))
    sink.on_event(_ev(14, "op_start", "p1", "buf.put"))
    sink.on_event(_ev(20, "op_end", "p1", "buf.put", time=5))
    sketches = sink.op_sketches["buf.put"]
    assert sketches["queue"].max == 4
    assert sketches["service"].max == 6
    assert sketches["total"].max == 10
    assert sink.completed == 1
    assert sink.in_flight() == 0


def test_sink_matches_cross_process_requests_fifo():
    # A CSP-style server executes another process's request: op_start is
    # matched to the OLDEST open request on the object, like fold_spans.
    sink = StreamingSink()
    sink.on_event(_ev(1, "request", "client-a", "buf.put"))
    sink.on_event(_ev(2, "request", "client-b", "buf.put"))
    sink.on_event(_ev(5, "op_start", "server", "buf.put"))
    sink.on_event(_ev(7, "op_end", "server", "buf.put"))
    assert sink.op_sketches["buf.put"]["queue"].max == 4  # matched seq=1
    assert sink.in_flight() == 1  # client-b's request still open


@pytest.mark.xfail(
    strict=True,
    reason="load_sweep reference pins the sink's global FIFO; flip with "
           "the next benchmark change",
)
def test_sink_queue_latency_matches_op_fold():
    # A requests x, B requests x, B starts and ends x.  OpFold pairs B's
    # start with B's own request (wait 1); the sink's global FIFO pops A's
    # older request (wait 2).
    events = [
        Event(1, 0, 1, "A", "request", "x"),
        Event(2, 0, 2, "B", "request", "x"),
        Event(3, 0, 2, "B", "op_start", "x"),
        Event(4, 0, 2, "B", "op_end", "x"),
    ]
    sink = StreamingSink()
    for ev in events:
        sink.on_event(ev)
    [op] = OpFold().fold(events).started
    wait = op.start.seq - op.request.seq
    assert sink.op_sketches["x"]["queue"].quantile(50) == pytest.approx(
        wait, rel=sink.rel_error)


def test_sink_wait_sketch_is_woken_process_keyed():
    sink = StreamingSink()
    sink.on_event(_ev(3, "blocked", "p1", "sem.items"))
    # unblocked is waker-attributed: pname is the waker, obj the woken.
    sink.on_event(_ev(9, "unblocked", "p2", "p1"))
    assert sink.wait_sketches["sem.items"].max == 6
    assert sink.in_flight() == 0


def test_sink_scrubs_killed_and_exited_processes():
    sink = StreamingSink()
    sink.on_event(_ev(1, "request", "victim", "buf.put"))
    sink.on_event(_ev(2, "op_start", "victim", "buf.put"))
    sink.on_event(_ev(3, "request", "victim", "buf.get"))
    sink.on_event(_ev(4, "blocked", "victim", "buf.get"))
    sink.on_event(_ev(5, "killed", "reaper", "victim"))
    assert sink.in_flight() == 0
    # Partial ops are dropped, not counted.
    assert sink.completed == 0


def test_sink_shard_prefix_collapses_labels():
    sink = StreamingSink(shard_prefix=True)
    for shard in ("shard0", "shard1"):
        sink.on_event(_ev(1, "request", "p", shard + ".put"))
        sink.on_event(_ev(2, "op_start", "p", shard + ".put"))
        sink.on_event(_ev(3, "op_end", "p", shard + ".put"))
        sink.on_event(_ev(4, "request", "p", shard + ".get"))
        sink.on_event(_ev(5, "op_start", "p", shard + ".get"))
        sink.on_event(_ev(6, "op_end", "p", shard + ".get"))
    assert set(sink.op_sketches) == {"shard0", "shard1"}
    assert sink.op_sketches["shard0"]["total"].count == 2


def test_sink_to_dict_shape():
    sink = StreamingSink()
    sink.on_event(_ev(1, "request", "p", "buf.put", time=3))
    sink.on_event(_ev(2, "op_start", "p", "buf.put", time=3))
    sink.on_event(_ev(4, "op_end", "p", "buf.put", time=3))
    payload = sink.to_dict()
    assert set(payload) == {
        "events", "steps", "context_switches", "completed", "in_flight",
        "memory_cells", "max_depth", "latency", "wait", "objects",
        "windows", "evicted_windows",
    }
    assert set(payload["latency"]) == {"queue", "service", "total"}
    assert payload["completed"] == 1
    assert payload["windows"][0]["arrivals"] == 1


# ----------------------------------------------------------------------
# StreamingSink — on a real run, against the recording pipeline
# ----------------------------------------------------------------------
def test_sink_agrees_with_recording_pipeline_on_real_run():
    from repro.obs import MetricsSink

    streaming = StreamingSink()
    metrics = MetricsSink()

    def run_with(sink):
        factory = get_solution("bounded_buffer", "semaphore").factory
        sched = Scheduler(sink=sink)
        return bounded_buffer.run_producers_consumers(
            factory, sched=sched, producers=2, consumers=2, items_each=10)

    run_with(streaming)
    run_with(metrics)
    # Same deterministic run: same event and step counts, and every one
    # of the 40 operations (20 puts + 20 gets) completed and drained.
    assert streaming.events == metrics.events
    assert streaming.steps == metrics.steps
    assert streaming.context_switches == metrics.context_switches
    assert streaming.completed == 40
    assert streaming.in_flight() == 0
    merged = streaming.merged_latency("total")
    assert merged.count == 40
    assert merged.min >= 0 and merged.max >= merged.min


# ----------------------------------------------------------------------
# The whole load run, not only the sink, holds O(width) memory
# ----------------------------------------------------------------------
def _peak_bytes(mechanism, ops):
    gc.collect()
    tracemalloc.start()
    try:
        run_load(mechanism, clients=128, ops=ops, shards=2, rate=0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mechanism", ["semaphore", "monitor", "csp"])
def test_load_run_peak_memory_is_independent_of_length(mechanism):
    # Four times the operations on the same swarm: E19's 1.6x cells
    # ceiling, applied to every allocation the run makes.
    small = _peak_bytes(mechanism, 2)
    big = _peak_bytes(mechanism, 8)
    assert big < 1.6 * small, (small, big)
