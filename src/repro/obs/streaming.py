"""Streaming telemetry: bounded-memory observability for heavy-traffic runs.

The recording pipeline from PR 2 (:class:`~repro.obs.sink.RecordingSink` →
:func:`~repro.obs.spans.fold_spans` → :func:`~repro.obs.metrics.compute_metrics`)
buffers every event and folds spans post-hoc — O(events) memory.  That is
the right trade for the paper's footnote-2 toys (hundreds of events) and
structurally wrong for the load observatory (:mod:`repro.load`), where one
sweep point can log millions of events.  This module is the streaming
counterpart: everything folds **on arrival** and total retained state is

    O(objects × sketch buckets  +  retained windows  +  in-flight ops)

— bounded by the *width* of the system (shards, live clients), never by
its *length* (events, virtual time).  Three pieces:

* :class:`QuantileSketch` — a mergeable fixed-relative-error quantile
  sketch over log-spaced buckets (the DDSketch construction): bucket ``k``
  covers ``(γ^(k-1), γ^k]`` with ``γ = (1+ε)/(1-ε)``, so reporting the
  bucket midpoint answers any quantile within relative error ε.  Memory is
  the number of *touched* buckets: O(log(max/min)/ε), independent of the
  observation count.  Sketches merge by bucket-wise addition, which is how
  per-shard latency distributions combine into a fleet-wide percentile
  without ever co-locating raw samples.
* :class:`WindowedSeries` — time-series counters aligned to the virtual
  clock: tick ``t`` lands in window ``t // width`` (window 0 starts at
  t=0, so runs with identical plans align window-for-window).  At most
  ``max_windows`` windows are retained; older ones fold into a running
  total as they scroll off, keeping long runs bounded.
* :class:`StreamingSink` — an :class:`~repro.obs.sink.InstrumentationSink`
  that folds the uniform trace vocabulary (``request`` / ``op_start`` /
  ``op_end`` / ``blocked`` / ``unblocked`` / kills) into wait and latency
  sketches per object plus windowed throughput / arrivals / contention /
  queue-depth series.  It never stores an event.

The sink piggybacks on the scheduler's existing publish sites, so the
uninstrumented null path (``sink=None``) is untouched and the E15 "<5% null
overhead" gate keeps applying (re-asserted by ``benchmarks/bench_load.py``).
The sink alone does not bound a run: :func:`repro.load.run_load` also builds
its scheduler with ``keep_trace=False``, so the run keeps no event list.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .sink import InstrumentationSink

#: Default relative error for latency sketches: 1% is two orders of
#: magnitude tighter than the shape differences E19 compares.
DEFAULT_REL_ERROR = 0.01


class QuantileSketch:
    """Mergeable quantile sketch with a guaranteed relative error bound.

    Non-negative observations only (durations).  Zero is exact (its own
    counter); positive values land in log-spaced buckets; quantile queries
    return the matched bucket's midpoint, which is within ``rel_error`` of
    the true value (relative), regardless of how many values were observed.
    """

    __slots__ = ("rel_error", "_gamma", "_log_gamma", "_buckets",
                 "_zero", "count", "total", "min", "max")

    def __init__(self, rel_error: float = DEFAULT_REL_ERROR) -> None:
        if not 0.0 < rel_error < 1.0:
            raise ValueError("rel_error must be in (0, 1)")
        self.rel_error = rel_error
        self._gamma = (1.0 + rel_error) / (1.0 - rel_error)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max = 0

    # ------------------------------------------------------------------
    def observe(self, value: int) -> None:
        """Fold one occurrence of ``value`` (a non-negative duration)."""
        if value < 0:
            raise ValueError("sketch values must be non-negative")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0:
            self._zero += 1
            return
        key = int(math.ceil(math.log(value) / self._log_gamma))
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (bucket-wise addition).  Both
        must share the same error bound — merged accuracy stays ε."""
        if abs(other.rel_error - self.rel_error) > 1e-12:
            raise ValueError("cannot merge sketches with different error "
                             "bounds ({} vs {})".format(self.rel_error,
                                                        other.rel_error))
        self.count += other.count
        self.total += other.total
        self._zero += other._zero
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for key, n in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + n

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]), within ``rel_error``
        relative of the exact nearest-rank answer.  0 for an empty sketch."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        # Nearest-rank on the merged (zero + buckets) distribution.
        rank = max(1, int(math.ceil(q / 100.0 * self.count)))
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= rank:
                # Midpoint of (γ^(k-1), γ^k]: within ε of anything inside.
                return (2.0 * self._gamma ** key) / (self._gamma + 1.0)
        return float(self.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_count(self) -> int:
        """Retained cells — the memory bound the E19 test asserts."""
        return len(self._buckets) + (1 if self._zero else 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "min": self.min or 0,
            "max": self.max,
            "p50": round(self.quantile(50), 3),
            "p95": round(self.quantile(95), 3),
            "p99": round(self.quantile(99), 3),
            "rel_error": self.rel_error,
            "buckets": self.bucket_count(),
        }


class WindowedSeries:
    """Per-window counters on the virtual clock, with bounded retention.

    Each window aggregates named counters (summed) and gauges (maxed).
    Windows are absolute — index ``t // width`` — so two runs under the
    same plan produce comparable series.  Only the newest ``max_windows``
    are kept; evicted windows fold into ``evicted`` totals so conservation
    checks still balance on arbitrarily long runs.
    """

    def __init__(self, width: int = 32, max_windows: int = 64) -> None:
        if width <= 0 or max_windows <= 0:
            raise ValueError("width and max_windows must be positive")
        self.width = width
        self.max_windows = max_windows
        self._windows: Dict[int, Dict[str, int]] = {}
        self.evicted: Dict[str, int] = {}
        self.evicted_windows = 0
        # The window written last: a run's clock only moves forward, so
        # nearly every write lands in it.
        self._last_index: Optional[int] = None
        self._last: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _window(self, index: int) -> Dict[str, int]:
        """The window numbered ``index``, opened if absent."""
        win = self._windows.get(index)
        if win is None:
            win = self._windows[index] = {}
            if len(self._windows) > self.max_windows:
                oldest = min(self._windows)
                dead = self._windows.pop(oldest)
                self.evicted_windows += 1
                for key, val in dead.items():
                    if key.startswith("max_"):
                        self.evicted[key] = max(self.evicted.get(key, 0), val)
                    else:
                        self.evicted[key] = self.evicted.get(key, 0) + val
                if oldest == index:
                    # The new window was itself the oldest: it is gone,
                    # and the next write to it opens a fresh one.
                    return win
        self._last_index = index
        self._last = win
        return win

    def add(self, time: int, key: str, amount: int = 1) -> None:
        """Accumulate ``amount`` into ``key`` for the window covering
        ``time``."""
        index = time // self.width
        win = self._last if index == self._last_index else self._window(index)
        win[key] = win.get(key, 0) + amount

    def gauge(self, time: int, key: str, value: int) -> None:
        """Record a gauge sample; windows keep the maximum.  Keys are
        prefixed ``max_`` so eviction folds them with max, not sum."""
        key = "max_" + key
        index = time // self.width
        win = self._last if index == self._last_index else self._window(index)
        if value > win.get(key, 0):
            win[key] = value

    # ------------------------------------------------------------------
    def cells(self) -> int:
        """Retained counter cells (the memory bound)."""
        return sum(len(win) for win in self._windows.values())

    def series(self) -> List[Dict[str, Any]]:
        """The retained windows, oldest first, each tagged with its start
        tick and a derived contention ratio when the inputs are present."""
        out = []
        for index in sorted(self._windows):
            win = dict(self._windows[index])
            win["start"] = index * self.width
            if "op_start" in win or "blocked" in win:
                win["contention"] = round(
                    win.get("blocked", 0)
                    / float(max(win.get("op_start", 0), 1)), 4)
            out.append(win)
        return out

    def total(self, key: str) -> int:
        live = sum(win.get(key, 0) for win in self._windows.values())
        return live + self.evicted.get(key, 0)


class StreamingSink(InstrumentationSink):
    """Fold events on arrival; never store one.

    Retained state, by owner:

    * per *operation object* (``"<shard>.<op>"``): three
      :class:`QuantileSketch` — queue (``request``→``op_start``), service
      (``op_start``→``op_end``) and total (``request``→``op_end``) latency
      on the seq axis (the meaningful clock — see DESIGN.md §8);
    * per *wait object*: one wait-duration sketch (``blocked``→
      ``unblocked``);
    * one :class:`WindowedSeries` on the virtual clock: arrivals, op
      starts, completions (throughput), blocked entries, and max probed
      queue depth per window;
    * in-flight maps (open requests / services / blocked processes) —
      O(concurrent clients), drained as operations finish and scrubbed on
      kills so crashed clients never pin memory.

    ``shard_prefix`` optionally collapses object labels to their shard
    (``"shard3.put"`` → ``"shard3"``), keeping sketch count O(shards)
    instead of O(shards × ops) when per-op resolution is not needed.
    """

    def __init__(
        self,
        window: int = 32,
        max_windows: int = 64,
        rel_error: float = DEFAULT_REL_ERROR,
        shard_prefix: bool = False,
    ) -> None:
        self.rel_error = rel_error
        self.shard_prefix = shard_prefix
        self.windows = WindowedSeries(width=window, max_windows=max_windows)
        #: obj -> {"queue": sketch, "service": sketch, "total": sketch}
        self.op_sketches: Dict[str, Dict[str, QuantileSketch]] = {}
        #: wait-obj -> blocked-duration sketch
        self.wait_sketches: Dict[str, QuantileSketch] = {}
        self.events = 0
        self.steps = 0
        self.context_switches = 0
        self.completed = 0
        self.max_depth: Dict[str, int] = {}
        self._last_pid: Optional[int] = None
        #: obj -> FIFO of (pname, start_seq) for open requests.  An
        #: op_start pops the oldest open request on the label from *any*
        #: process, even when the starter has one of its own.  This is not
        #: OpFold's own-request-first rule (runtime/trace.py): with arrival
        #: seed 0 at 1024 clients it pops another process's request for
        #: 634 of 4,096 starts on monitor, 946 on serializer and all on
        #: csp.  It stays until a benchmark change regenerates the
        #: load_sweep reference that pins these latencies (DESIGN.md §13).
        self._pending: Dict[str, Deque[Tuple[str, int]]] = {}
        #: (pname, obj) -> (op_start seq, request seq or None)
        self._service: Dict[Tuple[str, str], Tuple[int, Optional[int]]] = {}
        #: pname -> (wait obj, start seq)
        self._blocked: Dict[str, Tuple[str, int]] = {}
        #: pname -> its entries in ``_pending`` and ``_service``; a process
        #: that ends with none open skips the scrub scan.
        self._open: Dict[str, int] = {}
        #: obj -> label, memoized (a run touches a handful of objects).
        self._labels: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _label(self, obj: str) -> str:
        label = self._labels.get(obj)
        if label is None:
            label = obj
            if self.shard_prefix:
                head, dot, __ = obj.partition(".")
                if dot:
                    label = head
            self._labels[obj] = label
        return label

    def _op(self, obj: str) -> Dict[str, QuantileSketch]:
        sketches = self.op_sketches.get(obj)
        if sketches is None:
            sketches = self.op_sketches[obj] = {
                "queue": QuantileSketch(self.rel_error),
                "service": QuantileSketch(self.rel_error),
                "total": QuantileSketch(self.rel_error),
            }
        return sketches

    # ------------------------------------------------------------------
    # Sink protocol
    # ------------------------------------------------------------------
    def on_step(self, proc, seq: int, time: int) -> None:
        self.steps += 1
        if self._last_pid is not None and self._last_pid != proc.pid:
            self.context_switches += 1
        self._last_pid = proc.pid

    def on_probe(
        self, category: str, obj: str, value: Any, seq: int, time: int
    ) -> None:
        if type(value) is int:
            depth = value
        else:
            try:
                depth = int(value)
            except (TypeError, ValueError):
                return
        label = self._label(obj)
        if depth > self.max_depth.get(label, 0):
            self.max_depth[label] = depth
        self.windows.gauge(time, "depth", depth)

    def on_event(self, event) -> None:
        self.events += 1
        fold = _FOLDS.get(event.kind)
        if fold is not None:
            fold(self, event)

    # ------------------------------------------------------------------
    # Per-kind folds
    # ------------------------------------------------------------------
    def _on_request(self, event) -> None:
        pname = event.pname
        obj = self._label(event.obj)
        fifo = self._pending.get(obj)
        if fifo is None:
            fifo = self._pending[obj] = deque()
        fifo.append((pname, event.seq))
        self._open[pname] = self._open.get(pname, 0) + 1
        self.windows.add(event.time, "arrivals")

    def _on_op_start(self, event) -> None:
        pname = event.pname
        obj = self._label(event.obj)
        fifo = self._pending.get(obj)
        requested: Optional[int] = None
        if fifo:
            requester, requested = fifo.popleft()
            self._open[requester] -= 1
            self._op(obj)["queue"].observe(event.seq - requested)
        key = (pname, obj)
        if key not in self._service:
            self._open[pname] = self._open.get(pname, 0) + 1
        self._service[key] = (event.seq, requested)
        self.windows.add(event.time, "op_start")

    def _close(
        self, pname: str, obj: str
    ) -> Optional[Tuple[int, Optional[int]]]:
        """Pop ``pname``'s open service on ``obj``."""
        open_op = self._service.pop((pname, obj), None)
        if open_op is not None:
            self._open[pname] -= 1
        return open_op

    def _on_op_end(self, event) -> None:
        obj = self._label(event.obj)
        open_op = self._close(event.pname, obj)
        if open_op is not None:
            started, requested = open_op
            sketches = self._op(obj)
            sketches["service"].observe(event.seq - started)
            if requested is not None:
                sketches["total"].observe(event.seq - requested)
            self.completed += 1
            self.windows.add(event.time, "completed")

    def _on_op_abort(self, event) -> None:
        self._close(event.pname, self._label(event.obj))

    def _on_blocked(self, event) -> None:
        self._blocked[event.pname] = (self._label(event.obj), event.seq)
        self.windows.add(event.time, "blocked")

    def _on_unblocked(self, event) -> None:
        # obj carries the *woken* process's name (waker-attributed).
        open_wait = self._blocked.pop(event.obj, None)
        if open_wait is not None:
            waited_on, since = open_wait
            sketch = self.wait_sketches.get(waited_on)
            if sketch is None:
                sketch = self.wait_sketches[waited_on] = QuantileSketch(
                    self.rel_error)
            sketch.observe(event.seq - since)

    def _on_killed(self, event) -> None:
        self._scrub(event.obj)  # the victim's name

    def _on_exit(self, event) -> None:
        self._scrub(event.pname)

    def _scrub(self, name: str) -> None:
        """Drop ``name``'s in-flight state so crashed or finished clients
        never pin memory (partial ops are dropped, not counted — a
        half-measured latency would skew the sketch)."""
        self._blocked.pop(name, None)
        if not self._open.pop(name, 0):
            return
        for key in [k for k in self._service if k[0] == name]:
            del self._service[key]
        for fifo in self._pending.values():
            kept = [entry for entry in fifo if entry[0] != name]
            if len(kept) != len(fifo):
                fifo.clear()
                fifo.extend(kept)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def memory_cells(self) -> int:
        """Total retained cells across every structure — the number the
        O(shards × windows) bench assertion pins.  Proportional to actual
        memory (each cell is one dict slot), and deterministic, which a
        tracemalloc byte count is not."""
        cells = self.windows.cells()
        for sketches in self.op_sketches.values():
            cells += sum(s.bucket_count() for s in sketches.values())
        cells += sum(s.bucket_count() for s in self.wait_sketches.values())
        cells += sum(len(fifo) for fifo in self._pending.values())
        cells += len(self._service) + len(self._blocked)
        return cells

    def in_flight(self) -> int:
        """Open requests + services + waits (should drain to 0 on a clean
        run once every client finished)."""
        return (sum(len(f) for f in self._pending.values())
                + len(self._service) + len(self._blocked))

    def merged_latency(self, half: str = "total") -> QuantileSketch:
        """One fleet-wide sketch: every object's ``half`` sketch merged —
        the mergeability story (per-shard sketches combine without raw
        samples)."""
        merged = QuantileSketch(self.rel_error)
        for sketches in self.op_sketches.values():
            merged.merge(sketches[half])
        return merged

    def merged_wait(self) -> QuantileSketch:
        merged = QuantileSketch(self.rel_error)
        for sketch in self.wait_sketches.values():
            merged.merge(sketch)
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "steps": self.steps,
            "context_switches": self.context_switches,
            "completed": self.completed,
            "in_flight": self.in_flight(),
            "memory_cells": self.memory_cells(),
            "max_depth": dict(self.max_depth),
            "latency": {
                half: self.merged_latency(half).to_dict()
                for half in ("queue", "service", "total")
            },
            "wait": self.merged_wait().to_dict(),
            "objects": {
                obj: {half: s.to_dict() for half, s in sketches.items()}
                for obj, sketches in sorted(self.op_sketches.items())
            },
            "windows": self.windows.series(),
            "evicted_windows": self.windows.evicted_windows,
        }


#: Event kind -> :class:`StreamingSink` fold; every other kind is only
#: counted.  Plain functions, not bound methods: a table of bound methods
#: on the sink would make every sink a cycle.
_FOLDS: Dict[str, Callable[[StreamingSink, Any], None]] = {
    "request": StreamingSink._on_request,
    "op_start": StreamingSink._on_op_start,
    "op_end": StreamingSink._on_op_end,
    "op_abort": StreamingSink._on_op_abort,
    "blocked": StreamingSink._on_blocked,
    "unblocked": StreamingSink._on_unblocked,
    "killed": StreamingSink._on_killed,
    "failed": StreamingSink._on_killed,
    "exit": StreamingSink._on_exit,
}
