"""The StreamingSink fold against its previous implementation.

:class:`ReferenceStreamingSink` below keeps the sink's folding code as it
was before the fold was restructured (one ``if``/``elif`` chain over event
kinds, list FIFOs popped from the front, a full scrub scan on every kill
and exit, no label memo, no current-window cache), verbatim.  Reporting
(``to_dict`` and the helpers it calls) is inherited: it did not change.

Event, step and probe streams are recorded from real ``run_load`` swarms
and from fault-injected ``bounded_buffer`` runs, replayed into both sinks,
and their ``to_dict()`` summaries must be equal.
"""

import random
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.explore.targets import get_target
from repro.explore.targets import available_targets
from repro.load import LOAD_MECHANISMS, run_load
from repro.load.engine import DEFAULT_HORIZON
from repro.obs.streaming import (
    DEFAULT_REL_ERROR, QuantileSketch, StreamingSink, WindowedSeries)
from repro.runtime import FaultPlan, RandomPolicy
from repro.runtime.trace import Event

#: Sink configurations every stream is replayed under: the one run_load
#: builds, and a narrow one that evicts windows and keeps full labels.
CONFIGS = (
    {"window": 32, "max_windows": 64, "shard_prefix": True},
    {"window": 8, "max_windows": 4, "shard_prefix": False},
)

HOOKS = ("on_event", "on_step", "on_probe")


class ReferenceWindowedSeries(WindowedSeries):
    """``WindowedSeries`` with the window writes as they were."""

    def _window(self, time: int) -> Dict[str, int]:
        index = time // self.width
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
        return win

    def add(self, time: int, key: str, amount: int = 1) -> None:
        win = self._window(time)
        win[key] = win.get(key, 0) + amount

    def gauge(self, time: int, key: str, value: int) -> None:
        key = "max_" + key
        win = self._window(time)
        if value > win.get(key, 0):
            win[key] = value


class ReferenceStreamingSink(StreamingSink):
    """``StreamingSink`` with the fold as it was."""

    def __init__(
        self,
        window: int = 32,
        max_windows: int = 64,
        rel_error: float = DEFAULT_REL_ERROR,
        shard_prefix: bool = False,
    ) -> None:
        self.rel_error = rel_error
        self.shard_prefix = shard_prefix
        self.windows = ReferenceWindowedSeries(width=window,
                                               max_windows=max_windows)
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
        self._pending: Dict[str, List[Tuple[str, int]]] = {}
        #: (pname, obj) -> (op_start seq, request seq or None)
        self._service: Dict[Tuple[str, str], Tuple[int, Optional[int]]] = {}
        #: pname -> (wait obj, start seq)
        self._blocked: Dict[str, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    def _label(self, obj: str) -> str:
        if self.shard_prefix:
            head, dot, __ = obj.partition(".")
            if dot:
                return head
        return obj

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
        kind = event.kind
        if kind == "request":
            obj = self._label(event.obj)
            self._pending.setdefault(obj, []).append(
                (event.pname, event.seq))
            self.windows.add(event.time, "arrivals")
        elif kind == "op_start":
            obj = self._label(event.obj)
            fifo = self._pending.get(obj)
            requested: Optional[int] = None
            if fifo:
                __, requested = fifo.pop(0)
                if not fifo:
                    del self._pending[obj]
                self._op(obj)["queue"].observe(event.seq - requested)
            self._service[(event.pname, obj)] = (event.seq, requested)
            self.windows.add(event.time, "op_start")
        elif kind in ("op_end", "op_abort"):
            obj = self._label(event.obj)
            open_op = self._service.pop((event.pname, obj), None)
            if open_op is not None and kind == "op_end":
                started, requested = open_op
                sketches = self._op(obj)
                sketches["service"].observe(event.seq - started)
                if requested is not None:
                    sketches["total"].observe(event.seq - requested)
                self.completed += 1
                self.windows.add(event.time, "completed")
        elif kind == "blocked":
            self._blocked[event.pname] = (self._label(event.obj), event.seq)
            self.windows.add(event.time, "blocked")
        elif kind == "unblocked":
            # obj carries the *woken* process's name (waker-attributed).
            open_wait = self._blocked.pop(event.obj, None)
            if open_wait is not None:
                waited_on, since = open_wait
                sketch = self.wait_sketches.get(waited_on)
                if sketch is None:
                    sketch = self.wait_sketches[waited_on] = QuantileSketch(
                        self.rel_error)
                sketch.observe(event.seq - since)
        elif kind in ("killed", "failed", "exit"):
            # Scrub the victim's in-flight state so crashed or finished
            # clients never pin memory (partial ops are dropped, not
            # counted — a half-measured latency would skew the sketch).
            name = event.obj if kind != "exit" else event.pname
            self._blocked.pop(name, None)
            for key in [k for k in self._service if k[0] == name]:
                del self._service[key]
            for fifo in self._pending.values():
                fifo[:] = [entry for entry in fifo if entry[0] != name]


# ----------------------------------------------------------------------
# Recording and replay
# ----------------------------------------------------------------------
def recording(sink: StreamingSink) -> List[Tuple[str, tuple]]:
    """Wrap ``sink``'s three hooks so every call is also appended, in
    order, to the returned list."""
    stream: List[Tuple[str, tuple]] = []

    def wrap(hook, original):
        def recorded(*args):
            stream.append((hook, args))
            original(*args)
        return recorded

    for hook in HOOKS:
        setattr(sink, hook, wrap(hook, getattr(sink, hook)))
    return stream


def replay(stream, sink: StreamingSink) -> Dict[str, Any]:
    for hook, args in stream:
        getattr(sink, hook)(*args)
    return sink.to_dict()


def assert_folds_agree(stream) -> None:
    for config in CONFIGS:
        assert (replay(stream, StreamingSink(**config))
                == replay(stream, ReferenceStreamingSink(**config))), config


# ----------------------------------------------------------------------
# Streams from real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mechanism", LOAD_MECHANISMS)
def test_load_streams_fold_identically(mechanism):
    for clients in (64, 256):
        for seed in (0, 1):
            sink = StreamingSink(window=32, max_windows=64,
                                 shard_prefix=True)
            stream = recording(sink)
            run_load(mechanism, clients=clients,
                     rate=clients / float(DEFAULT_HORIZON), ops=2,
                     seed=seed, sink=sink, keep_windows=False)
            # A put and a get per op; CSP's server may die mid-serve.
            assert sink.completed >= clients * 2 * 2 - 2
            assert_folds_agree(stream)


BUFFER_TARGETS = [m for p, m in available_targets()
                  if p == "bounded_buffer"]


@pytest.mark.parametrize("mechanism", BUFFER_TARGETS)
def test_killed_buffer_streams_fold_identically(mechanism):
    # Every single kill of every process under three schedules; at least
    # one kill must land mid-operation, so the scrub drops open entries.
    target = get_target("bounded_buffer", mechanism)
    scrubbed = 0
    for seed in range(3):
        base = target.build_and_run(RandomPolicy(seed))
        for name, steps in base.proc_steps.items():
            for k in range(steps + 1):
                sink = StreamingSink()
                stream = recording(sink)
                plan = FaultPlan().kill(name, at_step=k)
                try:
                    target.build_and_run(RandomPolicy(seed),
                                         fault_plan=plan, sink=sink)
                except Exception:  # noqa: BLE001 - a faulted run may raise
                    continue
                assert_folds_agree(stream)
                reference = ReferenceStreamingSink()
                for hook, args in stream:
                    before = reference.in_flight()
                    getattr(reference, hook)(*args)
                    if (hook == "on_event" and args[0].kind == "killed"
                            and reference.in_flight() < before):
                        scrubbed += 1
    assert scrubbed, "no kill landed while the victim had an op in flight"


# ----------------------------------------------------------------------
# Synthetic streams: the corner cases real runs rarely reach
# ----------------------------------------------------------------------
KINDS = ("request", "op_start", "op_end", "op_abort", "blocked",
         "unblocked", "killed", "failed", "exit", "enter", "sem_p")
PROBE_VALUES = (0, 1, 3, 7, True, "4", "deep", None, 2.5)


class _Proc:
    def __init__(self, pid: int) -> None:
        self.pid = pid


@pytest.mark.parametrize("seed", range(8))
def test_random_streams_fold_identically(seed):
    # Few names and objects, so starts overwrite open services, requests
    # of a killed process sit in several FIFOs, and starts pop other
    # processes' requests.
    rng = random.Random(seed)
    names = ["p0", "p1", "p2", "p3"]
    objs = ["s0.put", "s0.get", "s1.put", "lock"]
    stream = []
    time = 0
    for seq in range(3000):
        # Mostly forward, sometimes back past evicted windows.
        time = max(0, time + rng.choice((0, 0, 0, 1, 5, 9, -40)))
        roll = rng.random()
        if roll < 0.1:
            stream.append(("on_step", (_Proc(rng.randrange(4)), seq, time)))
        elif roll < 0.2:
            stream.append(("on_probe", ("depth", rng.choice(objs),
                                        rng.choice(PROBE_VALUES), seq,
                                        time)))
        else:
            kind = rng.choice(KINDS)
            pname = rng.choice(names)
            if kind in ("unblocked", "killed", "failed"):
                obj = rng.choice(names)
            else:
                obj = rng.choice(objs)
            stream.append(("on_event", (Event(
                seq, time, names.index(pname), pname, kind, obj),)))
    assert_folds_agree(stream)
