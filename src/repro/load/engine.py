"""The heavy-traffic workload engine: client swarms over sharded resources.

This is the load observatory's generator half.  A *load run* is:

* **N sharded resource instances** — independent bounded buffers, one per
  shard, each synchronized by the mechanism under test (the same solution
  classes the correctness suite verifies — nothing is reimplemented for
  load);
* a **router** placing client ``j`` on shard ``j % shards`` (deterministic,
  so replays and cross-mechanism comparisons see identical placement);
* an **open arrival process** (:mod:`repro.load.arrivals`) on the virtual
  clock: a driver process sleeps out the inter-arrival gaps and spawns one
  lightweight client per arrival — clients are *not* pre-spawned, so the
  ready queue stays proportional to concurrency, not to total population;
* each client runs ``ops`` put→get cycles against its shard and exits.
  Put-then-get keeps every shard conservation-balanced at any population
  (a full buffer implies ≥capacity clients holding an item they are about
  to get back, so the swarm can never wedge itself), which is what lets
  the sweep scale to arbitrary client counts.

Telemetry is the :class:`~repro.obs.streaming.StreamingSink` — the whole
point: a sweep point logs O(clients × ops) events but retains only
O(shards × windows) state, so the observatory can watch runs the
recording pipeline cannot hold.

**Axes.**  Throughput is ops per 1000 virtual ticks (arrivals drive the
clock); the *mechanism cost* is scheduler steps per completed op (the
§5.3 "serializers cost more" claim, measured); latency percentiles are on
the seq axis, the runtime's meaningful clock.  :func:`saturation_curve`
sweeps client count with a fixed arrival horizon, so offered load rises
with population and the latency tail shows each mechanism's saturation
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Generator, Iterable, List, Optional

from ..obs.streaming import StreamingSink
from ..problems import bounded_buffer, eventcount_impls
from ..runtime.scheduler import Scheduler
from .arrivals import make_arrivals

#: The six §5 mechanisms E19 compares (eventcount rides along as the
#: seventh where callers ask for it explicitly).
LOAD_MECHANISMS = ("semaphore", "monitor", "serializer", "pathexpr_open",
                   "csp", "ccr")

_IMPLS = {
    "semaphore": bounded_buffer.SemaphoreBoundedBuffer,
    "monitor": bounded_buffer.MonitorBoundedBuffer,
    "serializer": bounded_buffer.SerializerBoundedBuffer,
    "pathexpr_open": bounded_buffer.OpenPathBoundedBuffer,
    "csp": bounded_buffer.CspBoundedBuffer,
    "ccr": bounded_buffer.CcrBoundedBuffer,
    "eventcount": eventcount_impls.EventCountBoundedBuffer,
}


class ShardedResource:
    """N independent mechanism-synchronized buffers behind a router."""

    def __init__(self, sched: Scheduler, mechanism: str, shards: int = 2,
                 capacity: int = 8) -> None:
        try:
            cls = _IMPLS[mechanism]
        except KeyError:
            raise KeyError("no load implementation for mechanism {!r}; "
                           "choose one of {}".format(
                               mechanism, ", ".join(sorted(_IMPLS))))
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.mechanism = mechanism
        self.instances = [
            cls(sched, capacity=capacity, name="shard{}".format(i))
            for i in range(shards)
        ]

    def route(self, client: int):
        """The shard instance serving client ``client`` (deterministic)."""
        return self.instances[client % len(self.instances)]


@dataclass
class LoadPoint:
    """One sweep point: a (mechanism, client count) measurement."""

    mechanism: str
    clients: int
    shards: int
    offered_rate: float
    completed: int
    duration_ticks: int
    steps: int
    wall_seconds: float
    throughput: float            # ops per 1000 virtual ticks
    steps_per_op: float          # mechanism cost (§5.3, measured)
    latency: Dict[str, float]    # p50/p95/p99/mean on the seq axis
    wait: Dict[str, float]
    max_depth: int
    memory_cells: int
    events: int
    windows: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mechanism": self.mechanism,
            "clients": self.clients,
            "shards": self.shards,
            "offered_rate": round(self.offered_rate, 4),
            "completed": self.completed,
            "duration_ticks": self.duration_ticks,
            "steps": self.steps,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput": round(self.throughput, 3),
            "steps_per_op": round(self.steps_per_op, 3),
            "latency": self.latency,
            "wait": self.wait,
            "max_depth": self.max_depth,
            "memory_cells": self.memory_cells,
            "events": self.events,
        }


def run_load(
    mechanism: str,
    clients: int = 64,
    shards: int = 2,
    arrival: str = "poisson",
    rate: float = 0.5,
    ops: int = 1,
    capacity: int = 8,
    seed: int = 0,
    sink: Optional[StreamingSink] = None,
    keep_windows: bool = True,
):
    """One load run; returns ``(LoadPoint, sink)``.

    ``sink`` injects a pre-configured :class:`StreamingSink` (the memory
    bench does this); by default one is built with ``shard_prefix=True``
    so sketches are keyed per shard.
    """
    if sink is None:
        sink = StreamingSink(shard_prefix=True)
    # Step budget scales with the swarm; per-op step costs are two orders
    # of magnitude below this, so the limit only catches genuine wedges.
    budget = max(500_000, clients * ops * 400)
    # Nothing reads this run's trace: the sink is its only observer, so the
    # scheduler keeps no events and memory follows the swarm's width.
    sched = Scheduler(sink=sink, max_steps=budget, keep_trace=False)
    resource = ShardedResource(sched, mechanism, shards=shards,
                               capacity=capacity)
    gaps = make_arrivals(arrival, rate, seed=seed)

    def client_body(j: int):
        impl = resource.route(j)

        def body() -> Generator:
            for k in range(ops):
                yield from impl.put((j, k))
                yield from impl.get()
        return body

    def driver() -> Generator:
        for j in range(clients):
            gap = next(gaps)
            if gap > 0:
                yield from sched.sleep(gap)
            sched.spawn(client_body(j), name="c{}".format(j))

    sched.spawn(driver, name="driver")
    start = perf_counter()
    result = sched.run()
    wall = perf_counter() - start

    total = sink.merged_latency("total")
    waits = sink.merged_wait()
    ticks = max(result.time, 1)
    completed = sink.completed
    point = LoadPoint(
        mechanism=mechanism,
        clients=clients,
        shards=shards,
        offered_rate=rate,
        completed=completed,
        duration_ticks=result.time,
        steps=result.steps,
        wall_seconds=wall,
        throughput=1000.0 * completed / ticks,
        steps_per_op=result.steps / float(max(completed, 1)),
        latency={
            "p50": round(total.quantile(50), 2),
            "p95": round(total.quantile(95), 2),
            "p99": round(total.quantile(99), 2),
            "mean": round(total.mean, 2),
            "max": total.max,
        },
        wait={
            "p50": round(waits.quantile(50), 2),
            "p95": round(waits.quantile(95), 2),
            "p99": round(waits.quantile(99), 2),
            "count": waits.count,
        },
        max_depth=max(sink.max_depth.values(), default=0),
        memory_cells=sink.memory_cells(),
        events=sink.events,
        windows=sink.windows.series() if keep_windows else [],
    )
    return point, sink


#: Default sweep horizon: arrivals for every sweep point are spread over
#: this many virtual ticks, so a bigger population means a higher offered
#: rate — that is what makes the sweep a *saturation* curve.
DEFAULT_HORIZON = 256


def saturation_curve(
    mechanism: str,
    client_counts: Iterable[int],
    shards: int = 2,
    arrival: str = "poisson",
    horizon: int = DEFAULT_HORIZON,
    ops: int = 1,
    capacity: int = 8,
    seed: int = 0,
) -> List[LoadPoint]:
    """Sweep client counts at a fixed arrival horizon; one
    :class:`LoadPoint` per population size."""
    points = []
    for clients in client_counts:
        point, __ = run_load(
            mechanism, clients=clients, shards=shards, arrival=arrival,
            rate=clients / float(horizon), ops=ops, capacity=capacity,
            seed=seed, keep_windows=False,
        )
        points.append(point)
    return points


# ----------------------------------------------------------------------
# ASCII views
# ----------------------------------------------------------------------
def ascii_curve(points: List[LoadPoint], value, label: str) -> str:
    """One bar per sweep point: ``value(point)`` scaled to 44 columns."""
    if not points:
        return "(no points)"
    rows = [(p.clients, float(value(p))) for p in points]
    peak = max(v for __, v in rows) or 1.0
    lines = ["{} vs clients".format(label)]
    for clients, v in rows:
        bar = "#" * max(1 if v else 0, int(v * 44 / peak))
        lines.append("  %7d %10.1f %s" % (clients, v, bar))
    return "\n".join(lines)


def render_curves(curves: Dict[str, List[LoadPoint]]) -> str:
    """The full observatory report: a per-mechanism sweep table plus
    throughput and p95-latency ASCII curves."""
    lines = [
        "%-14s %8s %10s %9s %9s %9s %9s %7s"
        % ("mechanism", "clients", "throughput", "steps/op",
           "lat-p50", "lat-p95", "lat-p99", "maxQ"),
    ]
    for mechanism in curves:
        for p in curves[mechanism]:
            lines.append(
                "%-14s %8d %10.1f %9.2f %9.1f %9.1f %9.1f %7d"
                % (mechanism[:14], p.clients, p.throughput, p.steps_per_op,
                   p.latency["p50"], p.latency["p95"], p.latency["p99"],
                   p.max_depth))
    for mechanism, points in curves.items():
        lines.append("")
        lines.append("-- {} --".format(mechanism))
        lines.append(ascii_curve(points, lambda p: p.throughput,
                                 "throughput (ops/ktick)"))
        lines.append(ascii_curve(points, lambda p: p.latency["p95"],
                                 "latency p95 (seq)"))
    return "\n".join(lines)
