"""Load observatory: arrival processes, the sharded swarm engine, and
saturation sweeps."""

import itertools

import pytest

from repro.load import (
    ARRIVALS,
    LOAD_MECHANISMS,
    ShardedResource,
    ascii_curve,
    bursty,
    diurnal,
    make_arrivals,
    poisson,
    render_curves,
    run_load,
    saturation_curve,
)
from repro.load.arrivals import DIURNAL_PERIOD
from repro.runtime.scheduler import Scheduler


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def _take(gen, n):
    return list(itertools.islice(gen, n))


@pytest.mark.parametrize("name", sorted(ARRIVALS))
def test_arrivals_deterministic_and_nonnegative(name):
    a = _take(make_arrivals(name, 0.25, seed=9), 200)
    b = _take(make_arrivals(name, 0.25, seed=9), 200)
    c = _take(make_arrivals(name, 0.25, seed=10), 200)
    assert a == b, "same seed must replay identically"
    assert a != c, "different seed must differ"
    assert all(isinstance(g, int) and g >= 0 for g in a)


@pytest.mark.parametrize("name", sorted(ARRIVALS))
def test_arrivals_hit_requested_mean_rate(name):
    rate = 0.2
    gaps = _take(make_arrivals(name, rate, seed=1), 3000)
    realized = len(gaps) / float(sum(gaps))
    # Integer quantization carries residue, so the long-run rate converges.
    assert realized == pytest.approx(rate, rel=0.15)


def test_bursty_has_heavier_tail_than_poisson():
    n = 2000
    p = sorted(_take(poisson(0.2, seed=2), n))
    b = sorted(_take(bursty(0.2, seed=2), n))
    # Same mean rate, but the off-period silences dominate the tail.
    assert b[-1] > p[-1]
    assert b[int(n * 0.5)] <= p[int(n * 0.5)]


def test_diurnal_rate_tracks_the_phase():
    gaps = _take(diurnal(0.5, seed=4), 4000)
    now, peak_arrivals, trough_arrivals = 0, 0, 0
    for g in gaps:
        now += g
        phase = (now % DIURNAL_PERIOD) / float(DIURNAL_PERIOD)
        if 0.15 <= phase <= 0.35:      # around the sine peak
            peak_arrivals += 1
        elif 0.65 <= phase <= 0.85:    # around the trough
            trough_arrivals += 1
    assert peak_arrivals > 2 * trough_arrivals


def test_arrival_validation():
    with pytest.raises(KeyError):
        make_arrivals("nope", 1.0)
    with pytest.raises(ValueError):
        next(poisson(0.0))
    with pytest.raises(ValueError):
        next(bursty(0.0))
    with pytest.raises(ValueError):
        next(diurnal(-1.0))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def test_sharded_resource_routes_round_robin():
    sched = Scheduler()
    resource = ShardedResource(sched, "semaphore", shards=3)
    names = [resource.route(j).name for j in range(6)]
    assert names == ["shard0", "shard1", "shard2"] * 2
    with pytest.raises(KeyError):
        ShardedResource(sched, "mutex9000")
    with pytest.raises(ValueError):
        ShardedResource(sched, "semaphore", shards=0)


@pytest.mark.parametrize("mechanism", LOAD_MECHANISMS)
def test_run_load_completes_all_ops(mechanism):
    point, sink = run_load(mechanism, clients=25, shards=2, ops=2,
                           rate=0.5, seed=1)
    # 25 clients x 2 cycles x (put + get); CSP's daemon server may hold
    # one op open when the run ends.
    assert point.completed >= 100 - 1
    assert sink.in_flight() <= 2
    assert point.duration_ticks > 0
    assert point.steps_per_op > 1.0
    assert point.latency["p99"] >= point.latency["p50"] > 0


def test_run_load_is_deterministic():
    a, _ = run_load("monitor", clients=30, ops=2, seed=5)
    b, _ = run_load("monitor", clients=30, ops=2, seed=5)
    assert a.to_dict() == b.to_dict() or (
        # wall_seconds is the only nondeterministic field
        {k: v for k, v in a.to_dict().items() if k != "wall_seconds"}
        == {k: v for k, v in b.to_dict().items() if k != "wall_seconds"}
    )


def test_run_load_windows_cover_the_run():
    point, sink = run_load("semaphore", clients=40, ops=1, rate=0.25,
                           seed=0)
    series = point.windows
    assert series, "windowed series must be populated"
    assert series[0]["start"] % 32 == 0
    assert sum(w.get("arrivals", 0) for w in series) == 80  # put+get requests
    assert sum(w.get("completed", 0) for w in series) == point.completed


def test_saturation_curve_latency_grows_with_load():
    points = saturation_curve("serializer", [8, 128], ops=2, seed=0)
    assert [p.clients for p in points] == [8, 128]
    assert points[0].offered_rate < points[1].offered_rate
    assert points[1].latency["p95"] >= points[0].latency["p95"]
    assert points[1].throughput > points[0].throughput


def test_render_curves_mentions_every_mechanism():
    curves = {m: saturation_curve(m, [8], ops=1)
              for m in ("semaphore", "ccr")}
    text = render_curves(curves)
    assert "semaphore" in text and "ccr" in text
    assert "throughput (ops/ktick) vs clients" in text
    assert ascii_curve([], lambda p: 0, "x") == "(no points)"
