"""Tests for the run store and the ``repro regress`` gate.

The gate's contract, end to end through ``main()``: a clean re-run against
a freshly written baseline exits zero; a synthetic slowdown
(``--inject-delay``) trips it and exits nonzero.
"""

import json
import os
import re

import pytest

from repro.__main__ import main
from repro.obs import (
    GateRecord,
    RunStore,
    compare_records,
    dump_baseline,
    load_baseline,
    render_comparison,
)
from repro.obs.runstore import (
    RUNSTORE_SCHEMA,
    canonical_json,
    record_filename,
)
from repro.suite import load_tail_record, run_causal

BASELINES = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                         "baselines")


def _record(kind="causal", target="p/m", directions=None, **metrics):
    return GateRecord(kind, target, metrics=metrics,
                      directions=directions or {"makespan": "+",
                                                "steps": "+"})


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def test_record_round_trip():
    record = run_causal("bounded_buffer", "semaphore", seed=11).record
    clone = GateRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()
    assert clone.key == "causal:bounded_buffer/semaphore@seed11"
    assert set(record.to_dict()) == {"schema", "kind", "target", "seed",
                                     "metrics", "directions"}


def test_causal_record_is_flat_and_gates_its_costs():
    record = run_causal("alarm_clock", "monitor").record
    assert record.kind == "causal"
    assert record.target == "alarm_clock/monitor"
    assert all(isinstance(v, (int, float)) for v in record.metrics.values())
    assert record.directions == {"makespan": "+", "path_blocked_ticks": "+",
                                 "steps": "+", "context_switches": "+"}
    assert set(record.directions) <= set(record.metrics)
    # The critical path's nested breakdowns become dotted, ungated names.
    assert record.metrics["constraint_ticks.time"] > 0
    assert any(name.startswith("speedups.") and name.endswith(".saved")
               for name in record.metrics)


def test_record_rejects_newer_schema():
    data = run_causal("fcfs_resource", "serializer").record.to_dict()
    data["schema"] = RUNSTORE_SCHEMA + 1
    with pytest.raises(ValueError, match="newer"):
        GateRecord.from_dict(data)


def test_record_rejects_schema_1_naming_the_rewrite():
    """A schema-1 record (the per-field layout) is not read at all: the
    error says how to re-record the baseline."""
    old = {"schema": 1, "problem": "p", "mechanism": "m", "makespan": 10,
           "steps": 3}
    with pytest.raises(ValueError, match="repro regress --write-baseline"):
        GateRecord.from_dict(old)
    with pytest.raises(ValueError, match="older"):
        GateRecord.from_dict({"problem": "p", "mechanism": "m"})


@pytest.mark.parametrize("name,kind,count", [
    ("causality_baseline.json", "causal", 55),
    ("load_tail_baseline.json", "load", 6),
    ("explore_baseline.json", "explore", 1),
])
def test_committed_baselines_load_at_current_schema(name, kind, count):
    records = load_baseline(os.path.join(BASELINES, name))
    assert len(records) == count
    for record in records:
        assert record.schema == RUNSTORE_SCHEMA
        assert record.kind == kind
        assert record.directions
        assert set(record.directions) <= set(record.metrics)
    # Baselines are committed in canonical form.
    with open(os.path.join(BASELINES, name)) as fh:
        assert fh.read() == dump_baseline(records)


def test_canonical_json_is_byte_stable():
    record = run_causal("bounded_buffer", "csp").record
    assert canonical_json(record.to_dict()) == \
        canonical_json(GateRecord.from_dict(record.to_dict()).to_dict())
    assert canonical_json({}).endswith("\n")


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def test_store_save_and_load_all(tmp_path):
    store = RunStore(str(tmp_path))
    a = run_causal("bounded_buffer", "monitor").record
    b = run_causal("bounded_buffer", "monitor", seed=5).record
    store.save(a)
    store.save(b)
    loaded = store.load_all()
    assert [r.key for r in loaded] == sorted([a.key, b.key])
    assert [r.to_dict() for r in loaded] == [
        r.to_dict() for r in sorted((a, b), key=lambda r: r.key)]


def test_store_file_names_are_filesystem_safe(tmp_path):
    safe = re.compile(r"^[A-Za-z0-9_.-]+$")
    assert record_filename("explore", "fcfs_resource/monitor", None) == \
        "explore__fcfs_resource__monitor__fifo.json"
    assert record_filename("load", "monitor", 3) == "load__monitor__seed3.json"
    assert safe.match(record_filename("k:x", "a b/c\\d:e", 1))
    path = RunStore(str(tmp_path)).save(
        _record(kind="explore", target="fcfs_resource/monitor", runs=1))
    assert safe.match(os.path.basename(path))


def test_baseline_file_round_trip(tmp_path):
    records = [run_causal("one_slot_buffer", "csp").record,
               run_causal("one_slot_buffer", "monitor").record]
    path = tmp_path / "base.json"
    path.write_text(dump_baseline(records))
    loaded = load_baseline(str(path))
    assert [r.key for r in loaded] == sorted(r.key for r in records)


def test_baseline_directory_round_trip(tmp_path):
    store = RunStore(str(tmp_path))
    store.save(run_causal("fcfs_resource", "semaphore").record)
    loaded = load_baseline(str(tmp_path))
    assert [r.key for r in loaded] == ["causal:fcfs_resource/semaphore"]


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


def test_compare_records_threshold_and_absolute_floor():
    base = _record(makespan=100, steps=10)
    same = _record(makespan=100, steps=10)
    assert compare_records(base, same) == []
    # Improvements never regress.
    faster = _record(makespan=50, steps=10)
    assert compare_records(base, faster) == []
    # Past the threshold and the 2-tick floor: trips.
    slower = _record(makespan=120, steps=10)
    hits = compare_records(base, slower, threshold_pct=10.0)
    assert [(r.metric, r.baseline, r.current) for r in hits] == \
        [("makespan", 100, 120)]
    # Single-tick jitter on a tiny metric never trips, whatever the
    # percentage says.
    tiny = _record(makespan=100, steps=11)
    assert compare_records(base, tiny, threshold_pct=5.0) == []


def test_compare_records_gates_only_the_baseline_directions():
    base = _record(makespan=100, steps=10, events=10)
    # ``events`` is persisted but ungated: any growth is ignored.
    noisy = _record(makespan=100, steps=10, events=1000)
    assert compare_records(base, noisy) == []
    # A gated metric the current record lacks is not comparable.
    assert compare_records(base, _record(steps=10)) == []


def test_render_comparison_prints_each_rows_gated_metrics():
    explore = _record(kind="explore", target="fcfs_resource/monitor",
                      directions={"runs": "+", "schedules_per_sec": "-"},
                      runs=198, pruned=141, schedules_per_sec=2400)
    load = _record(kind="load", target="monitor",
                   directions={"latency_p95": "+", "makespan": "+"},
                   latency_p95=4, makespan=329, events=500)
    text = render_comparison([(explore, explore), (load, load)], [])
    explore_row, load_row = text.splitlines()[1:3]
    assert "runs 198 (198)" in explore_row
    assert "schedules_per_sec 2400 (2400)" in explore_row
    assert "makespan" not in explore_row and "blocked" not in explore_row
    assert "latency_p95 4 (4)" in load_row
    assert "makespan 329 (329)" in load_row
    assert "blocked" not in load_row and "events" not in load_row


# ----------------------------------------------------------------------
# End to end through the CLI
# ----------------------------------------------------------------------


def _write_baseline(tmp_path, capsys):
    base = str(tmp_path / "baseline.json")
    code = main(["regress", "--write-baseline", base,
                 "--problem", "bounded_buffer"])
    capsys.readouterr()
    assert code == 0
    return base


def test_regress_clean_rerun_exits_zero(tmp_path, capsys):
    base = _write_baseline(tmp_path, capsys)
    code = main(["regress", "--baseline", base,
                 "--problem", "bounded_buffer"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no regressions against baseline" in out


def test_regress_injected_delay_exits_nonzero(tmp_path, capsys):
    base = _write_baseline(tmp_path, capsys)
    code = main(["regress", "--baseline", base,
                 "--problem", "bounded_buffer",
                 "--inject-delay", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["regressions"], "synthetic slowdown must trip the gate"
    keys = {r["metric"] for r in payload["regressions"]}
    assert keys & {"makespan", "path_blocked_ticks"}


def test_regress_requires_a_baseline(capsys):
    assert main(["regress"]) == 2


def test_causal_cli_saves_a_record(tmp_path, capsys):
    store = str(tmp_path / "runs")
    code = main(["causal", "bounded_buffer", "semaphore",
                 "--store", store])
    out = capsys.readouterr().out
    assert code == 0
    assert "critical path" in out
    assert "record saved to" in out
    [saved] = RunStore(store).load_all()
    assert saved.key == "causal:bounded_buffer/semaphore"
    assert saved.metrics["makespan"] > 0


def test_causal_cli_chrome_export_highlights_path(tmp_path, capsys):
    out_path = str(tmp_path / "causal.json")
    code = main(["causal", "bounded_buffer", "monitor", "--no-save",
                 "--export", "chrome", "--out", out_path])
    capsys.readouterr()
    assert code == 0
    with open(out_path) as fh:
        doc = json.load(fh)
    assert any(entry.get("cat") == "critical"
               for entry in doc["traceEvents"])


def test_causal_cli_unknown_pair_lists_choices(capsys):
    code = main(["causal", "nope", "nothing", "--no-save"])
    out = capsys.readouterr().out
    assert code == 1
    assert "bounded_buffer/monitor" in out


# ----------------------------------------------------------------------
# Satellite: metrics --out persists comparison JSON
# ----------------------------------------------------------------------


def test_metrics_out_persists_comparison(tmp_path, capsys):
    out_path = str(tmp_path / "metrics.json")
    code = main(["metrics", "--problem", "one_slot_buffer",
                 "--out", out_path])
    capsys.readouterr()
    assert code == 0
    with open(out_path) as fh:
        text = fh.read()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert all(row["problem"] == "one_slot_buffer" for row in payload)
    assert {"problem", "mechanism", "seed", "metrics"} <= set(payload[0])


# ----------------------------------------------------------------------
# Satellite: bench persist() canonicalization
# ----------------------------------------------------------------------


def test_bench_persist_is_canonical_and_merges(tmp_path):
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks"))
    try:
        from conftest import persist
    finally:
        sys.path.pop(0)

    first = persist("demo", {"b": 2, "a": 1}, directory=str(tmp_path))
    text1 = open(first).read()
    assert text1.endswith("\n")
    assert text1.index('"a"') < text1.index('"b"')
    # Re-persisting identical data is byte-identical (diffable commits).
    persist("demo", {"b": 2, "a": 1}, directory=str(tmp_path))
    assert open(first).read() == text1
    # New top-level keys merge; old ones survive.
    persist("demo", {"c": {"z": 1}}, directory=str(tmp_path))
    merged = json.loads(open(first).read())
    assert merged == {"a": 1, "b": 2, "c": {"z": 1}}


# ----------------------------------------------------------------------
# Satellite: load-sweep latency tails through the gate
# ----------------------------------------------------------------------


class _Point:
    def __init__(self, clients, p95, p99, ticks=100, steps=500, events=50):
        self.clients = clients
        self.latency = {"p95": p95, "p99": p99}
        self.duration_ticks = ticks
        self.steps = steps
        self.events = events


def test_load_tail_record_takes_largest_population():
    record = load_tail_record(
        "monitor", [_Point(8, 4.0, 6.0), _Point(32, 9.0, 14.0)], seed=3)
    assert record.kind == "load"
    assert record.key == "load:monitor@seed3"
    assert record.metrics == {"makespan": 100, "steps": 500, "events": 50,
                              "latency_p95": 9, "latency_p99": 14}
    # A load run measures no critical path: no blocked-ticks column.
    assert "path_blocked_ticks" not in record.directions
    clone = GateRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()


def test_latency_tail_gate_and_none_skip():
    tails = {"makespan": "+", "latency_p95": "+", "latency_p99": "+"}
    base = _record(kind="load", target="m", directions=tails, makespan=100,
                   latency_p95=20, latency_p99=40)
    # Tail regression past threshold + floor: trips on the tail metrics.
    worse = _record(kind="load", target="m", directions=tails, makespan=100,
                    latency_p95=30, latency_p99=60)
    hits = compare_records(base, worse, threshold_pct=10.0)
    assert {r.metric for r in hits} == {"latency_p95", "latency_p99"}
    # A record without tails against a tail baseline: skipped, not
    # treated as zero — and a baseline without tails gates none.
    plain = _record(kind="load", target="m", directions={"makespan": "+"},
                    makespan=100)
    assert compare_records(base, plain) == []
    assert compare_records(plain, worse) == []


def test_regress_load_cli_round_trip(tmp_path, capsys):
    base = str(tmp_path / "load_tail.json")
    code = main(["regress", "--load", "--mechanism", "monitor",
                 "--write-baseline", base])
    capsys.readouterr()
    assert code == 0
    records = load_baseline(base)
    assert [r.key for r in records] == ["load:monitor"]
    assert records[0].metrics["latency_p95"] is not None

    code = main(["regress", "--load", "--baseline", base, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["compared"] == ["load:monitor"]
    assert payload["regressions"] == []

    # A doctored baseline (tails lowered) must trip the gate on p95/p99.
    doctored = [r.to_dict() for r in records]
    tails = doctored[0]["metrics"]
    tails["latency_p95"] = max(1, tails["latency_p95"] - 3)
    tails["latency_p99"] = max(1, tails["latency_p99"] - 5)
    with open(base, "w") as fh:
        json.dump(doctored, fh)
    code = main(["regress", "--load", "--baseline", base, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {r["metric"] for r in payload["regressions"]} <= \
        {"latency_p95", "latency_p99"}
    assert payload["regressions"]
