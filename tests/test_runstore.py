"""Tests for the run store and the ``repro regress`` gate.

The gate's contract, end to end through ``main()``: a clean re-run against
a freshly written baseline exits zero; a synthetic slowdown
(``--inject-delay``) trips it and exits nonzero.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.obs import (
    RunRecord,
    RunStore,
    compare_records,
    dump_baseline,
    load_baseline,
    run_causal,
)
from repro.obs.runstore import RUNSTORE_SCHEMA, canonical_json


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def test_record_round_trip():
    record = run_causal("bounded_buffer", "semaphore", seed=11).record
    clone = RunRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()
    assert clone.key == "bounded_buffer/semaphore@seed11"


def test_record_rejects_newer_schema():
    data = run_causal("fcfs_resource", "serializer").record.to_dict()
    data["schema"] = RUNSTORE_SCHEMA + 1
    with pytest.raises(ValueError, match="newer"):
        RunRecord.from_dict(data)


def test_record_tolerates_older_partial_schema():
    """Loading an old record with missing fields must not invent values —
    absent counters load as zero and never trip the >=2-tick guard alone."""
    record = RunRecord.from_dict(
        {"schema": 1, "problem": "p", "mechanism": "m", "makespan": 10})
    assert record.makespan == 10
    assert record.steps == 0
    assert record.constraint_ticks == {}


def test_canonical_json_is_byte_stable():
    record = run_causal("bounded_buffer", "csp").record
    assert canonical_json(record.to_dict()) == \
        canonical_json(RunRecord.from_dict(record.to_dict()).to_dict())
    assert canonical_json({}).endswith("\n")


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def test_store_save_load_and_load_all(tmp_path):
    store = RunStore(str(tmp_path))
    a = run_causal("bounded_buffer", "monitor").record
    b = run_causal("bounded_buffer", "monitor", seed=5).record
    store.save(a)
    store.save(b)
    assert store.load("bounded_buffer", "monitor").key == a.key
    assert store.load("bounded_buffer", "monitor", seed=5).key == b.key
    assert store.load("bounded_buffer", "monitor", seed=99) is None
    assert [r.key for r in store.load_all()] == sorted([a.key, b.key])


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
    assert [r.key for r in loaded] == ["fcfs_resource/semaphore"]


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


def test_compare_records_threshold_and_absolute_floor():
    base = RunRecord(problem="p", mechanism="m", makespan=100, steps=10)
    same = RunRecord(problem="p", mechanism="m", makespan=100, steps=10)
    assert compare_records(base, same) == []
    # Improvements never regress.
    faster = RunRecord(problem="p", mechanism="m", makespan=50, steps=10)
    assert compare_records(base, faster) == []
    # Past the threshold and the 2-tick floor: trips.
    slower = RunRecord(problem="p", mechanism="m", makespan=120, steps=10)
    hits = compare_records(base, slower, threshold_pct=10.0)
    assert [(r.metric, r.baseline, r.current) for r in hits] == \
        [("makespan", 100, 120)]
    # Single-tick jitter on a tiny metric never trips, whatever the
    # percentage says.
    tiny = RunRecord(problem="p", mechanism="m", makespan=100, steps=11)
    assert compare_records(base, tiny, threshold_pct=5.0) == []


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
    saved = RunStore(store).load("bounded_buffer", "semaphore")
    assert saved is not None and saved.makespan > 0


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
    from repro.obs.runstore import load_tail_record

    record = load_tail_record(
        "monitor", [_Point(8, 4.0, 6.0), _Point(32, 9.0, 14.0)], seed=3)
    assert record.problem == "load_tail"
    assert record.key == "load_tail/monitor@seed3"
    assert (record.latency_p95, record.latency_p99) == (9, 14)
    # Round-trips through the schema with the optional fields intact.
    clone = RunRecord.from_dict(record.to_dict())
    assert (clone.latency_p95, clone.latency_p99) == (9, 14)


def test_latency_tail_gate_and_none_skip():
    base = RunRecord(problem="load_tail", mechanism="m", makespan=100,
                     latency_p95=20, latency_p99=40)
    # Tail regression past threshold + floor: trips on the tail metrics.
    worse = RunRecord(problem="load_tail", mechanism="m", makespan=100,
                      latency_p95=30, latency_p99=60)
    hits = compare_records(base, worse, threshold_pct=10.0)
    assert {r.metric for r in hits} == {"latency_p95", "latency_p99"}
    # A profile record (no tails) against a tail baseline: skipped, not
    # treated as zero.
    plain = RunRecord(problem="load_tail", mechanism="m", makespan=100)
    assert compare_records(base, plain) == []
    assert compare_records(plain, worse) == []


def test_regress_load_cli_round_trip(tmp_path, capsys):
    base = str(tmp_path / "load_tail.json")
    code = main(["regress", "--load", "--mechanism", "monitor",
                 "--write-baseline", base])
    capsys.readouterr()
    assert code == 0
    records = load_baseline(base)
    assert [r.key for r in records] == ["load_tail/monitor"]
    assert records[0].latency_p95 is not None

    code = main(["regress", "--load", "--baseline", base, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["compared"] == ["load_tail/monitor"]
    assert payload["regressions"] == []

    # A doctored baseline (tails lowered) must trip the gate on p95/p99.
    doctored = [r.to_dict() for r in records]
    doctored[0]["latency_p95"] = max(1, doctored[0]["latency_p95"] - 3)
    doctored[0]["latency_p99"] = max(1, doctored[0]["latency_p99"] - 5)
    with open(base, "w") as fh:
        json.dump(doctored, fh)
    code = main(["regress", "--load", "--baseline", base, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {r["metric"] for r in payload["regressions"]} <= \
        {"latency_p95", "latency_p99"}
    assert payload["regressions"]
