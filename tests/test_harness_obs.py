"""Tests for the harness observatory (DESIGN.md §15).

The load-bearing contract: telemetry is *passive*.  Attaching a
:class:`HarnessTelemetry` (or the null sink) to the engine must leave the
exploration result byte-identical, while the accounting it produces tiles
wall time, survives the exporters, and feeds the ``repro regress
--explore`` gate.
"""

import gc
import io
import json
import os

import pytest

from repro.__main__ import main
from repro.explore import ExplorationEngine
from repro.explore.targets import get_target
from repro.obs import (
    GateRecord,
    HarnessTelemetry,
    NullHarnessTelemetry,
    RunStore,
    chrome_trace,
    compare_records,
    jsonl_lines,
    parse_jsonl,
    self_profile,
)
from repro.suite import _measure_explore, explore_record

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                        "baselines", "explore_baseline.json")

TARGET = ("fcfs_resource", "monitor")
BUDGET = dict(max_runs=400, max_depth=48)


def _as_tuple(result):
    """A byte-comparable reduction of an ExplorationResult."""
    return (result.runs, result.pruned, result.states, result.exhausted,
            tuple((taken, tuple(msgs)) for taken, msgs in result.violations))


def _explore(telemetry=None):
    target = get_target(*TARGET)
    return ExplorationEngine(target.runner(), prune=True, telemetry=telemetry,
                             **BUDGET).explore(target.checker)


# ----------------------------------------------------------------------
# Telemetry vs determinism
# ----------------------------------------------------------------------
def test_serial_results_identical_with_telemetry():
    base = _explore()
    observed = _explore(telemetry=HarnessTelemetry())
    assert _as_tuple(base) == _as_tuple(observed)


def test_null_sink_is_normalized_and_identical():
    base = _explore()
    nulled = _explore(telemetry=NullHarnessTelemetry())
    assert _as_tuple(base) == _as_tuple(nulled)
    engine = ExplorationEngine(lambda p: None,
                               telemetry=NullHarnessTelemetry())
    assert engine.telemetry is None


# ----------------------------------------------------------------------
# Accounting shape
# ----------------------------------------------------------------------
def test_phase_accounting_tiles_and_counts():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry=telemetry)
    assert telemetry.runs == result.runs
    assert telemetry.pruned == result.pruned
    assert 0.0 < telemetry.coverage() <= 1.0 + 1e-9
    assert telemetry.coverage() >= 0.8
    assert telemetry.schedules_per_sec() > 0
    assert 0.0 <= telemetry.pruning_ratio() < 1.0
    data = telemetry.to_dict()
    assert data["runs"] == result.runs
    assert set(data["phase_seconds"]) == {
        "step", "fingerprint", "check", "record", "collect"}
    assert data["samples"], "counter samples must accumulate"


def test_watch_progress_lines_are_plain_text():
    stream = io.StringIO()
    telemetry = HarnessTelemetry(watch=stream, watch_interval=0.0)
    _explore(telemetry=telemetry)
    lines = stream.getvalue().splitlines()
    assert lines, "watch must emit progress lines"
    assert all("\r" not in line for line in lines), "non-tty-safe only"
    assert any("runs=" in line and "frontier=" in line for line in lines)
    assert lines[-1].startswith("[explore done")
    # ETA is budget-bound and disappears on the final line.
    assert "eta<=" in lines[0]


def test_eta_is_budget_bound():
    telemetry = HarnessTelemetry()
    telemetry.begin(max_runs=None)
    assert telemetry.eta_seconds() is None
    telemetry = HarnessTelemetry()
    _explore(telemetry=telemetry)
    # Finished search: no schedules left within budget.
    eta = telemetry.eta_seconds()
    assert eta is not None and eta >= 0.0


# ----------------------------------------------------------------------
# Exporters: harness track + counters
# ----------------------------------------------------------------------
def test_chrome_trace_harness_track():
    telemetry = HarnessTelemetry()
    _explore(telemetry=telemetry)
    doc = chrome_trace([], harness=telemetry)
    events = doc["traceEvents"]
    names = {ev["args"]["name"] for ev in events if ev["ph"] == "M"
             and ev["name"] == "thread_name"}
    assert names == {"harness"}
    counters = [ev for ev in events if ev["ph"] == "C"]
    assert counters
    counter_names = {ev["name"] for ev in counters}
    assert counter_names == {"schedules/sec", "frontier depth",
                             "pruning ratio"}
    assert all(ev["tid"] == counters[0]["tid"] for ev in counters)


def test_jsonl_counter_round_trip():
    telemetry = HarnessTelemetry()
    _explore(telemetry=telemetry)
    lines = list(jsonl_lines([], None, harness=telemetry))
    spans, events, counters = parse_jsonl(lines)
    assert spans == [] and events == []
    assert counters, "counter records must round-trip"
    for sample in counters:
        assert set(sample) == {"t", "runs", "frontier", "pruned",
                               "schedules_per_sec", "pruning_ratio"}
        assert sample["t"] > 0


# ----------------------------------------------------------------------
# Run store + gate
# ----------------------------------------------------------------------
def test_explore_record_round_trip_and_gate_direction():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry=telemetry)
    record = explore_record(TARGET[0], TARGET[1], result, telemetry)
    assert (record.kind, record.target) == ("explore", "fcfs_resource/monitor")
    metrics = record.metrics
    assert metrics["runs"] == result.runs
    assert metrics["pruned"] == result.pruned
    assert metrics["schedules_per_sec"] > 0
    assert any(name.startswith("phase_seconds.") for name in metrics)
    # An explore run measures no critical path and steps no clock.
    assert not {"makespan", "path_blocked_ticks", "steps",
                "events"} & set(metrics)
    assert record.directions == {"runs": "+", "schedules_per_sec": "-"}
    clone = GateRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()

    def variant(**changes):
        copy = GateRecord.from_dict(record.to_dict())
        copy.metrics.update(changes)
        return copy

    # Direction "-": a throughput *drop* regresses, a gain never does.
    rate = metrics["schedules_per_sec"]
    slower = variant(schedules_per_sec=max(1, rate // 10))
    hits = compare_records(record, slower, threshold_pct=50.0)
    assert any(r.metric == "schedules_per_sec" for r in hits)
    faster = variant(schedules_per_sec=rate * 10)
    assert compare_records(record, faster, threshold_pct=50.0) == []

    # Direction "+" still holds on the same record: more schedules to
    # cover the same space = pruning regressed.
    worse = variant(runs=metrics["runs"] * 2)
    hits = compare_records(record, worse, threshold_pct=50.0)
    assert any(r.metric == "runs" for r in hits)


def test_collector_is_counted_only_while_a_search_is_observed():
    telemetry = HarnessTelemetry()
    hooks = len(gc.callbacks)
    telemetry.begin()
    assert len(gc.callbacks) == hooks + 1
    cycle = []
    cycle.append(cycle)
    del cycle
    gc.collect()
    telemetry.finish()
    assert len(gc.callbacks) == hooks
    counts = telemetry.gc_counts()
    assert counts["collections"] >= 1 and counts["collected"] >= 1
    assert counts["seconds"] >= 0.0
    gc.collect()
    assert telemetry.gc_counts() == counts  # finished: no longer counted


def test_collector_hook_is_removed_when_the_search_raises():
    telemetry = HarnessTelemetry()
    hooks = len(gc.callbacks)

    def broken(policy):
        raise RuntimeError("runner bug")

    with pytest.raises(RuntimeError):
        ExplorationEngine(broken, telemetry=telemetry).explore(lambda r: [])
    assert len(gc.callbacks) == hooks


def test_a_search_leaves_the_collector_nothing():
    # Every run frees itself by reference counting (DESIGN.md, "Run
    # lifetime"), so an observed search collects no object.
    gc.collect()
    telemetry = HarnessTelemetry()
    target = get_target("footnote3", "csp")
    result = ExplorationEngine(target.runner(), max_runs=300, prune=True,
                               telemetry=telemetry).explore(target.checker)
    record = explore_record("footnote3", "csp", result, telemetry)
    assert record.metrics["gc.collected"] == 0
    assert record.metrics["gc.collections"] == telemetry.gc_collections
    assert "gc.collections" not in record.directions


def test_regress_explore_cli_round_trip(tmp_path, capsys):
    baseline = tmp_path / "explore_baseline.json"
    common = ["--explore", "--explore-runs", "300", "--explore-depth", "40"]
    assert main(["regress", "--write-baseline", str(baseline)] + common) == 0
    capsys.readouterr()
    code = main(["regress", "--baseline", str(baseline),
                 "--threshold", "500", "--json"] + common)
    out = json.loads(capsys.readouterr().out)
    # The schedule count is deterministic, so with a generous wall-clock
    # threshold a clean re-run passes.
    assert code == 0
    assert out["compared"] == ["explore:fcfs_resource/monitor"]
    assert out["regressions"] == []


def test_regress_explore_problem_filter_matches_committed_baseline(capsys):
    """``--problem`` filters explore records on their target, so the
    committed baseline's fcfs_resource record is found and compared."""
    code = main(["regress", "--explore", "--problem", "fcfs_resource",
                 "--mechanism", "monitor", "--threshold", "500",
                 "--baseline", BASELINE, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["compared"] == ["explore:fcfs_resource/monitor"]
    assert main(["regress", "--explore", "--problem", "bounded_buffer",
                 "--baseline", BASELINE]) == 2
    assert "holds no matching records" in capsys.readouterr().err


def test_regress_explore_gate_trips_on_steps(tmp_path, capsys):
    """Shrinking the baseline's schedule count makes the fresh run look
    like a pruning regression — the deterministic side of the gate."""
    baseline = tmp_path / "explore_baseline.json"
    common = ["--explore", "--explore-runs", "300", "--explore-depth", "40"]
    assert main(["regress", "--write-baseline", str(baseline)] + common) == 0
    data = json.loads(baseline.read_text())
    # Shrink far enough that the growth clears even the generous
    # wall-clock threshold this test uses for schedules_per_sec.
    data[0]["metrics"]["runs"] = max(1, data[0]["metrics"]["runs"] // 10)
    baseline.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["regress", "--baseline", str(baseline),
                 "--threshold", "500", "--json"] + common)
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert any(r["metric"] == "runs" for r in out["regressions"])


# ----------------------------------------------------------------------
# CLI: explore --watch/--record/--export/--self-profile
# ----------------------------------------------------------------------
def test_explore_cli_watch_record_export(tmp_path, capsys):
    store = tmp_path / "runs"
    out = tmp_path / "harness.jsonl"
    code = main(["explore", TARGET[0], TARGET[1], "--fast", "--watch",
                 "--record", "--store", str(store),
                 "--export", "jsonl", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "harness telemetry:" in captured.out
    assert "[explore" in captured.err, "--watch writes to stderr"
    [record] = RunStore(str(store)).load_all()
    assert record.key == "explore:" + "/".join(TARGET)
    assert record.metrics["schedules_per_sec"] > 0
    assert record.metrics["gc.collected"] == 0
    assert os.listdir(str(store)) == [
        "explore__fcfs_resource__monitor__fifo.json"]
    __, __, counters = parse_jsonl(out.read_text().splitlines())
    assert counters


def test_explore_cli_json_reports_the_collector(capsys):
    code = main(["explore", TARGET[0], TARGET[1], "--fast", "--watch",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gc"]["collected"] == 0
    assert set(payload["gc"]) == {"collections", "collected", "seconds"}


def test_explore_cli_chrome_export(tmp_path, capsys):
    out = tmp_path / "harness_trace.json"
    code = main(["explore", TARGET[0], TARGET[1], "--fast",
                 "--export", "chrome", "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["telemetry"]["runs"] == payload["runs"]
    doc = json.loads(out.read_text())
    assert any(ev.get("ph") == "C" for ev in doc["traceEvents"])


def test_explore_cli_self_profile_json(capsys):
    budget = ["--max-runs", "150", "--max-depth", "48"]
    code = main(["explore", TARGET[0], TARGET[1], "--self-profile",
                 "--json"] + budget)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] > 0
    assert payload["self_profile"]["hotspots"]
    assert payload["telemetry"]["coverage"] > 0.5
    assert main(["explore", TARGET[0], TARGET[1], "--self-profile"]
                + budget) == 0
    text = capsys.readouterr().out
    assert "self-profile" in text and "harness telemetry:" in text


def test_explore_cli_and_gate_run_the_engine(capsys):
    """``repro explore`` and the ``regress --explore`` producer report
    exactly what the engine finds on the same target and budget."""
    target = get_target("footnote3", "monitor")
    direct = ExplorationEngine(target.runner(), max_runs=2000, max_depth=60,
                               prune=True).explore(target.checker)
    assert direct.violations, "footnote3 must reach its anomaly"
    assert main(["explore", "footnote3", "monitor", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert ((payload["runs"], payload["pruned"], payload["states"],
             payload["exhausted"], payload["violations"])
            == (direct.runs, direct.pruned, direct.states, direct.exhausted,
                len(direct.violations)))
    record = _measure_explore("footnote3/monitor", None, explore_runs=2000,
                              explore_depth=60)
    assert (record.metrics["runs"], record.metrics["pruned"]) == (
        direct.runs, direct.pruned)


def test_profile_without_args_errors(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["profile"])
    assert exit_.value.code == 2
    assert "required" in capsys.readouterr().err


def test_self_profile_returns_value_and_ranked_hotspots():
    report = self_profile(lambda: sum(i * i for i in range(200_000)), top=5)
    assert report.value == sum(i * i for i in range(200_000))
    assert report.seconds > 0
    tottimes = [spot.tottime for spot in report.hotspots]
    assert tottimes == sorted(tottimes, reverse=True)
    assert len(report.hotspots) <= 5
