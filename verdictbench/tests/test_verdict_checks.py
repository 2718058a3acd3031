"""Self-test of the benchmark's verdict checks and result format.

    python -m pytest verdictbench/tests -q

A planted wrong verdict must make a check fail and the failed share rise;
the committed references must match the current program on the cases run
here.  The long passes are not run: explore covers a cheap subset of the
targets, and the result-format test runs the fault campaigns only.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import PartTimer  # noqa: E402
from workloads import (ExploreCatalog, FaultCampaigns, LoadSweep,  # noqa: E402
                       SynthRepair, load_reference)

#: Cheap targets, one of them violating (footnote3/semaphore).
CHEAP_TARGETS = {"readers_priority/monitor", "readers_priority/semaphore",
                 "footnote3/semaphore"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def cheap_catalog(reference):
    workload = ExploreCatalog(0, reference)
    workload.targets = [
        (t, c) for t, c in workload.targets
        if "{}/{}".format(t.problem, t.mechanism) in CHEAP_TARGETS]
    workload.reference = {k: v for k, v in workload.reference.items()
                          if k in CHEAP_TARGETS}
    return workload


def test_explore_reference_holds_and_a_flipped_verdict_fails():
    reference = load_reference("explore_catalog")
    workload = cheap_catalog(reference)
    observed = workload.run_pass(None, PartTimer())
    assert observed["footnote3/semaphore"]["witness_replays"] is True
    assert workload.check(observed)[:2] == (3, 0)

    planted = copy.deepcopy(reference)
    entry = planted["targets"]["readers_priority/monitor"]
    entry["violating"] = not entry["violating"]
    attempted, failed, messages = cheap_catalog(planted).check(observed)
    assert (attempted, failed) == (3, 1)
    assert "readers_priority/monitor" in messages[0]


def test_fault_reference_holds_and_a_wrong_classification_fails():
    reference = load_reference("fault_campaigns")
    workload = FaultCampaigns(0, reference)
    observed = workload.run_pass(None, PartTimer())
    attempted, failed, __ = workload.check(observed)
    assert failed == 0 and attempted == 49

    planted = copy.deepcopy(reference)
    planted["chaos"]["monitor"] = "fault-propagating"
    attempted, failed, messages = FaultCampaigns(0, planted).check(observed)
    assert failed == 1 and "monitor" in messages[0]

    # A cell that matches the reference but not the program's own
    # prediction is a surprise, and fails too.
    surprised = FaultCampaigns(0, reference)
    surprised.expected["partition"]["quorum_lock/clean"] = ("wedged",)
    assert surprised.check(observed)[1] == 1


def test_load_check_fails_every_operation_of_a_wrong_point():
    reference = load_reference("load_sweep")
    workload = LoadSweep(3, reference)
    observed = copy.deepcopy(workload.reference)
    assert workload.check(observed)[1] == 0
    observed["monitor/256"]["steps"] += 1
    attempted, failed, messages = workload.check(observed)
    assert failed == workload.ops_of(256)
    assert attempted == sum(workload.ops_of(c) for __, c in workload.points)
    assert messages == ["monitor/256: steps differ from the reference"]


def test_synth_pass_runs_cold_and_leaves_no_cache():
    had_cache = (ROOT / ".repro").exists()
    workload = SynthRepair(0, load_reference("synth_repair"))
    work_before = set(SynthRepair.WORK_ROOT.glob("*"))
    observed = workload.run_pass(None, PartTimer())
    assert workload.check(observed)[1] == 0
    assert observed["stats"]["cache_hits"] == 0
    assert set(SynthRepair.WORK_ROOT.glob("*")) == work_before
    assert (ROOT / ".repro").exists() == had_cache


def _result_line(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "fault_campaigns", "--seed", "3", "--seconds", "0", "--trace",
         str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_result_lines_name_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result_line(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == declared
        assert all(NAME.match(name) for name in declared)
    # The traced run's layer spans tile each pass, and the engine's own
    # telemetry agrees with the outside explore spans.
    metrics = result["metrics"]
    assert metrics["trace.span_coverage"]["value"] >= 0.9
    assert abs(metrics["trace.telemetry_explore_ratio"]["value"] - 1) < 0.1
