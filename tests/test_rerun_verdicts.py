"""A rerun in the same directory reaches the same verdict on the same counts.

Prune keys are never persisted (DESIGN.md §14): a search that skipped the
subtrees an earlier search claimed would drop the violations found there.
These tests run each verb twice in one working directory and compare.
"""

import json
import os

from repro.__main__ import main
from repro.obs.runstore import FP_CACHE_ROOT


def _run_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_synth_rerun_certifies_on_the_same_search(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--fast", "--no-cache", "--json"]
    first_code, first = _run_json(argv, capsys)
    second_code, second = _run_json(argv, capsys)
    assert first_code == second_code == 0
    keys = ("status", "runs", "states")
    cold = {k: first["repair"]["verification"][k] for k in keys}
    warm = {k: second["repair"]["verification"][k] for k in keys}
    assert cold == warm
    assert cold["runs"] > 1 and cold["states"] > 0
    assert not os.path.exists(FP_CACHE_ROOT)


def test_explore_rerun_reports_the_same_violations(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["explore", "footnote3", "monitor", "--json"]
    first_code, first = _run_json(argv, capsys)
    second_code, second = _run_json(argv, capsys)
    assert first_code == second_code == 1
    assert first["violations"] == second["violations"] == 66
    assert first == second
    assert not os.path.exists(os.path.join(".repro", "runs", "fingerprints"))
