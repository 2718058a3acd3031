"""``repro explore`` and ``regress --explore`` run the one schedule-space
search, :class:`ExplorationEngine`.

A direct engine call, the CLI's ``--json`` payload and the gate producer
must report the same search for the same target and budget; the search
itself must replay exactly, stop at its budget, and use the checker it is
given."""

import json

import pytest

from repro.__main__ import main
from repro.explore import ExplorationEngine, ExplorationResult, get_target
from repro.suite import _measure_explore

BUDGET = 300


def as_tuple(result: ExplorationResult):
    return (
        result.runs,
        result.violations,
        result.exhausted,
        result.pruned,
        result.states,
        result.witness,
    )


def engine_search(problem, mechanism, *, max_runs=BUDGET, max_depth=60,
                  stop_at_first=False):
    target = get_target(problem, mechanism)
    return ExplorationEngine(target.runner(), max_runs=max_runs,
                             max_depth=max_depth, prune=True).explore(
        target.checker, stop_at_first=stop_at_first)


def cli_search(capsys, problem, mechanism, *extra):
    code = main(["explore", problem, mechanism, "--json"] + list(extra))
    payload = json.loads(capsys.readouterr().out)
    assert code == (0 if payload["ok"] else 1)
    return payload


def payload_tuple(payload):
    return (payload["runs"], payload["pruned"], payload["states"],
            payload["exhausted"], payload["violations"], payload["witness"])


def result_tuple(result: ExplorationResult):
    return (result.runs, result.pruned, result.states, result.exhausted,
            len(result.violations),
            list(result.witness) if result.witness else None)


def test_engine_replays_identically_on_violating_space():
    first = engine_search("footnote3", "monitor")
    again = engine_search("footnote3", "monitor")
    assert first.violations, "budget must reach violating schedules"
    assert as_tuple(first) == as_tuple(again)


def test_engine_replays_identically_on_exhaustive_space():
    first = engine_search("bounded_buffer", "monitor", max_runs=5000)
    again = engine_search("bounded_buffer", "monitor", max_runs=5000)
    assert first.exhausted
    assert as_tuple(first) == as_tuple(again)


def test_budgeted_search_stops_at_the_budget():
    result = engine_search("footnote3", "monitor", max_runs=40)
    assert result.runs == 40
    assert not result.exhausted


def test_checker_override_replaces_the_target_checker():
    target = get_target("footnote3", "monitor")
    quiet = ExplorationEngine(target.runner(), max_runs=50,
                              prune=True).explore(lambda run: [])
    assert quiet.runs == 50 and quiet.ok and quiet.witness is None
    flagged = ExplorationEngine(target.runner(), max_runs=50,
                                prune=True).explore(lambda run: ["flagged"])
    assert flagged.runs == 50
    assert len(flagged.violations) == flagged.runs
    assert flagged.witness is not None


@pytest.mark.parametrize("problem,mechanism", [
    ("bounded_buffer", "monitor"),
    ("one_slot_buffer", "monitor"),
    ("alarm_clock", "monitor"),
    ("readers_priority", "semaphore"),
])
def test_cli_json_matches_engine(problem, mechanism, capsys):
    direct = engine_search(problem, mechanism)
    payload = cli_search(capsys, problem, mechanism,
                         "--max-runs", str(BUDGET))
    assert payload["ok"] == direct.ok
    assert payload_tuple(payload) == result_tuple(direct)


@pytest.mark.parametrize("problem,mechanism", [
    ("footnote3", "monitor"),
    ("readers_priority", "semaphore"),
    ("alarm_clock", "monitor"),
])
def test_gate_producer_matches_engine(problem, mechanism):
    direct = engine_search(problem, mechanism)
    record = _measure_explore("{}/{}".format(problem, mechanism), None,
                              explore_runs=BUDGET, explore_depth=60)
    assert record.kind == "explore"
    assert (record.metrics["runs"], record.metrics["pruned"]) == (
        direct.runs, direct.pruned)


def test_cli_stop_at_first_matches_engine(capsys):
    direct = engine_search("footnote3", "pathexpr", max_runs=2000,
                           stop_at_first=True)
    payload = cli_search(capsys, "footnote3", "pathexpr", "--stop-at-first")
    assert payload["runs"] == 1 and payload["violations"]
    assert not payload["exhausted"]
    assert payload_tuple(payload) == result_tuple(direct)


@pytest.mark.parametrize("option", ["--workers", "--seed"])
def test_frontier_options_are_gone(option, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["explore", "footnote3", "monitor", option, "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
