"""Tests for the causal layer: happens-before graphs, wait classification,
critical-path conservation, and exporter round-trips.

The load-bearing invariant is **conservation**: the critical-path walk's
segments tile the run exactly, so path ticks plus independently-computed
slack equal the makespan — asserted here on every profileable
(problem, mechanism) pair, not a sample.
"""

import json

from repro.obs import (
    Histogram,
    build_hb_graph,
    chrome_trace,
    classify_wait,
    causal_chain,
    jsonl_lines,
    parse_jsonl,
    wake_records,
)
from repro.suite import profileable, run_causal, run_profile

# ----------------------------------------------------------------------
# Wait classification (DESIGN.md §10 table)
# ----------------------------------------------------------------------


def test_classify_wait_table():
    assert classify_wait("enter(buf.mon)").constraint == "exclusion"
    assert classify_wait("urgent(buf.mon)").constraint == "exclusion"
    assert classify_wait("P(sem)").info_types == ("T4",)
    assert classify_wait("lock(m)").constraint == "exclusion"
    assert classify_wait("wait(buf.nonempty)").constraint == "priority"
    assert classify_wait("wait(buf.nonempty)").info_types == ("T5",)
    assert classify_wait("send(ch)").category == "channel"
    assert classify_wait("recv(ch)").category == "channel"
    assert classify_wait("await(ec >= 3)").category == "eventcount"
    assert classify_wait("guard(count > 0)").constraint == "priority"
    assert classify_wait("region(r)").info_types == ("T4", "T5")
    assert classify_wait("enqueue(disk)").category == "queue"
    assert classify_wait("sleep").constraint == "time"
    assert classify_wait(None).category == "unknown"
    assert classify_wait("frobnicate(x)").constraint == "unknown"


def test_every_observed_park_reason_is_classified():
    """No wait observed in any canonical workload maps to 'unknown' —
    the attribution table covers the whole runtime vocabulary."""
    for label in profileable():
        problem, mechanism = label.split("/")
        result = run_profile(problem, mechanism).result
        for ev in result.trace:
            if ev.kind == "blocked" and isinstance(ev.detail, str):
                assert classify_wait(ev.detail).category != "unknown", (
                    "{}: unclassified wait {!r}".format(label, ev.detail))


# ----------------------------------------------------------------------
# Happens-before graph + vector clocks
# ----------------------------------------------------------------------


def test_hb_graph_program_order_and_wakes():
    profile = run_profile("bounded_buffer", "semaphore")
    graph = build_hb_graph(profile.result.trace)
    summary = graph.summary()
    assert summary["events"] == len(list(profile.result.trace))
    assert summary["edge_kinds"].get("program", 0) > 0
    assert summary["edge_kinds"].get("wake", 0) > 0
    # Edges always point forward on the seq axis (seq order is a
    # topological order of the graph).
    assert all(edge.src < edge.dst for edge in graph.edges)


def test_hb_clock_dominance_matches_program_order():
    profile = run_profile("one_slot_buffer", "csp")
    graph = build_hb_graph(profile.result.trace)
    events = graph.events
    by_pid = {}
    for ev in events:
        if ev.pid >= 0:
            by_pid.setdefault(ev.pid, []).append(ev)
    # Same-process events are totally ordered by happens-before.
    for own in by_pid.values():
        for a, b in zip(own, own[1:]):
            assert graph.happens_before(a.seq, b.seq)
            assert not graph.happens_before(b.seq, a.seq)
            assert not graph.concurrent(a.seq, b.seq)


def test_hb_wake_edge_orders_waker_before_woken():
    """A wakeup creates causality across processes: the unblocked event
    happens-before the woken process's next step."""
    profile = run_profile("bounded_buffer", "monitor")
    events = list(profile.result.trace)
    graph = build_hb_graph(events)
    wakes = [w for w in wake_records(events) if w.kind == "wake"]
    assert wakes, "monitor workload must contain signal wakeups"
    for wake in wakes:
        nxt = next((ev for ev in events
                    if ev.pid == wake.woken_pid and ev.seq > wake.seq), None)
        if nxt is not None:
            assert graph.happens_before(wake.seq, nxt.seq)


def test_hb_concurrency_exists_between_independent_processes():
    profile = run_profile("bounded_buffer", "csp")
    graph = build_hb_graph(profile.result.trace)
    pairs = [(a.seq, b.seq)
             for a in graph.events for b in graph.events
             if a.pid >= 0 and b.pid >= 0 and a.pid != b.pid]
    assert any(graph.concurrent(a, b) for a, b in pairs), (
        "some cross-process pair must be causally unordered")


# ----------------------------------------------------------------------
# Critical path: conservation on EVERY profileable pair
# ----------------------------------------------------------------------


def test_conservation_on_every_pair():
    """path_ticks + slack == makespan, slack == 0, per-process conservation,
    and segments tile [start, end] without overlap — on every registered
    (problem, mechanism) with a workload."""
    labels = profileable()
    assert len(labels) >= 30
    for label in labels:
        problem, mechanism = label.split("/")
        path = run_causal(problem, mechanism).path
        assert path.path_ticks + path.slack == path.makespan, label
        assert path.slack == 0, label
        cursor = path.start_seq
        for seg in path.segments:
            assert seg.start_seq == cursor, (
                "{}: gap/overlap at seq {}".format(label, cursor))
            assert seg.duration > 0, label
            cursor = seg.end_seq
        assert cursor == path.end_seq, label
        for name, row in path.per_process().items():
            assert row["on_path"] + row["slack"] == path.makespan, (
                "{} / {}".format(label, name))


def test_conservation_under_seeded_policies():
    for seed in (1, 7, 42):
        path = run_causal("bounded_buffer", "monitor", seed=seed).path
        assert path.path_ticks + path.slack == path.makespan
        assert path.slack == 0


def test_attribution_totals_match_path():
    path = run_causal("bounded_buffer", "semaphore").path
    assert sum(path.constraint_ticks().values()) == path.path_ticks
    blocked = sum(seg.duration for seg in path.segments
                  if seg.kind in ("blocked", "timer"))
    assert sum(path.blocked_ticks_by_object().values()) == blocked


def test_virtual_speedups_are_bounded_by_waits():
    path = run_causal("bounded_buffer", "serializer").path
    for obj, entry in path.virtual_speedups().items():
        assert 0 <= entry["saved"] <= entry["bound"], obj
        assert entry["bound"] <= path.path_ticks


def test_causal_chain_is_human_readable():
    path = run_causal("bounded_buffer", "monitor").path
    lines = causal_chain(path)
    assert 0 < len(lines) <= 6
    assert any("waited" in line or "ran" in line for line in lines)


def test_causal_json_bit_identical_for_same_seed(capsys):
    from repro.__main__ import main

    argv = ["causal", "bounded_buffer", "eventcount", "--seed", "3",
            "--no-save", "--json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert (payload["record"]["metrics"]["makespan"]
            == payload["critical_path"]["makespan"])


# ----------------------------------------------------------------------
# Satellite: exporter round-trip
# ----------------------------------------------------------------------


def test_jsonl_round_trip_preserves_spans_and_events():
    profile = run_profile("bounded_buffer", "ccr")
    lines = list(jsonl_lines(profile.spans, profile.result.trace))
    spans, events, __ = parse_jsonl(lines)
    assert [s.to_dict() for s in spans] == \
        [s.to_dict() for s in profile.spans]
    originals = list(profile.result.trace)
    assert len(events) == len(originals)
    for got, want in zip(events, originals):
        assert (got.seq, got.pid, got.pname, got.kind, got.obj) == \
            (want.seq, want.pid, want.pname, want.kind, want.obj)
        # Details survive when JSON-representable; otherwise they were
        # stringified on export (documented lossiness).
        assert got.detail == want.detail or got.detail == str(want.detail)


def test_chrome_trace_uses_only_valid_trace_event_keys():
    report = run_causal("bounded_buffer", "monitor")
    doc = chrome_trace(report.profile.spans, report.profile.result.trace,
                       "test", critical=report.path.segments)
    allowed = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args", "s"}
    for entry in doc["traceEvents"]:
        assert set(entry) <= allowed, sorted(entry)
    cats = {entry.get("cat") for entry in doc["traceEvents"]}
    assert "critical" in cats, "critical-path track must be exported"
    flagged = [entry for entry in doc["traceEvents"]
               if entry.get("args", {}).get("critical")]
    assert flagged, "on-path spans must carry args.critical = True"


# ----------------------------------------------------------------------
# Satellite: empty-histogram percentile regression test
# ----------------------------------------------------------------------


def test_histogram_percentile_empty_returns_zero():
    hist = Histogram()
    assert hist.percentile(0) == 0
    assert hist.percentile(50) == 0
    assert hist.percentile(100) == 0
    hist.observe(5)
    assert hist.percentile(50) == 5
