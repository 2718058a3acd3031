"""Observability layer: golden span-folding tests on hand-written event
sequences, sink integration, exporter validity, lazy trace views, and CLI
smoke tests.

The golden tests pin the folding *rules* (suspend/resume across Hoare
signals, crowd membership, crash closure) independently of any mechanism
implementation: the sequences below are the event vocabulary each mechanism
emits, written out by hand.
"""

import json

from repro.__main__ import main
from repro.obs import (
    MetricsSink,
    NullSink,
    RecordingSink,
    chrome_trace,
    compute_metrics,
    fold_spans,
    jsonl_lines,
)
from repro.suite import run_profile
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Event, Trace, TraceView


def E(seq, pid, pname, kind, obj="", detail=None, time=0):
    return Event(seq, time, pid, pname, kind, obj, detail)


def span_map(spans):
    """Index spans by (kind, pname, obj, start_seq) for golden assertions."""
    return {(s.kind, s.pname, s.obj, s.start_seq): s for s in spans}


# ----------------------------------------------------------------------
# Golden: monitor with a Hoare signal handoff
# ----------------------------------------------------------------------
def test_golden_monitor_hoare_handoff():
    trace = [
        E(1, 1, "P1", "enter", "mon"),
        E(2, 1, "P1", "wait", "cond"),        # releases mon, queues on cond
        E(3, 1, "P1", "blocked", "cond"),
        E(4, 2, "P2", "enter", "mon"),
        E(5, 2, "P2", "signal", "cond", "wake:P1"),  # Hoare: mon -> P1 now
        E(6, 2, "P2", "blocked", "mon"),      # signaller parks on urgent
        E(7, 2, "P2", "unblocked", "P1"),
        E(8, 1, "P1", "leave", "mon"),
        E(9, 1, "P1", "unblocked", "P2"),
        E(10, 2, "P2", "leave", "mon"),
    ]
    spans = span_map(fold_spans(trace))

    # P1 held mon 1..2, suspended across the wait, resumed at the signal
    # (possession transfers at signal time under Hoare semantics).
    assert spans[("possession", "P1", "mon", 1)].end_seq == 2
    assert spans[("possession", "P1", "mon", 1)].detail == "suspended"
    assert spans[("possession", "P1", "mon", 5)].end_seq == 8
    assert spans[("possession", "P1", "mon", 5)].detail == "resumed"
    # Queue residency on the condition: wait -> signal.
    assert spans[("queue", "P1", "cond", 2)].end_seq == 5
    # Blocked interval: park -> wakeup.
    assert spans[("blocked", "P1", "cond", 3)].end_seq == 7
    # P2: held 4..6, parked on urgent 6..9, resumed 9..10.
    assert spans[("possession", "P2", "mon", 4)].end_seq == 6
    assert spans[("blocked", "P2", "mon", 6)].end_seq == 9
    assert spans[("possession", "P2", "mon", 9)].end_seq == 10
    # Nothing leaked.
    assert not [s for s in spans.values() if s.outcome == "leaked"]


# ----------------------------------------------------------------------
# Golden: serializer queue + crowd (the false-resume regression)
# ----------------------------------------------------------------------
def test_golden_serializer_crowd_no_false_resume():
    trace = [
        E(1, 1, "P1", "enter", "ser"),
        E(2, 1, "P1", "join_crowd", "crowd"),   # possession released
        E(3, 1, "P1", "blocked", "sem"),        # body blocks on UNRELATED obj
        E(4, 0, "S", "unblocked", "P1"),        # sem wakeup: NOT a handback
        E(5, 1, "P1", "leave_crowd", "crowd"),  # possession returns here
        E(6, 1, "P1", "leave", "ser"),
    ]
    spans = span_map(fold_spans(trace))
    assert spans[("possession", "P1", "ser", 1)].end_seq == 2
    # The sem wakeup must NOT resume the serializer possession: the resumed
    # segment starts at leave_crowd (5), not at the unblock (4).
    assert spans[("possession", "P1", "ser", 5)].end_seq == 6
    assert ("possession", "P1", "ser", 4) not in spans
    assert spans[("crowd", "P1", "crowd", 2)].end_seq == 5
    assert spans[("blocked", "P1", "sem", 3)].end_seq == 4


def test_golden_serializer_queue_wait_proceed():
    trace = [
        E(1, 1, "P1", "enter", "ser"),
        E(2, 1, "P1", "wait", "q"),
        E(3, 1, "P1", "blocked", "q"),
        E(4, 0, "S", "unblocked", "P1"),
        E(5, 1, "P1", "proceed", "q"),
        E(6, 1, "P1", "leave", "ser"),
    ]
    spans = span_map(fold_spans(trace))
    assert spans[("queue", "P1", "q", 2)].end_seq == 5
    assert spans[("blocked", "P1", "q", 3)].end_seq == 4
    # Possession resumed at the wakeup (the queue grant handed it back).
    assert spans[("possession", "P1", "ser", 4)].end_seq == 6


# ----------------------------------------------------------------------
# Golden: path-expression operation latency
# ----------------------------------------------------------------------
def test_golden_pathexpr_operation_latency():
    trace = [
        E(1, 1, "P1", "request", "res.op"),
        E(2, 2, "P2", "request", "res.op"),
        E(3, 1, "P1", "op_start", "res.op"),
        E(4, 1, "P1", "op_end", "res.op"),
        E(5, 2, "P2", "op_start", "res.op"),
        E(6, 2, "P2", "op_abort", "res.op"),
    ]
    spans = span_map(fold_spans(trace))
    assert spans[("op_queue", "P1", "res.op", 1)].end_seq == 3
    assert spans[("op_queue", "P2", "res.op", 2)].end_seq == 5
    assert spans[("service", "P1", "res.op", 3)].end_seq == 4
    aborted = spans[("service", "P2", "res.op", 5)]
    assert aborted.end_seq == 6
    assert aborted.outcome == "crashed"


def test_golden_cross_process_service():
    # A CSP-style server starts the op the client requested: the client's
    # op_queue span must close at the server's op_start.
    trace = [
        E(1, 1, "C", "request", "buf.put"),
        E(2, 0, "server", "op_start", "buf.put"),
        E(3, 0, "server", "op_end", "buf.put"),
    ]
    spans = span_map(fold_spans(trace))
    assert spans[("op_queue", "C", "buf.put", 1)].end_seq == 2
    assert spans[("service", "server", "buf.put", 2)].end_seq == 3


# ----------------------------------------------------------------------
# Golden: a kill mid-possession closes spans with the crashed marker
# ----------------------------------------------------------------------
def test_golden_kill_mid_possession_closes_crashed():
    trace = [
        E(1, 1, "P1", "enter", "mon"),
        E(2, 2, "P2", "blocked", "mon.entry"),
        E(3, -1, "chaos", "killed", "P1", "fault"),
        E(4, 0, "S", "unblocked", "P2"),
        E(5, 2, "P2", "enter", "mon"),
        E(6, 2, "P2", "leave", "mon"),
    ]
    spans = fold_spans(trace)
    victim = [s for s in spans if s.pname == "P1"]
    assert len(victim) == 1
    assert victim[0].kind == "possession"
    assert victim[0].outcome == "crashed"
    assert victim[0].end_seq == 3
    # The survivor's spans are untouched.
    survivor = span_map(spans)[("possession", "P2", "mon", 5)]
    assert survivor.outcome == "ok"


def test_golden_open_spans_leak_at_end_of_trace():
    spans = fold_spans([E(1, 1, "P1", "blocked", "sem")])
    assert spans[0].outcome == "leaked"


# ----------------------------------------------------------------------
# Sink integration
# ----------------------------------------------------------------------
def test_null_sink_is_normalized_away():
    sched = Scheduler(sink=NullSink())
    assert sched._sink is None


def test_metrics_sink_counts_steps_and_switches():
    report = run_profile("bounded_buffer", "monitor")
    sink = report.sink
    assert isinstance(sink, MetricsSink)
    assert sink.steps > 0
    assert 0 < sink.context_switches < sink.steps
    assert sink.events == len(report.result.trace)
    # Probed queue depths reached the metrics.
    assert any(om.max_queue_depth > 0
               for om in report.metrics.objects.values())


def test_recording_sink_depth_timeline():
    report = run_profile("bounded_buffer", "semaphore")
    sink = report.sink
    assert isinstance(sink, RecordingSink)
    gauged = {obj for (__, __, __, obj, __) in sink.samples}
    assert any(obj.startswith("semaphore ") for obj in gauged)
    obj = sorted(gauged)[0]
    timeline = sink.depth_timeline(obj)
    assert timeline and all(len(point) == 2 for point in timeline)


def test_profile_deterministic_and_seeded():
    a = run_profile("bounded_buffer", "monitor")
    b = run_profile("bounded_buffer", "monitor")
    assert [s.to_dict() for s in a.spans] == [s.to_dict() for s in b.spans]
    seeded = run_profile("bounded_buffer", "monitor", seed=3)
    assert seeded.metrics.steps != 0
    assert seeded.seed == 3


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_chrome_trace_shape():
    report = run_profile("bounded_buffer", "monitor")
    doc = chrome_trace(report.spans, report.result.trace)
    assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    assert events
    phases = {ev["ph"] for ev in events}
    assert phases <= {"X", "i", "M"}
    for ev in events:
        if ev["ph"] == "X":
            assert ev["dur"] >= 1
            assert {"name", "ts", "pid", "tid", "args"} <= set(ev)
    json.dumps(doc)  # must be serializable as-is


def _network_run():
    """A run whose trace carries the full network vocabulary: sends,
    delivers, drops, dups, delays, plus a scripted partition and heal."""
    from repro.dist import NetPlan, Network
    from repro.runtime.scheduler import Scheduler

    sched = Scheduler()
    plan = (NetPlan().drop("a", "b", nth=2).duplicate("a", "b", nth=3)
            .delay("a", "b", nth=4, ticks=2).partition(["a"], ["b"],
                                                       at=50, heal_at=60))
    net = Network(sched, plan)
    net.start()

    def sender():
        for i in range(5):
            yield from net.node("b").send(i)
            yield from sched.sleep(3)
        yield from sched.sleep(70)

    def receiver():
        for _ in range(4):  # one message is dropped
            yield from net.node("b").receive(timeout=100)

    sched.spawn(sender, name="a")
    sched.spawn(receiver, name="b")
    return sched.run()


def test_chrome_trace_network_track():
    from repro.obs import fold_spans

    result = _network_run()
    trace_kinds = {ev.kind for ev in result.trace}
    assert {"msg_send", "msg_deliver", "msg_drop", "msg_dup", "msg_delay",
            "net_partition", "net_heal"} <= trace_kinds
    doc = chrome_trace(list(fold_spans(result.trace)), result.trace)
    events = doc["traceEvents"]
    net_events = [ev for ev in events if ev.get("cat") == "network"]
    exported_kinds = {ev["name"].split(" ")[0] for ev in net_events}
    # Nothing network-flavoured is dropped or misfiled any more.
    assert {"msg_send", "msg_deliver", "msg_drop", "msg_dup", "msg_delay",
            "net_partition", "net_heal"} <= exported_kinds
    # All on one dedicated track, disjoint from every process track and
    # labelled "network" in the thread metadata.
    net_tids = {ev["tid"] for ev in net_events}
    assert len(net_tids) == 1
    net_tid = net_tids.pop()
    proc_tids = {ev["tid"] for ev in events
                 if ev["ph"] == "X" and ev.get("cat") != "network"}
    assert net_tid not in proc_tids
    names = {ev["tid"]: ev["args"]["name"] for ev in events
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert names[net_tid] == "network"
    for ev in net_events:
        assert ev["ph"] == "i"
        assert "pname" in ev["args"]
    json.dumps(doc)


def test_network_events_round_trip_through_jsonl():
    from repro.obs import fold_spans, parse_jsonl

    result = _network_run()
    spans = list(fold_spans(result.trace))
    lines = list(jsonl_lines(spans, result.trace))
    back_spans, back_events, __ = parse_jsonl(lines)
    original = [(e.seq, e.kind, e.obj) for e in result.trace
                if e.kind.startswith(("msg_", "net_"))]
    recovered = [(e.seq, e.kind, e.obj) for e in back_events
                 if e.kind.startswith(("msg_", "net_"))]
    assert original and original == recovered
    assert len(back_spans) == len(spans)


def test_jsonl_lines_parse():
    report = run_profile("fcfs_resource", "semaphore")
    lines = list(jsonl_lines(report.spans, report.result.trace))
    records = [json.loads(line) for line in lines]
    kinds = {r["record"] for r in records}
    assert kinds == {"span", "event"}


# ----------------------------------------------------------------------
# Lazy trace views
# ----------------------------------------------------------------------
def test_trace_filter_is_lazy():
    trace = Trace()
    for index in range(5):
        trace.append(E(index, 1, "P1", "request" if index % 2 else "op_start",
                       "res.op"))
    view = trace.filter(kind="request")
    assert isinstance(view, TraceView)
    assert not isinstance(view, list)
    first = next(iter(view))
    assert first.seq == 1
    assert len(view) == 2
    assert view == [ev for ev in trace if ev.kind == "request"]
    assert bool(trace.filter(kind="nope")) is False


def test_trace_filter_criteria():
    trace = Trace()
    trace.append(E(1, 1, "P1", "request", "a"))
    trace.append(E(2, 2, "P2", "op_start", "a"))
    trace.append(E(3, 1, "P1", "op_end", "b"))
    assert [ev.seq for ev in trace.filter(pid=1)] == [1, 3]
    assert [ev.seq for ev in trace.filter(kind="request|op_end")] == [1, 3]
    assert [ev.seq for ev in trace.filter(obj="a", pname="P2")] == [2]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_compute_metrics_without_sink():
    report = run_profile("bounded_buffer", "monitor")
    offline = compute_metrics(report.result, report.spans, sink=None)
    with_sink = report.metrics
    # Contention metrics are sink-independent (the sink additionally
    # contributes probe-gauge-only objects, so compare on offline's keys).
    for name, om in offline.objects.items():
        assert om.blocked_total == with_sink.objects[name].blocked_total
    assert offline.handoffs == with_sink.handoffs
    # Step counts come from the run result when no sink is present.
    assert offline.steps == report.result.steps


def test_metrics_render_and_dict():
    report = run_profile("staged_queue", "serializer")
    text = report.metrics.render()
    assert "switches=" in text and "object" in text
    payload = report.metrics.to_dict()
    json.dumps(payload)
    assert payload["steps"] == report.metrics.steps


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_profile_chrome_export(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["profile", "bounded_buffer", "monitor",
                 "--export", "chrome", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    assert "run:" in capsys.readouterr().out


def test_cli_profile_json(capsys):
    code = main(["profile", "fcfs_resource", "monitor", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"] == "fcfs_resource"
    assert payload["spans"]


def test_cli_profile_unknown_pair_lists_choices(capsys):
    code = main(["profile", "bounded_buffer", "nope"])
    assert code == 1
    assert "bounded_buffer/monitor" in capsys.readouterr().out


def test_cli_metrics_table_and_json(capsys):
    code = main(["metrics", "--problem", "fcfs_resource"])
    assert code == 0
    table = capsys.readouterr().out
    assert "fcfs_resource" in table and "mechanism" in table
    code = main(["metrics", "--problem", "fcfs_resource",
                 "--mechanism", "monitor", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["mechanism"] == "monitor"


def test_cli_timeline_seed(capsys):
    assert main(["timeline", "--seed", "7"]) == 0
    assert capsys.readouterr().out.strip()
