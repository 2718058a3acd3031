"""Unit tests for the liveness analysis and the ASCII timeline renderer."""

import pytest

from repro.explore import get_target
from repro.obs import fold_spans
from repro.problems.readers_writers import (
    MonitorRWFcfs,
    PathReadersPriority,
    run_workload,
)
from repro.problems.readers_writers.anomaly import footnote3_workload
from repro.runtime import OpFold, RandomPolicy, Scheduler, render_timeline
from repro.runtime.trace import Event, Trace
from repro.verify import (
    check_bounded_waiting,
    class_wait_summary,
    starvation_report,
    unserved_requests,
    waiting_times,
)


def build_trace(events):
    trace = Trace()
    for seq, (pid, kind, obj) in enumerate(events):
        trace.append(Event(seq, 0, pid, "P{}".format(pid), kind, obj))
    return trace


def queue_spans(trace):
    """fold_spans' op_queue spans keyed by (pname, obj, request seq)."""
    return {(s.pname, s.obj, s.start_seq): s
            for s in fold_spans(trace) if s.kind == "op_queue"}


def assert_waits_match_spans(trace, resource, ops):
    """Every wait is an ``ok`` op_queue span of the same length, and every
    unserved request is an op_queue span that did not close ``ok``."""
    spans = queue_spans(trace)
    waits = waiting_times(trace, resource, ops)
    for wait in waits:
        span = spans[(wait.pname, wait.obj, wait.request_seq)]
        assert (span.outcome, span.duration) == ("ok", wait.duration)
    unserved = unserved_requests(trace, resource, ops)
    for pname, obj, seq in unserved:
        assert spans[(pname, obj, seq)].outcome != "ok"
    assert len(waits) + len(unserved) == len(spans)


# ----------------------------------------------------------------------
# waiting_times / unserved_requests
# ----------------------------------------------------------------------
def test_waiting_times_pairs_request_with_start():
    trace = build_trace([
        (1, "request", "r.use"),     # seq 0
        (2, "request", "r.use"),     # seq 1
        (1, "op_start", "r.use"),    # seq 2 -> wait 2
        (2, "op_start", "r.use"),    # seq 3 -> wait 2
    ])
    waits = waiting_times(trace, "r", ["use"])
    assert [w.duration for w in waits] == [2, 2]
    assert waits[0].pname == "P1"


def test_waiting_times_handles_repeat_requests():
    trace = build_trace([
        (1, "request", "r.use"),
        (1, "op_start", "r.use"),
        (1, "request", "r.use"),
        (1, "op_start", "r.use"),
    ])
    waits = waiting_times(trace, "r", ["use"])
    assert [w.duration for w in waits] == [1, 1]


def test_unserved_requests_found():
    trace = build_trace([
        (1, "request", "r.use"),
        (1, "op_start", "r.use"),
        (2, "request", "r.use"),  # never served
    ])
    starved = unserved_requests(trace, "r", ["use"])
    assert starved == [("P2", "r.use", 2)]


def test_class_wait_summary():
    trace = build_trace([
        (1, "request", "db.read"),
        (2, "request", "db.write"),
        (1, "op_start", "db.read"),
        (3, "request", "db.read"),
    ])
    summaries = class_wait_summary(trace, "db", ["read", "write"])
    assert summaries["read"].served == 1
    assert summaries["read"].unserved == 1
    assert summaries["write"].served == 0
    assert summaries["write"].unserved == 1


def test_check_bounded_waiting_flags_long_waits():
    trace = build_trace([
        (1, "request", "r.use"),
        (2, "request", "r.use"),
        (2, "op_start", "r.use"),
        (2, "op_end", "r.use"),
        (1, "op_start", "r.use"),  # waited 4
    ])
    assert check_bounded_waiting(trace, "r", ["use"], bound=2)
    assert check_bounded_waiting(trace, "r", ["use"], bound=10) == []


def test_check_bounded_waiting_flags_starvation():
    trace = build_trace([
        (1, "request", "r.use"),
    ])
    violations = check_bounded_waiting(trace, "r", ["use"], bound=100)
    assert violations and "never served" in violations[0]


def test_starvation_report_renders():
    trace = build_trace([
        (1, "request", "db.read"),
        (1, "op_start", "db.read"),
    ])
    text = starvation_report(trace, "db", ["read", "write"])
    assert "db.read" in text and "db.write" in text


# ----------------------------------------------------------------------
# OpFold: the one request -> op_start -> op_end pairing
# ----------------------------------------------------------------------
#: (name, events, expected waits as (pname, request seq, start seq),
#: expected unserved as (pname, request seq)); every event is on r.x.
OP_FOLD_CASES = [
    ("own_first_beats_cross_process", [
        (1, "request", "r.x"),       # seq 0
        (2, "request", "r.x"),       # seq 1
        (2, "op_start", "r.x"),      # seq 2: P2's own request, not P1's
        (3, "op_start", "r.x"),      # seq 3: a server serves P1
    ], [("P2", 1, 2), ("P1", 0, 3)], []),
    ("kill_drops_victim_requests", [
        (1, "request", "r.x"),       # seq 0
        (2, "request", "r.x"),       # seq 1
        (-1, "killed", "P1"),        # seq 2: P1's request is dropped
        (3, "op_start", "r.x"),      # seq 3: serves P2, the oldest open
    ], [("P2", 1, 3)], [("P1", 0)]),
    ("op_abort_leaves_op_uncompleted", [
        (1, "request", "r.x"),       # seq 0
        (1, "op_start", "r.x"),      # seq 1
        (1, "op_abort", "r.x"),      # seq 2
        (1, "request", "r.x"),       # seq 3
        (1, "op_start", "r.x"),      # seq 4
        (1, "op_end", "r.x"),        # seq 5
    ], [("P1", 0, 1), ("P1", 3, 4)], []),
    ("unserved_tail", [
        (1, "request", "r.x"),       # seq 0
        (1, "op_start", "r.x"),      # seq 1
        (1, "op_end", "r.x"),        # seq 2
        (2, "request", "r.x"),       # seq 3
        (1, "request", "r.x"),       # seq 4
    ], [("P1", 0, 1)], [("P2", 3), ("P1", 4)]),
]


@pytest.mark.parametrize("name,events,waits,unserved", OP_FOLD_CASES,
                         ids=[case[0] for case in OP_FOLD_CASES])
def test_op_fold_cases(name, events, waits, unserved):
    trace = build_trace(events)
    assert [(w.pname, w.request_seq, w.start_seq)
            for w in waiting_times(trace, "r", ["x"])] == waits
    assert unserved_requests(trace, "r", ["x"]) == [
        (pname, "r.x", seq) for pname, seq in unserved]
    assert_waits_match_spans(trace, "r", ["x"])


def test_op_fold_abort_and_kill_close_without_completing():
    ops = OpFold().fold(build_trace(OP_FOLD_CASES[2][1])).ops
    assert [(op.start.seq, op.end.kind, op.completed) for op in ops] == [
        (1, "op_abort", False), (4, "op_end", True)]
    dropped = OpFold().fold(build_trace(OP_FOLD_CASES[1][1])).ops[0]
    assert (dropped.start, dropped.end.kind, dropped.completed) == (
        None, "killed", False)


def test_csp_buffer_requests_served_by_the_server_count_as_served():
    # The csp buffer's server process logs op_start for the clients'
    # requests: all four are served, and each wait is its op_queue span.
    run = get_target("bounded_buffer", "csp").build_and_run(RandomPolicy(1))
    assert not run.deadlocked
    assert unserved_requests(run.trace, "buf", ["get", "put"]) == []
    waits = waiting_times(run.trace, "buf", ["get", "put"])
    assert len(waits) == 4
    assert_waits_match_spans(run.trace, "buf", ["get", "put"])


# ----------------------------------------------------------------------
# Integration: the paper's starvation claim measured
# ----------------------------------------------------------------------
def test_writer_starves_under_readers_priority_stream():
    """§5.1.1: the spec 'allows writers to starve' — with a sustained
    reader stream, the writer's wait dwarfs every reader's."""
    sched = Scheduler()
    impl = PathReadersPriority(sched)

    def reader_stream(rounds):
        def body():
            for __ in range(rounds):
                yield from impl.read(work=2)
        return body

    def writer():
        yield
        yield from impl.write(1, work=1)

    sched.spawn(reader_stream(6), name="Ra")
    sched.spawn(reader_stream(6), name="Rb")
    sched.spawn(writer, name="W")
    result = sched.run()
    summaries = class_wait_summary(result.trace, "db", ["read", "write"])
    assert summaries["write"].max_wait > summaries["read"].max_wait * 3


def test_fcfs_bounds_waiting():
    """Under FCFS nobody's wait explodes relative to the others."""
    from repro.problems.readers_writers import BURST_PLAN

    result = run_workload(lambda sched: MonitorRWFcfs(sched), BURST_PLAN * 2)
    waits = waiting_times(result.trace, "db", ["read", "write"])
    assert waits
    assert unserved_requests(result.trace, "db", ["read", "write"]) == []


# ----------------------------------------------------------------------
# Timeline rendering
# ----------------------------------------------------------------------
def test_timeline_shows_anomaly_shape():
    result = footnote3_workload(
        lambda sched: PathReadersPriority(sched)
    )
    chart = render_timeline(
        result.trace, {"db.read": "R", "db.write": "W"}
    )
    lines = {row.split(" |")[0].strip(): row for row in chart.splitlines()}
    assert set(lines) == {"W1", "W2", "R1"}
    # W2's write appears before R1's read (the overtake), left to right.
    w2_col = lines["W2"].index("W", lines["W2"].index("|"))
    r1_col = lines["R1"].index("R", lines["R1"].index("|"))
    assert w2_col < r1_col


def test_timeline_empty_trace():
    assert "no matching events" in render_timeline(Trace(), {"x.y": "X"})


def test_timeline_width_squeeze():
    result = footnote3_workload(lambda sched: PathReadersPriority(sched))
    chart = render_timeline(
        result.trace, {"db.read": "R", "db.write": "W"}, width=40
    )
    for row in chart.splitlines():
        body = row.split("| ", 1)[1]
        assert len(body) <= 40


def test_timeline_include_filter():
    result = footnote3_workload(lambda sched: PathReadersPriority(sched))
    chart = render_timeline(
        result.trace, {"db.write": "W"}, include=["W1"]
    )
    assert chart.splitlines()[0].startswith("W1")
    assert len(chart.splitlines()) == 1
