"""Unit tests for the trace oracles, exercised on hand-built traces so each
property's accept/reject behaviour is pinned down exactly."""

from repro.runtime.trace import Event, RunResult, Trace
from repro.verify import (
    check_alarm_wakeups,
    check_alternation,
    check_class_priority_two_stage,
    check_fcfs,
    check_mutual_exclusion,
    check_no_overtake,
    check_readers_priority_strict,
    check_scan_order,
    check_single_occupancy,
    check_writers_priority_strict,
)
from repro.verify.registry import oracle


def build_trace(events):
    """events: list of (pid, kind, obj, detail?) or (pid, kind, obj, detail, time)."""
    trace = Trace()
    for seq, item in enumerate(events):
        pid, kind, obj = item[0], item[1], item[2]
        detail = item[3] if len(item) > 3 else None
        time = item[4] if len(item) > 4 else 0
        trace.append(Event(seq, time, pid, "P{}".format(pid), kind, obj, detail))
    return trace


# ----------------------------------------------------------------------
# Mutual exclusion
# ----------------------------------------------------------------------
def test_mutex_ok_for_serial_writes():
    trace = build_trace([
        (1, "op_start", "db.write"),
        (1, "op_end", "db.write"),
        (2, "op_start", "db.write"),
        (2, "op_end", "db.write"),
    ])
    assert check_mutual_exclusion(trace, "db", ["write"], ["read"]) == []


def test_mutex_flags_overlapping_writes():
    trace = build_trace([
        (1, "op_start", "db.write"),
        (2, "op_start", "db.write"),
        (1, "op_end", "db.write"),
        (2, "op_end", "db.write"),
    ])
    violations = check_mutual_exclusion(trace, "db", ["write"])
    assert len(violations) == 1


def test_mutex_allows_shared_overlap():
    trace = build_trace([
        (1, "op_start", "db.read"),
        (2, "op_start", "db.read"),
        (1, "op_end", "db.read"),
        (2, "op_end", "db.read"),
    ])
    assert check_mutual_exclusion(trace, "db", ["write"], ["read"]) == []


def test_mutex_flags_read_during_write():
    trace = build_trace([
        (1, "op_start", "db.write"),
        (2, "op_start", "db.read"),
    ])
    violations = check_mutual_exclusion(trace, "db", ["write"], ["read"])
    assert violations and "shared" in violations[0]


def test_mutex_flags_write_during_read():
    trace = build_trace([
        (1, "op_start", "db.read"),
        (2, "op_start", "db.write"),
    ])
    assert check_mutual_exclusion(trace, "db", ["write"], ["read"])


def test_mutex_ignores_other_resources():
    trace = build_trace([
        (1, "op_start", "db.write"),
        (2, "op_start", "other.write"),
    ])
    assert check_mutual_exclusion(trace, "db", ["write"]) == []


def test_single_occupancy_alias():
    trace = build_trace([
        (1, "op_start", "r.use"),
        (2, "op_start", "r.use"),
    ])
    assert check_single_occupancy(trace, "r", ["use"])


# ----------------------------------------------------------------------
# FCFS
# ----------------------------------------------------------------------
def test_fcfs_ok_in_order():
    trace = build_trace([
        (1, "request", "r.acquire"),
        (2, "request", "r.acquire"),
        (1, "op_start", "r.acquire"),
        (2, "op_start", "r.acquire"),
    ])
    assert check_fcfs(trace, "r", ["acquire"]) == []


def test_fcfs_flags_out_of_order():
    trace = build_trace([
        (1, "request", "r.acquire"),
        (2, "request", "r.acquire"),
        (2, "op_start", "r.acquire"),
        (1, "op_start", "r.acquire"),
    ])
    assert check_fcfs(trace, "r", ["acquire"])


def test_fcfs_handles_repeat_requests_per_process():
    trace = build_trace([
        (1, "request", "r.acquire"),
        (1, "op_start", "r.acquire"),
        (2, "request", "r.acquire"),
        (1, "request", "r.acquire"),
        (2, "op_start", "r.acquire"),
        (1, "op_start", "r.acquire"),
    ])
    assert check_fcfs(trace, "r", ["acquire"]) == []


def test_fcfs_ignores_unserved_tail():
    trace = build_trace([
        (1, "request", "r.acquire"),
        (1, "op_start", "r.acquire"),
        (2, "request", "r.acquire"),  # never served: not a violation
    ])
    assert check_fcfs(trace, "r", ["acquire"]) == []


def test_fcfs_pairs_server_starts_with_client_requests():
    # A csp-style server (P9) starts the clients' requests: it serves the
    # oldest open one first, so FCFS holds; a client's own start still
    # takes its own request ahead of an older one.
    served = build_trace([
        (1, "request", "r.acquire"),
        (2, "request", "r.acquire"),
        (9, "op_start", "r.acquire"),
        (9, "op_start", "r.acquire"),
    ])
    assert check_fcfs(served, "r", ["acquire"]) == []
    own_first = build_trace([
        (1, "request", "r.acquire"),
        (2, "request", "r.acquire"),
        (2, "op_start", "r.acquire"),
        (9, "op_start", "r.acquire"),
    ])
    assert check_fcfs(own_first, "r", ["acquire"]) == [
        "seq 1: r.acquire by P2 requested earlier but started later "
        "(FCFS violated)"]


def test_fcfs_across_two_ops():
    trace = build_trace([
        (1, "request", "db.read"),
        (2, "request", "db.write"),
        (2, "op_start", "db.write"),
        (1, "op_start", "db.read"),
    ])
    assert check_fcfs(trace, "db", ["read", "write"])


# ----------------------------------------------------------------------
# Priority oracles
# ----------------------------------------------------------------------
def test_no_overtake_ok():
    trace = build_trace([
        (1, "request", "db.read"),
        (2, "request", "db.write"),
        (1, "op_start", "db.read"),
        (1, "op_end", "db.read"),
        (2, "op_start", "db.write"),
    ])
    assert check_no_overtake(trace, "db", "read", "write") == []


def test_no_overtake_flags_late_writer_jumping_early_reader():
    trace = build_trace([
        (1, "request", "db.read"),
        (2, "request", "db.write"),
        (2, "op_start", "db.write"),
        (2, "op_end", "db.write"),
        (1, "op_start", "db.read"),
    ])
    assert check_no_overtake(trace, "db", "read", "write")


def test_no_overtake_allows_earlier_writer():
    """A writer that requested BEFORE the reader may go first."""
    trace = build_trace([
        (2, "request", "db.write"),
        (1, "request", "db.read"),
        (2, "op_start", "db.write"),
        (2, "op_end", "db.write"),
        (1, "op_start", "db.read"),
    ])
    assert check_no_overtake(trace, "db", "read", "write") == []


def test_strict_readers_priority_flags_pending_read():
    """The footnote-3 shape: a write starts while a read request pends —
    strict priority flags it even though the writer arrived first."""
    trace = build_trace([
        (2, "request", "db.write"),
        (1, "request", "db.read"),
        (2, "op_start", "db.write"),
    ])
    assert check_readers_priority_strict(trace, "db")


def test_strict_readers_priority_ok_when_no_pending():
    trace = build_trace([
        (2, "request", "db.write"),
        (2, "op_start", "db.write"),
        (2, "op_end", "db.write"),
        (1, "request", "db.read"),
        (1, "op_start", "db.read"),
    ])
    assert check_readers_priority_strict(trace, "db") == []


def test_strict_readers_priority_keeps_a_killed_readers_request_pending():
    # Nothing ever serves a request whose process was killed.
    trace = build_trace([
        (1, "request", "db.read"),
        (-1, "killed", "P1"),
        (2, "request", "db.write"),
        (2, "op_start", "db.write"),
    ])
    assert check_readers_priority_strict(trace, "db") == [
        "seq 3: db.write by P2 started while read request(s) pending "
        "since seq 0"]


def test_strict_writers_priority_mirror():
    trace = build_trace([
        (2, "request", "db.write"),
        (1, "request", "db.read"),
        (1, "op_start", "db.read"),
    ])
    assert check_writers_priority_strict(trace, "db")


# ----------------------------------------------------------------------
# Alternation
# ----------------------------------------------------------------------
def test_alternation_ok():
    trace = build_trace([
        (1, "op_start", "slot.put"),
        (2, "op_start", "slot.get"),
        (1, "op_start", "slot.put"),
        (2, "op_start", "slot.get"),
    ])
    assert check_alternation(trace, "slot") == []


def test_alternation_flags_double_put():
    trace = build_trace([
        (1, "op_start", "slot.put"),
        (1, "op_start", "slot.put"),
    ])
    assert check_alternation(trace, "slot")


def test_alternation_flags_get_first():
    trace = build_trace([
        (2, "op_start", "slot.get"),
    ])
    assert check_alternation(trace, "slot")


# ----------------------------------------------------------------------
# Disk SCAN
# ----------------------------------------------------------------------
def test_scan_ok_elevator_order():
    trace = build_trace([
        (1, "request", "disk", 30),
        (2, "request", "disk", 10),
        (3, "request", "disk", 50),
        (0, "serve", "disk", 30),
        (0, "serve", "disk", 50),
        (0, "serve", "disk", 10),
    ])
    assert check_scan_order(trace, "disk", start_track=20) == []


def test_scan_flags_wrong_direction_choice():
    trace = build_trace([
        (1, "request", "disk", 30),
        (2, "request", "disk", 10),
        (3, "request", "disk", 50),
        (0, "serve", "disk", 10),  # head at 20 moving up: should be 30
    ])
    assert check_scan_order(trace, "disk", start_track=20)


def test_scan_flags_unrequested_track():
    trace = build_trace([
        (0, "serve", "disk", 99),
    ])
    assert check_scan_order(trace, "disk")


def test_scan_dynamic_arrivals():
    """A request arriving mid-sweep behind the head waits for the reverse
    sweep."""
    trace = build_trace([
        (1, "request", "disk", 40),
        (0, "serve", "disk", 40),
        (2, "request", "disk", 10),
        (3, "request", "disk", 60),
        (0, "serve", "disk", 60),  # still sweeping up
        (0, "serve", "disk", 10),
    ])
    assert check_scan_order(trace, "disk", start_track=0) == []


# ----------------------------------------------------------------------
# Alarm clock
# ----------------------------------------------------------------------
def test_alarm_ok_exact_wakeups():
    trace = build_trace([
        (1, "wakeme", "alarm", 5, 0),
        (2, "wakeme", "alarm", 2, 0),
        (2, "wake", "alarm", None, 2),
        (1, "wake", "alarm", None, 5),
    ])
    assert check_alarm_wakeups(trace) == []


def test_alarm_flags_early_wake():
    trace = build_trace([
        (1, "wakeme", "alarm", 5, 0),
        (1, "wake", "alarm", None, 3),
    ])
    assert check_alarm_wakeups(trace)


def test_alarm_flags_late_wake():
    trace = build_trace([
        (1, "wakeme", "alarm", 5, 0),
        (1, "wake", "alarm", None, 9),
    ])
    assert check_alarm_wakeups(trace)


def test_alarm_flags_wake_without_request():
    trace = build_trace([
        (1, "wake", "alarm", None, 1),
    ])
    assert check_alarm_wakeups(trace)


# ----------------------------------------------------------------------
# Two-stage class priority
# ----------------------------------------------------------------------
def test_two_stage_ok():
    trace = build_trace([
        (1, "request", "r.acquire_b"),
        (2, "request", "r.acquire_a"),
        (2, "op_start", "r.acquire_a"),
        (1, "op_start", "r.acquire_b"),
    ])
    assert check_class_priority_two_stage(trace, "r", "acquire_a", "acquire_b") == []


def test_two_stage_flags_low_served_over_pending_high():
    trace = build_trace([
        (1, "request", "r.acquire_b"),
        (2, "request", "r.acquire_a"),
        (1, "op_start", "r.acquire_b"),
    ])
    assert check_class_priority_two_stage(trace, "r", "acquire_a", "acquire_b")


def test_two_stage_flags_fcfs_within_class():
    trace = build_trace([
        (1, "request", "r.acquire_a"),
        (2, "request", "r.acquire_a"),
        (2, "op_start", "r.acquire_a"),
        (1, "op_start", "r.acquire_a"),
    ])
    assert check_class_priority_two_stage(trace, "r", "acquire_a", "acquire_b")


# ----------------------------------------------------------------------
# Progress (the all_served registry oracle)
# ----------------------------------------------------------------------
def test_all_served_counts_aborted_and_unserved_requests():
    trace = build_trace([
        (1, "request", "r.x"),
        (1, "op_start", "r.x"),
        (1, "op_abort", "r.x"),     # started but never completed
        (2, "request", "r.x"),
        (9, "op_start", "r.x"),     # a server serves P2 ...
        (9, "op_end", "r.x"),       # ... and completes it
        (2, "request", "r.y"),      # never served
    ])
    assert oracle("all_served")(RunResult(trace=trace)) == [
        "progress: 1 request(s) of r.x by pid 1 never completed",
        "progress: 1 request(s) of r.y by pid 2 never completed",
    ]
