"""Unit tests for trace query helpers, the PriorityPolicy, ASCII table
rendering, and evaluation-report edge cases."""

from repro.core import (
    Component,
    ConstraintRealization,
    Directness,
    Evaluator,
    ModularityProfile,
    SolutionDescription,
    ascii_table,
    render_coverage,
    render_expressive_power,
)
from repro.core.criteria import expressive_power
from repro.runtime import PriorityPolicy, Scheduler
from repro.runtime.trace import Event, Trace


def sample_trace():
    trace = Trace()
    data = [
        (0, 0, 1, "A", "spawn", "A", None),
        (1, 0, 1, "A", "request", "db.read", (3,)),
        (2, 0, 2, "B", "request", "db.write", None),
        (3, 1, 1, "A", "op_start", "db.read", None),
        (4, 1, 1, "A", "op_end", "db.read", None),
        (5, 2, 2, "B", "op_start", "db.write", None),
    ]
    for seq, time, pid, pname, kind, obj, detail in data:
        trace.append(Event(seq, time, pid, pname, kind, obj, detail))
    return trace


# ----------------------------------------------------------------------
# Trace queries
# ----------------------------------------------------------------------
def test_filter_by_kind_alternation():
    trace = sample_trace()
    events = trace.filter(kind="op_start|op_end")
    assert [ev.seq for ev in events] == [3, 4, 5]


def test_filter_by_obj_and_pname():
    trace = sample_trace()
    assert len(trace.filter(obj="db.read")) == 3
    assert len(trace.filter(pname="B")) == 2


def test_filter_with_predicate():
    trace = sample_trace()
    events = trace.filter(predicate=lambda ev: ev.time >= 1)
    assert [ev.seq for ev in events] == [3, 4, 5]


def test_first_and_last():
    trace = sample_trace()
    assert trace.first(kind="request").seq == 1
    assert trace.last(kind="request").seq == 2
    assert trace.first(kind="nothing") is None
    assert trace.last(kind="nothing") is None


def test_kinds_in_first_occurrence_order():
    assert sample_trace().kinds() == ["spawn", "request", "op_start", "op_end"]


def test_per_process_grouping():
    grouped = sample_trace().per_process()
    assert set(grouped) == {"A", "B"}
    assert [ev.seq for ev in grouped["B"]] == [2, 5]


def test_projection_preserves_order():
    events = sample_trace().projection("op_end", "op_start")
    assert [ev.seq for ev in events] == [3, 4, 5]


def test_render_truncation():
    text = sample_trace().render(limit=2)
    assert "more events" in text
    assert len(text.splitlines()) == 3


def test_event_str_includes_detail():
    trace = sample_trace()
    assert "(3,)" in str(trace[1])


def test_container_protocol():
    trace = sample_trace()
    assert len(trace) == 6
    assert trace[0].kind == "spawn"
    assert [ev.seq for ev in trace][:2] == [0, 1]


# ----------------------------------------------------------------------
# PriorityPolicy
# ----------------------------------------------------------------------
def test_priority_policy_prefers_high_priority():
    order = []

    def body(tag):
        def run():
            for __ in range(2):
                order.append(tag)
                yield
        return run

    sched = Scheduler(policy=PriorityPolicy({"hi": 10, "lo": 1}))
    sched.spawn(body("lo"), name="lo")
    sched.spawn(body("hi"), name="hi")
    sched.run()
    assert order[0] == "hi"
    assert order.count("hi") == 2


def test_priority_policy_ties_fifo():
    order = []

    def body(tag):
        def run():
            order.append(tag)
            yield
        return run

    sched = Scheduler(policy=PriorityPolicy({}))
    sched.spawn(body("a"), name="a")
    sched.spawn(body("b"), name="b")
    sched.run()
    assert order == ["a", "b"]


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------
def test_ascii_table_alignment():
    text = ascii_table(["col", "x"], [["long-value", "1"], ["s", "22"]])
    lines = text.splitlines()
    assert len({line.index("|") for line in lines if "|" in line}) == 1


def test_ascii_table_title_rule():
    text = ascii_table(["a"], [["1"]], title="My Table")
    assert text.splitlines()[0] == "My Table"
    assert text.splitlines()[1] == "=" * len("My Table")


def test_ascii_table_coerces_cells():
    text = ascii_table(["n"], [[42]])
    assert "42" in text


def test_render_coverage_marks():
    from repro.core import coverage_matrix

    text = render_coverage(coverage_matrix())
    assert "x" in text


def test_render_expressive_power_handles_missing_cells():
    d = SolutionDescription(
        problem="bounded_buffer",
        mechanism="toy",
        components=(Component("c", "guard"),),
        realizations=(
            ConstraintRealization(
                "buffer_bounds", ("c",), (), Directness.DIRECT
            ),
        ),
        modularity=ModularityProfile(True, True, True),
    )
    text = render_expressive_power(expressive_power([d]))
    assert "toy" in text
    assert "-" in text  # unexercised types render as '-'


# ----------------------------------------------------------------------
# Evaluation report edge cases
# ----------------------------------------------------------------------
def test_report_renders_failures_with_detail():
    d = SolutionDescription(
        problem="bounded_buffer",
        mechanism="toy",
        components=(),
        realizations=(),
        modularity=ModularityProfile(True, True, True),
    )
    evaluator = Evaluator()
    evaluator.add(d, verifier=lambda: ["first problem", "second problem"])
    report = evaluator.evaluate()
    text = report.render()
    assert "FAIL" in text
    assert "first problem" in text


def test_criteria_fallback_uses_constraint_tags():
    """Without explicit info_handling, the constraint's declared types are
    judged at the realization's directness."""
    d = SolutionDescription(
        problem="fcfs_resource",
        mechanism="toy",
        components=(Component("q", "queue"),),
        realizations=(
            ConstraintRealization(
                "arrival_order", ("q",), (), Directness.INDIRECT
            ),
        ),
        modularity=ModularityProfile(True, True, True),
    )
    from repro.core import InformationType

    matrix = expressive_power([d])
    assert matrix["toy"][InformationType.REQUEST_TIME] is Directness.INDIRECT
