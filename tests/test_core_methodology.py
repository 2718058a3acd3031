"""Unit tests for the methodology core: information types, constraints,
problem catalog coverage, solution descriptions, criteria matrices, and the
evaluation engine."""

import pytest

from repro.core import (
    ALL_INFORMATION_TYPES,
    Component,
    Constraint,
    ConstraintKind,
    ConstraintRealization,
    Directness,
    Evaluator,
    FOOTNOTE2_SUITE,
    InformationType,
    ModularityProfile,
    PROBLEM_CATALOG,
    SolutionDescription,
    best,
    constraint_kind_support,
    coverage_matrix,
    expressive_power,
    gate_usage,
    modularity_summary,
    uncovered_types,
    worst,
)

T1 = InformationType.REQUEST_TYPE
T2 = InformationType.REQUEST_TIME
T5 = InformationType.LOCAL_STATE


# ----------------------------------------------------------------------
# Information types and constraints
# ----------------------------------------------------------------------
def test_six_information_types():
    assert len(ALL_INFORMATION_TYPES) == 6
    assert [t.short for t in ALL_INFORMATION_TYPES] == [
        "T1", "T2", "T3", "T4", "T5", "T6",
    ]


def test_information_type_descriptions():
    for t in ALL_INFORMATION_TYPES:
        assert t.description


def test_constraint_builders():
    c = Constraint.exclusion("x", {T5}, "no get when empty")
    assert c.kind is ConstraintKind.EXCLUSION
    assert c.info_types == frozenset({T5})
    p = Constraint.priority("y", {T2}, "arrival order")
    assert p.kind is ConstraintKind.PRIORITY


def test_constraint_str_includes_tags():
    c = Constraint.exclusion("x", {T1, T5}, "demo")
    assert "T1" in str(c) and "T5" in str(c)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
def test_catalog_has_all_paper_problems():
    expected = {
        "bounded_buffer", "fcfs_resource", "readers_priority",
        "writers_priority", "rw_fcfs", "disk_scheduler", "alarm_clock",
        "one_slot_buffer", "staged_queue",
    }
    assert expected <= set(PROBLEM_CATALOG)


def test_footnote2_suite_covers_all_types():
    """The paper's completeness claim: the footnote-2 set covers all six
    information types."""
    assert uncovered_types() == []


def test_coverage_matrix_shape():
    matrix = coverage_matrix()
    assert set(matrix) == set(FOOTNOTE2_SUITE)
    assert matrix["bounded_buffer"] == frozenset({T5})


def test_partial_suite_reports_gaps(monkeypatch):
    import repro.core.catalog as catalog

    monkeypatch.setattr(catalog, "FOOTNOTE2_SUITE", ("bounded_buffer",))
    gaps = uncovered_types()
    assert InformationType.REQUEST_TIME in gaps
    assert InformationType.LOCAL_STATE not in gaps


def test_problem_constraint_lookup():
    spec = PROBLEM_CATALOG["readers_priority"]
    c = spec.constraint("rw_exclusion")
    assert c.kind is ConstraintKind.EXCLUSION
    with pytest.raises(KeyError):
        spec.constraint("nope")


def test_problem_kind_partitions():
    spec = PROBLEM_CATALOG["readers_priority"]
    assert [c.id for c in spec.exclusion_constraints] == ["rw_exclusion"]
    assert [c.id for c in spec.priority_constraints] == ["readers_priority"]


def test_shared_constraints_between_rw_variants():
    """The §4.2 probe pair shares the exclusion constraint."""
    a = PROBLEM_CATALOG["readers_priority"]
    b = PROBLEM_CATALOG["writers_priority"]
    assert a.shared_constraints(b) == ("rw_exclusion",)


def test_info_types_union():
    spec = PROBLEM_CATALOG["rw_fcfs"]
    assert InformationType.REQUEST_TIME in spec.info_types
    assert InformationType.SYNC_STATE in spec.info_types


# ----------------------------------------------------------------------
# Solution descriptions
# ----------------------------------------------------------------------
def make_description(mechanism="monitor", problem="readers_priority",
                     directness=Directness.DIRECT, gates=0):
    components = [
        Component("proc:start_read", "procedure", "rc := rc + 1"),
        Component("cond:ok_to_read", "condition"),
    ]
    for i in range(gates):
        components.append(Component("gate:{}".format(i), "sync_procedure"))
    return SolutionDescription(
        problem=problem,
        mechanism=mechanism,
        components=tuple(components),
        realizations=(
            ConstraintRealization(
                constraint_id="rw_exclusion",
                components=("proc:start_read",),
                constructs=("condition_queue",),
                directness=directness,
            ),
            ConstraintRealization(
                constraint_id="readers_priority",
                components=("cond:ok_to_read",),
                constructs=("condition_queue",),
                directness=directness,
            ),
        ),
        modularity=ModularityProfile(True, True, False),
    )


def test_description_lookup_helpers():
    d = make_description()
    assert d.component("cond:ok_to_read").kind == "condition"
    assert d.realization("rw_exclusion").directness is Directness.DIRECT
    assert d.realized_constraint_ids() == ("rw_exclusion", "readers_priority")
    assert [c.name for c in d.components_for("rw_exclusion")] == [
        "proc:start_read"
    ]
    with pytest.raises(KeyError):
        d.component("missing")
    with pytest.raises(KeyError):
        d.realization("missing")


def test_description_validation_catches_dangling_reference():
    d = SolutionDescription(
        problem="bounded_buffer",
        mechanism="monitor",
        components=(Component("a", "procedure"),),
        realizations=(
            ConstraintRealization("buffer_bounds", ("ghost",), (), Directness.DIRECT),
        ),
        modularity=ModularityProfile(True, True, True),
    )
    issues = d.validate()
    assert any("ghost" in issue for issue in issues)


def test_description_validation_catches_duplicates():
    d = SolutionDescription(
        problem="bounded_buffer",
        mechanism="monitor",
        components=(Component("a", "procedure"), Component("a", "condition")),
        realizations=(),
        modularity=ModularityProfile(True, True, True),
    )
    assert d.validate()


def test_directness_ordering():
    assert best(Directness.INDIRECT, Directness.DIRECT) is Directness.DIRECT
    assert worst(Directness.INDIRECT, Directness.UNSUPPORTED) is Directness.UNSUPPORTED
    assert Directness.DIRECT.rank > Directness.INDIRECT.rank


# ----------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------
def test_expressive_power_from_constraint_tags():
    matrix = expressive_power([make_description()])
    row = matrix["monitor"]
    assert row[T1] is Directness.DIRECT
    assert row[InformationType.SYNC_STATE] is Directness.DIRECT
    assert row[InformationType.PARAMETERS] is None  # never exercised


def test_expressive_power_takes_best():
    weak = make_description(directness=Directness.INDIRECT)
    strong = make_description(directness=Directness.DIRECT)
    matrix = expressive_power([weak, strong])
    assert matrix["monitor"][T1] is Directness.DIRECT


def test_expressive_power_explicit_info_handling_wins():
    d = SolutionDescription(
        problem="readers_priority",
        mechanism="pathexpr",
        components=(Component("p", "path"),),
        realizations=(
            ConstraintRealization(
                "readers_priority",
                ("p",),
                ("selection",),
                Directness.INDIRECT,
                info_handling={T1: Directness.UNSUPPORTED},
            ),
        ),
        modularity=ModularityProfile(True, False, True),
    )
    matrix = expressive_power([d])
    assert matrix["pathexpr"][T1] is Directness.UNSUPPORTED


def test_constraint_kind_support_matrix():
    matrix = constraint_kind_support([make_description()])
    row = matrix["monitor"]
    assert row[ConstraintKind.EXCLUSION] is Directness.DIRECT
    assert row[ConstraintKind.PRIORITY] is Directness.DIRECT


def test_modularity_summary_is_conservative():
    good = make_description()
    bad = SolutionDescription(
        problem="bounded_buffer",
        mechanism="monitor",
        components=(),
        realizations=(),
        modularity=ModularityProfile(True, False, False),
    )
    summary = modularity_summary([good, bad])
    assert summary["monitor"]["resource_separable"] is False


def test_gate_usage_counts_sync_procedures():
    counts = gate_usage([make_description(gates=3), make_description(gates=1)])
    assert counts["monitor"] == 4


# ----------------------------------------------------------------------
# Evaluation engine
# ----------------------------------------------------------------------
def test_evaluator_runs_verifiers():
    evaluator = Evaluator()
    evaluator.add(make_description(), verifier=lambda: [])
    evaluator.add(
        make_description(mechanism="pathexpr"),
        verifier=lambda: ["boom"],
    )
    report = evaluator.evaluate()
    assert len(report.failures()) == 1
    assert report.failures()[0].description.mechanism == "pathexpr"
    assert set(report.mechanisms()) == {"monitor", "pathexpr"}


def test_evaluator_rejects_invalid_description():
    bad = SolutionDescription(
        problem="x",
        mechanism="m",
        components=(),
        realizations=(
            ConstraintRealization("c", ("ghost",), (), Directness.DIRECT),
        ),
        modularity=ModularityProfile(True, True, True),
    )
    with pytest.raises(ValueError):
        Evaluator().add(bad)


def test_report_renders_all_sections():
    evaluator = Evaluator()
    evaluator.add(make_description(), verifier=lambda: [])
    report = evaluator.evaluate()
    text = report.render()
    assert "Expressive power" in text
    assert "Modularity requirements" in text
    assert "Gate usage" in text
    assert "monitor" in text


def test_report_skips_verifiers_when_asked():
    evaluator = Evaluator()
    called = []
    evaluator.add(make_description(), verifier=lambda: called.append(1) or [])
    report = evaluator.evaluate(run_verifiers=False)
    assert not called
    assert report.entries[0].verified is None
