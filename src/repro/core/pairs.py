"""Pairwise information-type analysis (§4.2, last paragraph).

"It is also possible that usage of two particular types of information will
conflict.  In this case, constraint independence will be violated only in
examples using both types of information. … the only complete method of
evaluation seems to be to check all possible pairs of the six information
types."

This module makes that check systematic:

* :func:`all_pairs` — the 15 unordered pairs of the six types;
* :func:`pair_coverage` — for each pair, which suite problems exercise both
  types together (so an evaluation knows which pairs it has actually
  probed);
* :func:`uncovered_pairs` — pairs no problem in the suite probes: the
  honest residual risk of an evaluation (the paper: analyzing types one at
  a time usually reveals conflicts, "but it is not as easy to check");
* :func:`conflicting_pairs` — pairs where a recorded solution needed a
  conflict-resolving idiom (constructs tagged ``two_stage_queue``), i.e.
  the §5.2 monitor T1×T2 case, recovered from solution descriptions.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set

from .catalog import PROBLEM_CATALOG
from .information import ALL_INFORMATION_TYPES, InformationType
from .report import ascii_table
from .solution import SolutionDescription

Pair = FrozenSet[InformationType]

#: Construct tags that signal a resolved information-type conflict.
CONFLICT_MARKERS = ("two_stage_queue",)


def all_pairs() -> List[Pair]:
    """The 15 unordered pairs of information types, in canonical order."""
    return [
        frozenset(pair) for pair in combinations(ALL_INFORMATION_TYPES, 2)
    ]


def _pair_label(pair: Pair) -> str:
    a, b = sorted(pair, key=lambda t: t.short)
    return "{}x{}".format(a.short, b.short)


def pair_coverage() -> Dict[Pair, List[str]]:
    """Which catalog problems exercise each pair (both types in the
    problem's constraint set)."""
    coverage: Dict[Pair, List[str]] = {pair: [] for pair in all_pairs()}
    for name, spec in PROBLEM_CATALOG.items():
        types = spec.info_types
        for pair in coverage:
            if pair <= types:
                coverage[pair].append(name)
    return coverage


def uncovered_pairs() -> List[Pair]:
    """Pairs no catalog problem probes — the residual blind spots."""
    return [
        pair for pair, problems in pair_coverage().items() if not problems
    ]


def conflicting_pairs(
    descriptions: Iterable[SolutionDescription],
) -> Dict[str, Set[Pair]]:
    """Mechanism → pairs whose combined use forced a conflict-resolving
    idiom, recovered from realization construct tags."""
    conflicts: Dict[str, Set[Pair]] = {}
    for description in descriptions:
        spec = PROBLEM_CATALOG.get(description.problem)
        if spec is None:
            continue
        for realization in description.realizations:
            if not any(m in realization.constructs for m in CONFLICT_MARKERS):
                continue
            # The conflicting pair is the info the constraint uses plus the
            # types its resolution had to juggle (recorded in info_handling).
            involved = set(realization.info_handling)
            if len(involved) < 2:
                try:
                    involved |= set(
                        spec.constraint(realization.constraint_id).info_types
                    )
                except KeyError:
                    pass
            for pair in combinations(sorted(involved, key=lambda t: t.short), 2):
                conflicts.setdefault(description.mechanism, set()).add(
                    frozenset(pair)
                )
    return conflicts


def render_pair_coverage(
    coverage: Mapping[Pair, List[str]],
    conflicts: Mapping[str, Set[Pair]] = (),
) -> str:
    """ASCII table: pair → probing problems → mechanisms that conflicted."""
    conflict_index: Dict[Pair, List[str]] = {}
    if conflicts:
        for mechanism, pairs in conflicts.items():
            for pair in pairs:
                conflict_index.setdefault(pair, []).append(mechanism)
    rows = []
    for pair in all_pairs():
        problems = coverage.get(pair, [])
        rows.append([
            _pair_label(pair),
            ", ".join(problems) if problems else "(uncovered)",
            ", ".join(sorted(conflict_index.get(pair, []))) or "-",
        ])
    return ascii_table(
        ["pair", "probed by", "conflicts found in"], rows,
        "Pairwise information-type coverage (section 4.2)",
    )
