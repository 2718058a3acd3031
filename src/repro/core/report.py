"""ASCII report rendering for evaluation results.

All benches and examples print their tables through these helpers, so the
paper-style matrices look the same everywhere.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

from .constraints import ConstraintKind
from .criteria import KindMatrix, PowerMatrix
from .information import ALL_INFORMATION_TYPES, InformationType
from .solution import Directness


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table with a header rule.

    >>> print(ascii_table(["a", "b"], [["1", "22"]]))
    a | b
    --+---
    1 | 22
    """
    materialized = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialized:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _cell(judgement: Optional[Directness]) -> str:
    if judgement is None:
        return "-"
    return {"direct": "direct", "indirect": "INDIRECT", "unsupported": "NONE"}[
        judgement.value
    ]


def render_expressive_power(matrix: PowerMatrix) -> str:
    """The paper's §5 expressive-power findings as a matrix."""
    headers = ["mechanism"] + [t.short for t in ALL_INFORMATION_TYPES]
    rows = []
    for mechanism in sorted(matrix):
        row = [mechanism]
        for info_type in ALL_INFORMATION_TYPES:
            row.append(_cell(matrix[mechanism].get(info_type)))
        rows.append(row)
    legend = (
        "\nT1=request type  T2=request time  T3=parameters  "
        "T4=sync state  T5=local state  T6=history"
    )
    return ascii_table(
        headers, rows, "Expressive power (mechanism x information type)"
    ) + legend


def render_kind_support(matrix: KindMatrix) -> str:
    """Exclusion/priority support per mechanism."""
    headers = ["mechanism", "exclusion", "priority"]
    rows = []
    for mechanism in sorted(matrix):
        rows.append(
            [
                mechanism,
                _cell(matrix[mechanism].get(ConstraintKind.EXCLUSION)),
                _cell(matrix[mechanism].get(ConstraintKind.PRIORITY)),
            ]
        )
    return ascii_table(headers, rows, "Constraint-kind support")


def render_modularity(summary: Mapping[str, Mapping[str, bool]]) -> str:
    """The two §2 requirements plus enforcement, per mechanism."""
    headers = [
        "mechanism",
        "sync with resource",
        "resource separable",
        "enforced by mechanism",
    ]
    rows = []
    for mechanism in sorted(summary):
        row_data = summary[mechanism]
        rows.append(
            [
                mechanism,
                "yes" if row_data["synchronization_with_resource"] else "NO",
                "yes" if row_data["resource_separable"] else "NO",
                "yes" if row_data["enforced_by_mechanism"] else "NO (discipline)",
            ]
        )
    return ascii_table(headers, rows, "Modularity requirements (section 2)")


def render_coverage(coverage: Mapping[str, Iterable[InformationType]]) -> str:
    """Which information types each suite problem covers."""
    headers = ["problem"] + [t.short for t in ALL_INFORMATION_TYPES]
    rows = []
    for problem, covered in coverage.items():
        covered_set = set(covered)
        rows.append(
            [problem]
            + ["x" if t in covered_set else "" for t in ALL_INFORMATION_TYPES]
        )
    return ascii_table(
        headers, rows,
        "Test-problem coverage of information types (footnote 2)")
