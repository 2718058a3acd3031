"""Solution-size and complexity metrics.

Crude but useful companions to the structural analysis: how *big* is each
solution (components, pseudocode volume, gates), aggregated per mechanism.
The paper's observation that the CHP writers-priority semaphore solution
balloons to five semaphores and two counts, or that serializer solutions
stay constraint-for-constraint small, becomes a row in a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

from ..core import SolutionDescription, ascii_table


@dataclass(frozen=True)
class SolutionSize:
    """Size metrics for one solution."""

    problem: str
    mechanism: str
    components: int
    gates: int
    text_volume: int  # characters of pseudocode / path text

    @property
    def key(self) -> str:
        return "{}/{}".format(self.problem, self.mechanism)


def measure(description: SolutionDescription) -> SolutionSize:
    """Compute size metrics for one solution description."""
    return SolutionSize(
        problem=description.problem,
        mechanism=description.mechanism,
        components=len(description.components),
        gates=sum(
            1 for c in description.components if c.kind == "sync_procedure"
        ),
        text_volume=sum(len(c.text) for c in description.components),
    )


def measure_all(
    descriptions: Iterable[SolutionDescription],
) -> List[SolutionSize]:
    """Metrics for every description, sorted by problem then mechanism."""
    return sorted(
        (measure(d) for d in descriptions),
        key=lambda s: (s.problem, s.mechanism),
    )


def per_mechanism_totals(
    sizes: Iterable[SolutionSize],
) -> Dict[str, Dict[str, int]]:
    """Aggregate components/gates/text per mechanism."""
    totals: Dict[str, Dict[str, int]] = {}
    for size in sizes:
        row = totals.setdefault(
            size.mechanism,
            {"solutions": 0, "components": 0, "gates": 0, "text_volume": 0},
        )
        row["solutions"] += 1
        row["components"] += size.components
        row["gates"] += size.gates
        row["text_volume"] += size.text_volume
    return totals


def render_sizes(sizes: Iterable[SolutionSize]) -> str:
    """ASCII table of per-solution sizes."""
    headers = ["solution", "components", "gates", "text volume"]
    rows = [
        [s.key, str(s.components), str(s.gates), str(s.text_volume)]
        for s in sizes
    ]
    return ascii_table(headers, rows, "Solution size metrics")


def render_totals(totals: Mapping[str, Mapping[str, int]]) -> str:
    """ASCII table of per-mechanism aggregates."""
    headers = ["mechanism", "solutions", "components", "gates", "text volume"]
    rows = [
        [
            mechanism,
            str(row["solutions"]),
            str(row["components"]),
            str(row["gates"]),
            str(row["text_volume"]),
        ]
        for mechanism, row in sorted(totals.items())
    ]
    return ascii_table(headers, rows, "Per-mechanism size totals")
