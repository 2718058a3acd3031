"""Schedule minimization: shrink a violating decision string to a locally
minimal witness, then replay it through the observability layer.

A witness found by exploration is as long as the search happened to make
it; most of its decisions are incidental.  The shrinker here is delta
debugging (ddmin) adapted to decision strings:

* **trailing-default trim** — decisions past the last non-zero entry are
  exactly what :class:`~repro.runtime.policies.ScriptedPolicy` does on an
  exhausted script, so they are dropped for free, no re-run needed;
* **chunk deletion** — remove spans of decisions at halving granularity
  (deleting mid-string *shifts* later decisions to earlier steps; that is
  fine, because any shorter string that still reproduces is a valid
  witness — decision strings need not be aligned to be meaningful);
* **pointwise decrement** — lower each surviving decision toward the
  default choice 0, one unit at a time.

The passes repeat to a fixpoint, after which the witness is **locally
minimal**: deleting any single decision or decrementing any single
position no longer reproduces the violation.  (Global minimality would
require search; local minimality is the standard ddmin guarantee and is
what debugging needs — every remaining decision is load-bearing.)

The minimized witness is replayed once more and folded into per-process
spans (:func:`repro.obs.fold_spans`) with an ASCII timeline, so the
shortest reproduction arrives ready to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult

BuildAndRun = Callable[[ScriptedPolicy], RunResult]
Checker = Callable[[RunResult], List[str]]


@dataclass(frozen=True)
class MinimizedWitness:
    """A shrunk reproduction of a violation.

    Attributes:
        original: the decision string the shrinker started from.
        minimized: the locally minimal decision string.
        messages: violation messages of the minimized run.
        tests: schedules executed while shrinking.
        locally_minimal: False only when ``max_tests`` ran out before the
            fixpoint was reached (the witness still reproduces).
        timeline: ASCII span timeline of the minimized run.
        causal: a happens-before causal explanation of the violating run —
            the tail of its critical path (who ran, who waited on what,
            attributed to constraint kind), one line per segment.
    """

    original: Tuple[int, ...]
    minimized: Tuple[int, ...]
    messages: Tuple[str, ...]
    tests: int
    locally_minimal: bool
    timeline: str
    causal: Tuple[str, ...] = ()

    @property
    def reduction(self) -> int:
        """Decisions removed relative to the original witness."""
        return len(self.original) - len(self.minimized)


def _strip(decisions: List[int]) -> List[int]:
    """Drop trailing default choices — semantically a no-op."""
    end = len(decisions)
    while end and decisions[end - 1] == 0:
        end -= 1
    return decisions[:end]


def minimize_witness(
    build_and_run: BuildAndRun,
    check: Checker,
    witness: Sequence[int],
    max_tests: int = 2000,
    timeline_width: int = 72,
) -> MinimizedWitness:
    """Shrink ``witness`` to a locally minimal decision string.

    Args:
        build_and_run: fresh-system runner, as for the engine.
        check: the property the witness violates (non-empty = violation).
        witness: a decision string known to reproduce the violation.
        max_tests: budget of candidate schedules to execute.
        timeline_width: width of the replay timeline.

    Raises:
        ValueError: the given witness does not reproduce any violation.
    """
    original = tuple(witness)

    tests = 0

    def reproduces(candidate: List[int]) -> bool:
        nonlocal tests
        tests += 1
        return bool(check(build_and_run(ScriptedPolicy(candidate))))

    if not reproduces(list(original)):
        raise ValueError(
            "witness {!r} does not reproduce a violation".format(original)
        )

    current = _strip(list(original))
    converged = False
    while not converged and tests < max_tests:
        converged = True
        # Chunk deletion, halving granularity down to single decisions.
        size = max(len(current) // 2, 1)
        while size >= 1 and tests < max_tests:
            start = 0
            while start < len(current) and tests < max_tests:
                candidate = _strip(current[:start] + current[start + size:])
                if len(candidate) < len(current) and reproduces(candidate):
                    current = candidate
                    converged = False
                else:
                    start += size
            size //= 2
        # Pointwise decrement toward the default choice.
        for index in range(len(current)):
            if index >= len(current):  # a decrement pass shrank the string
                break
            while current[index] > 0 and tests < max_tests:
                candidate = _strip(
                    current[:index] + [current[index] - 1]
                    + current[index + 1:]
                )
                if reproduces(candidate):
                    current = candidate
                    converged = False
                    if index >= len(current):
                        break
                else:
                    break

    # One final replay for the report: messages + span timeline + causal
    # chain.  The obs import is deferred so that importing repro.explore
    # does not load repro.obs: a search that minimizes no witness never
    # needs it.
    from ..obs import ascii_timeline, causal_chain, compute_critical_path, \
        fold_spans

    final = build_and_run(ScriptedPolicy(current))
    messages = tuple(check(final))
    spans = fold_spans(final.trace)
    return MinimizedWitness(
        original=original,
        minimized=tuple(current),
        messages=messages,
        tests=tests,
        locally_minimal=converged,
        timeline=ascii_timeline(spans, width=timeline_width),
        causal=tuple(causal_chain(compute_critical_path(final.trace))),
    )


def minimize_result(
    build_and_run: BuildAndRun,
    check: Checker,
    result,
    max_tests: int = 2000,
) -> Optional[MinimizedWitness]:
    """Convenience: shrink an :class:`ExplorationResult`'s witness, or
    return ``None`` when the search found nothing."""
    if result.witness is None:
        return None
    return minimize_witness(build_and_run, check, result.witness,
                            max_tests=max_tests)
