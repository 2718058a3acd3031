"""Schedule minimization: shrink a violating decision string to a locally
minimal witness, then replay it through the observability layer.

A witness found by exploration is as long as the search happened to make
it; most of its decisions are incidental.  This module applies the one
minimizer, :func:`~repro.explore.ddmin.ddmin` (delta debugging over any
sequence, also used by the fault-set search of
:mod:`repro.explore.campaign`), to decision strings in three passes:

* **trailing-default strip** — decisions past the last non-zero entry are
  exactly what :class:`~repro.runtime.policies.ScriptedPolicy` does on an
  exhausted script, so they are dropped for free, no re-run needed;
* **ddmin over the decisions** — remove chunks of decisions, halves first
  and then finer (deleting mid-string *shifts* later decisions to earlier
  steps; that is fine, because any shorter string that still reproduces
  is a valid witness — decision strings need not be aligned to be
  meaningful);
* **pointwise decrement** — lower each surviving decision toward the
  default choice 0, one unit at a time.

The passes repeat to a fixpoint, after which the witness is **locally
minimal**: deleting any single decision or decrementing any single
position no longer reproduces the violation.  (Global minimality would
require search; local minimality is the standard ddmin guarantee and is
what debugging needs — every remaining decision is load-bearing.)

The minimized witness is replayed once more and folded into per-process
spans (:func:`repro.obs.spans.fold_spans`) with an ASCII timeline and a
causal chain, so the shortest reproduction arrives ready to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..obs.critical_path import causal_chain, compute_critical_path
from ..obs.exporters import ascii_timeline
from ..obs.spans import fold_spans
from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult
from ..verify.detectors import Checker
from .ddmin import ddmin

BuildAndRun = Callable[[ScriptedPolicy], RunResult]


@dataclass(frozen=True)
class MinimizedWitness:
    """A shrunk reproduction of a violation.

    Attributes:
        original: the decision string the shrinker started from.
        minimized: the locally minimal decision string.
        messages: violation messages of the minimized run.
        tests: schedules executed while shrinking.
        locally_minimal: False only when :data:`MAX_TESTS` ran out before
            the fixpoint was reached (the witness still reproduces).
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


#: Budget of candidate schedules one minimization executes.
MAX_TESTS = 2000


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
) -> MinimizedWitness:
    """Shrink ``witness`` to a locally minimal decision string, executing
    at most :data:`MAX_TESTS` candidate schedules.

    Args:
        build_and_run: fresh-system runner, as for the engine.
        check: the property the witness violates (non-empty = violation).
        witness: a decision string known to reproduce the violation.

    Raises:
        ValueError: the given witness does not reproduce any violation.
    """
    original = tuple(witness)

    tests = 0
    capped = False

    def reproduces(candidate: Sequence[int]) -> bool:
        nonlocal tests, capped
        if tests >= MAX_TESTS:
            capped = True
            return False
        tests += 1
        return bool(check(build_and_run(ScriptedPolicy(list(candidate)))))

    if not reproduces(original):
        raise ValueError(
            "witness {!r} does not reproduce a violation".format(original)
        )

    current = _strip(list(original))
    while True:
        previous = current
        # ddmin never tests the empty string; the decrement pass reaches it
        # from (1,) but not from a larger single decision.
        if len(current) == 1 and current[0] > 1 and reproduces([]):
            current = []
        current = _strip(list(ddmin(current, reproduces)[0]))
        # Pointwise decrement toward the default choice.
        index = 0
        while index < len(current):
            if current[index] > 0:
                candidate = _strip(current[:index] + [current[index] - 1]
                                   + current[index + 1:])
                if reproduces(candidate):
                    current = candidate
                    continue
            index += 1
        if capped or current == previous:
            break

    # One final replay for the report: messages + span timeline + causal
    # chain.
    final = build_and_run(ScriptedPolicy(current))
    messages = tuple(check(final))
    spans = fold_spans(final.trace)
    return MinimizedWitness(
        original=original,
        minimized=tuple(current),
        messages=messages,
        tests=tests,
        locally_minimal=not capped,
        timeline=ascii_timeline(spans),
        causal=tuple(causal_chain(compute_critical_path(final.trace))),
    )
