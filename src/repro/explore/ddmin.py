"""Delta debugging: the one minimizer.

:func:`ddmin` shrinks any sequence while a predicate keeps holding.  The
witness shrinker (:mod:`repro.explore.minimize`) runs it over decision
strings and the fault-set search (:mod:`repro.explore.campaign`) over
fault atoms.  It imports nothing, so a fault campaign loads it without
the observability modules the witness report replays through.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple


def ddmin(items: Sequence, still_bad: Callable[[Sequence], bool],
          ) -> Tuple[tuple, int]:
    """Delta-debugging minimization: ``(1-minimal subset, tests run)``.

    Drops chunks of ``items`` (halves first, then finer) while
    ``still_bad`` holds.  1-minimal: removing any single remaining item
    makes the bad outcome disappear.  The empty set is never tested.
    """
    current = list(items)
    tests = 0
    chunks = 2
    while len(current) >= 2:
        size = max(1, len(current) // chunks)
        reduced = False
        for start in range(0, len(current), size):
            candidate = current[:start] + current[start + size:]
            tests += 1
            if still_bad(candidate):
                current = candidate
                chunks = max(chunks - 1, 2)
                reduced = True
                break
        if not reduced:
            if size == 1:
                break
            chunks = min(chunks * 2, len(current))
    return tuple(current), tests
