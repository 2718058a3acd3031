"""Shared helpers for the experiment benches.

Every bench module regenerates one row of the DESIGN.md experiment index
(E1–E10): it *computes* the paper artifact, *asserts* the paper's claim
about its shape, and *prints* the regenerated table (visible with
``pytest benchmarks/ -s`` and in the captured output of failures).

Benches that produce numbers worth keeping (overhead ratios, contention
profiles) additionally :func:`persist` them to ``benchmarks/BENCH_<name>.json``
so runs are diffable across commits without scraping pytest output.  That
file is tracked and holds only what the program computes; the host's
wall-clock readings go to the untracked ``BENCH_<name>.timing.json``
beside it, so a bench run leaves the tree clean.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from typing import Any, Callable, Dict, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))


def emit(title: str, body: str) -> None:
    """Print one regenerated artifact with a banner."""
    print()
    print("#" * 72)
    print("# " + title)
    print("#" * 72)
    print(body)


#: Keys whose values are host wall-clock readings, or figures derived from
#: them: a key ending in one of the suffixes, or named exactly.  The whole
#: value under such a key is timing (``phase_seconds``, ``self_profile``).
_TIMING_SUFFIXES = ("seconds", "_overhead_ratio", "schedules_per_sec")
_TIMING_NAMES = frozenset({"ratio", "coverage", "t", "self_profile"})


def _is_timing(key: str) -> bool:
    return key.endswith(_TIMING_SUFFIXES) or key in _TIMING_NAMES


def _split(value: Any) -> Tuple[Any, Any]:
    """``(tracked, timing)`` halves of a JSON value; the timing half is
    ``None`` where the value holds no timing key.  Lists split item by
    item, so a timing list lines up with its tracked twin."""
    if isinstance(value, dict):
        tracked, timing = {}, {}
        for key, item in value.items():
            if _is_timing(key):
                timing[key] = item
                continue
            tracked[key], timed = _split(item)
            if timed is not None:
                timing[key] = timed
        return tracked, timing or None
    if isinstance(value, list):
        halves = [_split(item) for item in value]
        timed = [timing for __, timing in halves]
        return ([tracked for tracked, __ in halves],
                timed if any(t is not None for t in timed) else None)
    return value, None


def _merge(path: str, payload: Dict[str, Any]) -> None:
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (ValueError, OSError):
            data = {}
    data.update(payload)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, ensure_ascii=True,
                  default=str)
        handle.write("\n")


def persist(name: str, payload: Dict[str, Any],
            directory: str = _HERE) -> str:
    """Merge ``payload`` into ``<directory>/BENCH_<name>.json`` and return
    the path; its timing values go to ``BENCH_<name>.timing.json``.

    Top-level keys overwrite; untouched keys survive, so several tests (or
    several bench modules sharing one report file) can each contribute their
    own section without clobbering the rest.  Serialization is canonical —
    sorted keys, two-space indent, ASCII, trailing newline, non-JSON values
    coerced through ``str`` — so re-running a bench with unchanged numbers
    produces a byte-identical file and commits diff cleanly.
    """
    tracked, timing = _split(payload)
    path = os.path.join(directory, "BENCH_{}.json".format(name))
    _merge(path, tracked)
    if timing is not None:
        _merge(os.path.join(directory, "BENCH_{}.timing.json".format(name)),
               timing)
    return path


def paired_ratio(pairs: int, base: Callable[[], float],
                 other: Callable[[], float]) -> Tuple[float, float, float]:
    """Time ``base`` and ``other`` in ``pairs`` interleaved pairs and return
    ``(median of other/base per pair, median base s, median other s)``.

    Each callable runs its workload once and returns the seconds it took.
    The side that runs first alternates from pair to pair, so a drift in
    host speed lands on both sides alike, and the median of the per-pair
    ratios shrugs off the odd pair a noisy neighbour disturbed.  Minima
    taken over two separate blocks of runs do neither.  The collector is
    run before, and held off during, every timed call.
    """
    def timed(side: Callable[[], float]) -> float:
        # As timeit does: no collector pass lands inside one side's timing.
        gc.collect()
        gc.disable()
        try:
            return side()
        finally:
            gc.enable()

    ratios, base_s, other_s = [], [], []
    for index in range(pairs):
        if index % 2:
            other_seconds = timed(other)
            base_seconds = timed(base)
        else:
            base_seconds = timed(base)
            other_seconds = timed(other)
        ratios.append(other_seconds / base_seconds)
        base_s.append(base_seconds)
        other_s.append(other_seconds)
    return (statistics.median(ratios), statistics.median(base_s),
            statistics.median(other_s))
