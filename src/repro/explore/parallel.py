"""Wave-synchronized parallel exploration: shard schedule execution across
a worker pool while keeping results bit-identical to a single worker.

Schedule *execution* dominates exploration cost and is embarrassingly
parallel (a run is a pure function of its decision string), but naive
work-sharing makes results depend on worker timing.  The design here keeps
determinism by construction:

1. The master holds the frontier.  Each round it sorts the pending work
   items (canonically, or by a seed-keyed shuffle) into a **wave**,
   truncated to the remaining run budget.
2. Workers execute wave items and ship back picklable
   :class:`~repro.explore.engine.RunRecord` reductions — never traces.
   Each worker rebuilds the target from its ``(problem, mechanism)`` name
   in the pool initializer, so nothing unpicklable crosses the boundary.
3. The master merges records **in wave order** — counting runs, collecting
   violations, and expanding children through the same
   :func:`~repro.explore.engine.expand_record` the serial engine uses,
   against a single master-side ``seen`` set.

Because every pruning and ordering decision happens on the master over a
deterministically-ordered wave, the :class:`ExplorationResult` (runs,
violations, witness, pruned, states) is a function of
``(target, budget, depth, prune, seed)`` only — independent of worker
count and completion timing.  ``workers=1`` runs the identical algorithm
in-process, which is what the determinism regression test compares
against.

Worker processes are only worth their fork cost when single-run execution
is slow or the space is large; the CLI defaults to serial and the
benchmark (benchmarks/bench_exploration.py) measures the crossover.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
from time import perf_counter
from typing import List, Optional, Set, Tuple

from ..runtime.policies import ScriptedPolicy
from .engine import (
    ExplorationResult,
    PruneKey,
    RecordingPolicy,
    RunRecord,
    expand_record,
    run_one_timed,
)
from .targets import ExplorationTarget, get_target

#: Per-worker state, installed by :func:`_init_worker` after the fork/spawn.
_WORKER: dict = {}


def _init_worker(problem: str, mechanism: str, prune: bool,
                 max_depth: int) -> None:
    """Pool initializer: rebuild the target (and import its problem modules)
    inside the worker."""
    _WORKER["target"] = get_target(problem, mechanism)
    _WORKER["prune"] = prune
    _WORKER["max_depth"] = max_depth


def _execute(
    target: ExplorationTarget,
    prefix: Tuple[int, ...],
    prune: bool,
    max_depth: int,
    check,
) -> RunRecord:
    """Run one schedule of ``target`` and reduce it to a record."""
    policy = (RecordingPolicy(prefix, max_depth) if prune
              else ScriptedPolicy(prefix))
    run = target.build_and_run(policy)
    return RunRecord.from_run(prefix, policy, check(run))


def _execute_in_worker(prefix: Tuple[int, ...]) -> RunRecord:
    target = _WORKER["target"]
    return _execute(target, prefix, _WORKER["prune"], _WORKER["max_depth"],
                    target.checker)


def _execute_in_worker_timed(
    prefix: Tuple[int, ...],
) -> Tuple[RunRecord, Tuple[int, float, float, int]]:
    """Telemetry variant: the record plus ``(worker pid, start, end,
    pickled-record bytes)``.  Timestamps are raw ``perf_counter`` readings
    — system-wide monotonic under the fork context, so the master can
    place them on its own timeline.  The record itself is identical to
    :func:`_execute_in_worker`'s (timing is passive), preserving
    worker-count- and telemetry-independence of results."""
    start = perf_counter()
    record = _execute_in_worker(prefix)
    end = perf_counter()
    result_bytes = len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    return record, (os.getpid(), start, end, result_bytes)


def _wave_key(seed: Optional[int]):
    """Sort key for a wave.  ``None`` = canonical lexicographic order;
    an integer seed shuffles deterministically (hash of seed + prefix), so
    budgeted searches sample different regions per seed while exhaustive
    searches stay seed-independent."""
    if seed is None:
        return lambda prefix: prefix
    def key(prefix: Tuple[int, ...]) -> Tuple[bytes, Tuple[int, ...]]:
        payload = repr((seed, prefix)).encode()
        return (hashlib.blake2b(payload, digest_size=8).digest(), prefix)
    return key


def explore_parallel(
    target: ExplorationTarget,
    check=None,
    *,
    workers: int = 1,
    max_runs: int = 2000,
    max_depth: int = 60,
    prune: bool = True,
    seed: Optional[int] = None,
    stop_at_first: bool = False,
    telemetry=None,
) -> ExplorationResult:
    """Explore ``target``'s schedule space with ``workers`` processes.

    Args:
        target: what to run; must be a named target so workers can rebuild
            it (arbitrary closures cannot cross the process boundary —
            use :class:`~repro.explore.engine.ExplorationEngine` for those).
        check: optional checker override; defaults to the target's own
            battery.  Only usable with ``workers=1`` (not picklable).
        workers: process count; 1 runs in-process (no pool, same algorithm).
        max_runs: schedule budget across all workers.
        max_depth: branching horizon, as in the serial engine.
        prune: canonical-fingerprint equivalence pruning (master-side).
        seed: deterministic wave-order shuffle; affects which schedules a
            *budget-limited* search reaches, never an exhaustive one.
        stop_at_first: stop once a wave containing a violation is merged.
        telemetry: optional :class:`~repro.obs.harness.HarnessTelemetry`
            receiving phase accounting, wave stats, and the per-worker
            utilization timeline.  Duck-typed null path exactly as in
            :class:`~repro.explore.engine.ExplorationEngine`: a sink with
            ``IS_NULL = True`` (or ``None``) costs nothing, and telemetry
            never changes the :class:`ExplorationResult`.

    Returns:
        An :class:`ExplorationResult` identical for any ``workers`` value.
    """
    if check is not None and workers > 1:
        raise ValueError(
            "a checker override cannot be shipped to worker processes; "
            "use workers=1 or register a named target"
        )
    if telemetry is not None and getattr(telemetry, "IS_NULL", False):
        telemetry = None
    result = ExplorationResult()
    frontier: List[Tuple[int, ...]] = [()]
    seen: Optional[Set[PruneKey]] = set() if prune else None
    key = _wave_key(seed)
    pool = None
    if workers > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        pool = context.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(target.problem, target.mechanism, prune, max_depth),
        )
    if telemetry is not None:
        telemetry.begin(max_runs=max_runs, workers=workers)
    checker = check if check is not None else target.checker
    try:
        while frontier:
            mark = perf_counter() if telemetry is not None else 0.0
            frontier.sort(key=key)
            budget = max_runs - result.runs
            if budget <= 0:
                result.exhausted = False
                break
            wave, frontier = frontier[:budget], frontier[budget:]
            if frontier:
                result.exhausted = False  # budget will run out next round
            if pool is not None:
                chunk = max(1, len(wave) // (workers * 4))
                if telemetry is not None:
                    arg_bytes = sum(
                        len(pickle.dumps(prefix, pickle.HIGHEST_PROTOCOL))
                        for prefix in wave)
                    telemetry.add("dispatch", perf_counter() - mark)
                    dispatch_ts = perf_counter()
                    timed = pool.map(_execute_in_worker_timed, wave,
                                     chunksize=chunk)
                    wave_seconds = perf_counter() - dispatch_ts
                    telemetry.add("execute", wave_seconds)
                    telemetry.note_wave(size=len(wave), chunk=chunk,
                                        arg_bytes=arg_bytes,
                                        seconds=wave_seconds)
                    records = []
                    for prefix, (record, stats) in zip(wave, timed):
                        worker, start, end, result_bytes = stats
                        telemetry.note_worker_item(
                            worker=worker, start=start, end=end,
                            dispatch_ts=dispatch_ts,
                            result_bytes=result_bytes,
                            prefix_len=len(prefix))
                        records.append(record)
                else:
                    records = pool.map(_execute_in_worker, wave,
                                       chunksize=chunk)
            elif telemetry is not None:
                telemetry.add("dispatch", perf_counter() - mark)
                records = [
                    run_one_timed(target.build_and_run, prefix, checker,
                                  prune, telemetry, max_depth)
                    for prefix in wave
                ]
            else:
                records = [_execute(target, prefix, prune, max_depth,
                                    checker)
                           for prefix in wave]
            mark = perf_counter() if telemetry is not None else 0.0
            stopped_at = None
            children: List[Tuple[int, ...]] = []
            for index, record in enumerate(records):
                result.runs += 1
                if record.messages:
                    result.violations.append(
                        (record.taken, list(record.messages))
                    )
                    if stop_at_first:
                        stopped_at = index
                        break
                expanded, pruned = expand_record(record, max_depth, seen)
                result.pruned += pruned
                children.extend(expanded)
            if telemetry is not None:
                telemetry.note_progress(
                    result.runs, len(frontier) + len(children), result.pruned)
                telemetry.add("collect", perf_counter() - mark)
            if stopped_at is not None:
                # Covered iff nothing is left anywhere: no children (the
                # violating record's own included, counted against a copy
                # of seen so `states` does not move), no leftover frontier,
                # and the violating record closed its wave.
                own, __ = expand_record(
                    records[stopped_at], max_depth,
                    set(seen) if seen is not None else None)
                result.exhausted = not (
                    own or children or frontier
                    or stopped_at < len(records) - 1
                )
                break
            frontier.extend(children)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        if telemetry is not None:
            telemetry.finish()
    result.states = len(seen) if seen is not None else 0
    return result
