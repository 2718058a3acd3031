"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``evaluate``      — run the full methodology (verifies all solutions,
  prints the §5-style tables).  ``--fast`` skips the verifier batteries.
* ``coverage``      — the footnote-2 problem/information-type matrix.
* ``independence``  — the §4.2 constraint-independence table.
* ``anomaly``       — the footnote-3 demonstration (experiment E5).
* ``pairs``         — the §4.2 pairwise information-type check.
* ``list``          — every registered solution.
* ``timeline``      — render one solution's schedule as an ASCII Gantt
  chart (``--problem``/``--mechanism`` select the solution).
* ``robustness``    — chaos-explore every mechanism (kill a process at
  every reachable fault point across schedules) and print the
  fault-containment table.  ``--fast`` trims the schedule budget;
  ``--json`` emits machine-readable results.
* ``profile``       — run one (problem, mechanism) workload under full
  instrumentation: metrics report, ASCII span timeline, contention bars;
  ``--export chrome --out trace.json`` writes a Perfetto-loadable trace.
* ``metrics``       — profile every registered pair (filter with
  ``--problem``/``--mechanism``) and tabulate the counters side by side.
* ``explore``       — exhaustively explore one solution's schedule space
  (``repro explore <problem> <mechanism>``): equivalence-pruned search,
  ``--minimize`` to shrink a found witness; ``repro explore list`` names
  the available targets.  Harness telemetry: ``--watch`` live progress
  lines, ``--self-profile`` cProfile hotspots of the harness's own
  exploration loop, ``--record`` a gateable run-store record,
  ``--export chrome`` the counter harness track.
* ``causal``        — happens-before critical path of one (problem,
  mechanism) run: per-segment attribution (exclusion vs priority
  constraints, T1-T6 information types), what-if virtual speedups, the
  run record persisted under ``.repro/runs/``; ``--export chrome``
  highlights the critical path in the trace.
* ``regress``       — compare current runs against a stored baseline
  (``--baseline path``) and exit nonzero on gated-metric regressions;
  ``--write-baseline path`` records the baseline, ``--inject-delay N``
  injects a synthetic slowdown to prove the gate trips, ``--load`` gates
  saturation-sweep latency tails (p95/p99) instead of causal profiles,
  ``--explore`` gates exploration throughput (deterministic schedule
  count + wall-clock schedules/sec) against an explore baseline.
* ``resilience``    — combined-fault table (experiment E22): crash-restart
  nodes under partitions at 5-node clusters, fenced vs unfenced, with
  MTTR and availability per cell; ``--search`` runs the joint
  crash×partition fault-plan search (ddmin-minimized mixed witness, then
  the same faults replayed with fencing on).
* ``synth``         — CEGIS synthesis & repair: diagnose the footnote-3
  anomaly in the verbatim Figure-1 program (minimized witness + causal
  chain), then search the candidate grammar for a minimal synchronizer
  that is exhaustively violation-free and keeps readers concurrent;
  ``--fast`` is the CI smoke mode, verdicts are cached and replayable.

``--seed`` (where accepted) switches the run to a seeded random scheduling
policy; omitting it keeps the deterministic FIFO schedule.  ``--json``
everywhere prints machine-readable output instead of tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

#: default run-store location for ``repro causal`` / ``repro regress``.
RUNS_DIR = os.path.join(".repro", "runs")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .analysis import (
        render_independence,
        summarize_independence,
    )
    from .problems.registry import all_solutions, build_evaluator

    report = build_evaluator().evaluate(run_verifiers=not args.fast)
    descriptions = [e.description for e in all_solutions()]
    report.extras["Constraint independence (section 4.2)"] = (
        render_independence(summarize_independence(descriptions))
        .split("\n", 2)[2]
    )
    print(report.render())
    failures = report.failures()
    if failures:
        print("\nFAILED:", [e.key for e in failures])
        return 1
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from .core import coverage_matrix, render_coverage, uncovered_types

    print(render_coverage(coverage_matrix()))
    gaps = uncovered_types()
    print(
        "\nuncovered information types:",
        ", ".join(t.short for t in gaps) if gaps else "none (complete suite)",
    )
    return 0


def _cmd_independence(args: argparse.Namespace) -> int:
    from .analysis import render_independence, summarize_independence
    from .problems.registry import all_solutions

    descriptions = [e.description for e in all_solutions()]
    print(render_independence(summarize_independence(descriptions)))
    return 0


def _cmd_anomaly(args: argparse.Namespace) -> int:
    from .problems.readers_writers.anomaly import (
        render_report,
        run_footnote3_comparison,
    )

    report = run_footnote3_comparison(explore=not args.fast)
    print(render_report(report))
    return 0 if report.reproduced else 1


def _cmd_pairs(args: argparse.Namespace) -> int:
    from .core import conflicting_pairs, pair_coverage, render_pair_coverage
    from .problems.registry import all_solutions

    descriptions = [e.description for e in all_solutions()]
    print(render_pair_coverage(
        pair_coverage(), conflicting_pairs(descriptions)
    ))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .core import ascii_table
    from .problems.registry import all_solutions

    rows = [
        [entry.problem, entry.mechanism, entry.notes]
        for entry in all_solutions()
    ]
    print(ascii_table(["problem", "mechanism", "notes"], rows,
                      "Registered solutions"))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .problems.readers_writers import BURST_PLAN, run_workload
    from .problems.registry import get_solution
    from .runtime import render_timeline

    try:
        entry = get_solution(args.problem, args.mechanism)
    except KeyError:
        print("no such solution: {}/{}".format(args.problem, args.mechanism))
        return 1
    if args.problem not in ("readers_priority", "writers_priority", "rw_fcfs"):
        print("timeline currently supports the readers/writers family")
        return 1
    result = run_workload(entry.factory, BURST_PLAN,
                          policy=_seed_policy(args))
    print(render_timeline(
        result.trace, {"db.read": "R", "db.write": "W"}, width=args.width
    ))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .verify.chaos import (CONTAINING, DEADLOCKING, PROPAGATING,
                               STEP_LIMITED, expected_classifications,
                               robustness_report)

    results, table = robustness_report(fast=args.fast)
    expected = expected_classifications()
    surprises = [s for r in results for s in r.surprises]
    if args.json:
        print(json.dumps({
            "scenarios": [
                {
                    "name": r.name,
                    "victim": r.victim,
                    "runs": r.runs,
                    "contained": r.count(CONTAINING),
                    "propagated": r.count(PROPAGATING),
                    "deadlocked": r.count(DEADLOCKING),
                    "step_limited": r.count(STEP_LIMITED),
                    "violations": r.violations,
                    "classification": r.classification,
                    "expected": expected[r.name],
                }
                for r in results
            ],
            "surprises": surprises,
        }, indent=2))
        return 1 if surprises else 0
    print(table)
    if surprises:
        print("\nUNEXPECTED:", *surprises, sep="\n  ")
        return 1
    print("\nall classifications match the fault model (DESIGN.md)")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .verify.partition import (SPLIT_BRAIN, TOLERANT, WEDGED,
                                   partition_report)

    results, table = partition_report(fast=args.fast)
    surprises = [s for r in results for s in r.surprises]
    violations = [v for r in results for v in r.violations]
    if args.json:
        print(json.dumps({
            "scenarios": [
                {
                    "name": r.name,
                    "runs": r.runs,
                    "mttr_failover": r.mttr_failover,
                    "mttr_post_heal": r.mttr_post_heal,
                    "plans": [
                        {
                            "plan": o.plan_name,
                            "faults": o.faults,
                            "expected": o.expected,
                            "runs": o.runs,
                            "split_brain": o.count(SPLIT_BRAIN),
                            "wedged": o.count(WEDGED),
                            "tolerant": o.count(TOLERANT),
                            "violations": o.violations,
                            "mttr_failover": o.mttr_failover,
                            "mttr_post_heal": o.mttr_post_heal,
                            "message_stats": o.message_stats,
                            "classification": o.classification,
                        }
                        for o in r.outcomes
                    ],
                }
                for r in results
            ],
            "surprises": surprises,
            "violations": violations,
        }, indent=2))
        return 1 if (surprises or violations) else 0
    print(table)
    if violations:
        print("\nSAFETY VIOLATIONS:", *violations, sep="\n  ")
    if surprises:
        print("\nUNEXPECTED:", *surprises, sep="\n  ")
    if surprises or violations:
        return 1
    print("\nno split brain on any explored schedule; classifications "
          "match the partition model (DESIGN.md §12)")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .resilience import resilience_report, search_restart_witness
    from .verify.partition import SPLIT_BRAIN, TOLERANT, WEDGED

    results, table = resilience_report(fast=args.fast)
    surprises = [s for r in results for s in r.surprises]
    violations = [v for r in results for v in r.violations]
    # The unfenced cell *documents* a split-brain; its violations are the
    # expected evidence, not a gate failure — gating is on surprises.
    witness = fenced_label = None
    if args.search:
        witness, fenced_label = search_restart_witness()
    if args.json:
        payload = {
            "scenarios": [
                {
                    "name": r.name,
                    "cluster": r.cluster,
                    "runs": r.runs,
                    "mttr_failover": r.mttr_failover,
                    "mttr_post_heal": r.mttr_post_heal,
                    "availability": r.availability,
                    "cells": [
                        {
                            "cell": o.cell_name,
                            "faults": o.faults,
                            "expected": o.expected,
                            "runs": o.runs,
                            "restarts": o.restarts,
                            "split_brain": o.count(SPLIT_BRAIN),
                            "wedged": o.count(WEDGED),
                            "tolerant": o.count(TOLERANT),
                            "violations": o.violations,
                            "mttr_failover": o.mttr_failover,
                            "mttr_post_heal": o.mttr_post_heal,
                            "availability": o.availability,
                            "message_stats": o.message_stats,
                            "classification": o.classification,
                        }
                        for o in r.outcomes
                    ],
                }
                for r in results
            ],
            "surprises": surprises,
        }
        if witness is not None:
            payload["search"] = witness.to_dict()
            payload["search"]["fenced_replay"] = fenced_label
        print(json.dumps(payload, indent=2))
        return 1 if surprises else 0
    print(table)
    if witness is not None:
        print("\nJoint fault-plan search ({} plan(s) tried, {} ddmin "
              "test(s)):".format(witness.tried, witness.minimize_tests))
        print("  " + witness.describe("combined witness"))
        if fenced_label:
            print("  same faults with fencing on: " + fenced_label)
    if surprises:
        print("\nUNEXPECTED:", *surprises, sep="\n  ")
        return 1
    print("\nall combined-fault classifications match the resilience "
          "model (DESIGN.md §16)")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from .load import LOAD_MECHANISMS, render_curves, saturation_curve

    if args.mechanism in ("all", ""):
        mechanisms = list(LOAD_MECHANISMS)
    else:
        mechanisms = [m.strip() for m in args.mechanism.split(",") if m.strip()]
    if args.fast:
        counts = [8, 32]
        ops = 1
    else:
        counts = [int(c) for c in args.clients.split(",") if c.strip()]
        ops = args.ops
    curves = {}
    for mechanism in mechanisms:
        curves[mechanism] = saturation_curve(
            mechanism, counts, shards=args.shards, arrival=args.arrival,
            horizon=args.horizon, ops=ops, capacity=args.capacity,
            seed=args.seed,
        )
    payload = {
        "config": {
            "arrival": args.arrival,
            "shards": args.shards,
            "ops": ops,
            "capacity": args.capacity,
            "horizon": args.horizon,
            "seed": args.seed,
            "clients": counts,
        },
        "mechanisms": {m: [p.to_dict() for p in pts]
                       for m, pts in curves.items()},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote {}".format(args.out))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_curves(curves))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .verify.recovery import (
        DEGRADED,
        RECOVERED,
        VIOLATED,
        WEDGED,
        expected_recovery,
        minimal_defeat_witness,
        mttr_fingerprints,
        recovery_report,
    )

    results, table = recovery_report(fast=args.fast)
    expected = expected_recovery()
    surprises = [s for r in results for s in r.surprises]
    fingerprints = mttr_fingerprints()
    witness = minimal_defeat_witness() if args.search else None
    if args.json:
        payload = {
            "scenarios": [
                {
                    "name": r.name,
                    "victim": r.victim,
                    "runs": r.runs,
                    "recovered": r.count(RECOVERED),
                    "degraded": r.count(DEGRADED),
                    "wedged": r.count(WEDGED),
                    "violated": r.count(VIOLATED),
                    "violations": r.violations,
                    "classification": r.classification,
                    "expected": list(expected[r.name]),
                }
                for r in results
            ],
            "mttr": fingerprints,
            "surprises": surprises,
        }
        if witness is not None:
            payload["witness"] = {
                "tried": witness.tried,
                "kills": [k.describe() for k in witness.witness or ()],
                "label": witness.witness_label,
            }
        print(json.dumps(payload, indent=2))
        return 1 if surprises else 0
    print(table)
    print("\nDeterministic MTTR fingerprints (kill at deepest fault point):")
    for name, fp in fingerprints.items():
        print("  {:<18} mttr={:<6} rate={:<5} [{}] ({})".format(
            name,
            "-" if fp["mttr"] is None else fp["mttr"],
            fp["recovery_rate"],
            fp["classification"],
            fp["kill"],
        ))
    if witness is not None:
        print("\nFault-plan search ({} plans tried):".format(witness.tried))
        print("  " + witness.describe("crash set"))
    if surprises:
        print("\nUNEXPECTED:", *surprises, sep="\n  ")
        return 1
    print("\nall classifications within the recovery contract (DESIGN.md)")
    return 0


def _seed_policy(args: argparse.Namespace):
    """``--seed N`` -> a seeded random policy; None keeps FIFO determinism."""
    if getattr(args, "seed", None) is None:
        return None
    from .runtime.policies import RandomPolicy

    return RandomPolicy(args.seed)


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import (
        ascii_contention,
        ascii_timeline,
        write_chrome_trace,
        write_jsonl,
    )
    from .suite import profileable, run_profile

    try:
        report = run_profile(args.problem, args.mechanism, seed=args.seed)
    except KeyError:
        print("no profiling workload for {}/{}; choose one of:".format(
            args.problem, args.mechanism))
        for label in profileable():
            print("  " + label)
        return 1

    if args.export:
        out = args.out or "trace.json"
        label = "{}/{}".format(args.problem, args.mechanism)
        if args.export == "chrome":
            write_chrome_trace(out, report.spans, report.result.trace, label)
        else:
            write_jsonl(out, report.spans, report.result.trace)
        if not args.json:
            print("wrote {} trace to {}".format(args.export, out))

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
        return 0

    print("profile {}/{}{}".format(
        args.problem, args.mechanism,
        " (seed {})".format(args.seed) if args.seed is not None else ""))
    print()
    print(report.metrics.render())
    print()
    print(ascii_timeline(report.spans, width=args.width))
    print()
    print(ascii_contention(report.blocked_by_object))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        ExplorationEngine,
        available_targets,
        get_target,
        minimize_witness,
    )

    if args.problem == "list":
        for problem, mechanism in available_targets():
            print("{} {}".format(problem, mechanism))
        return 0
    if args.mechanism is None:
        print("error: a mechanism is required "
              "(see 'repro explore list')", file=sys.stderr)
        return 2
    try:
        target = get_target(args.problem, args.mechanism)
    except KeyError as bad:
        print("error: {}".format(bad.args[0]), file=sys.stderr)
        return 2
    if args.fast:
        args.max_runs = min(args.max_runs, 200)
    telemetry = None
    if args.watch or args.export or args.record or args.self_profile:
        from .obs import HarnessTelemetry

        telemetry = HarnessTelemetry(
            watch=sys.stderr if args.watch else None)

    def run_search():
        return ExplorationEngine(
            target.runner(),
            max_runs=args.max_runs,
            max_depth=args.max_depth,
            prune=args.prune,
            telemetry=telemetry,
        ).explore(target.checker, stop_at_first=args.stop_at_first)

    hotspots = None
    if args.self_profile:
        from .obs import self_profile

        hotspots = self_profile(run_search)
        result = hotspots.value
    else:
        result = run_search()
    if args.record and telemetry is not None:
        from .obs import RunStore
        from .suite import explore_record

        record = explore_record(args.problem, args.mechanism, result,
                                telemetry)
        saved_record = RunStore(args.store).save(record)
        if not args.json:
            print("explore record saved to " + saved_record)
    if args.export and telemetry is not None:
        from .obs import write_chrome_trace, write_jsonl

        out = args.out or ("harness_trace.json" if args.export == "chrome"
                           else "harness_trace.jsonl")
        label = "explore {}/{}".format(args.problem, args.mechanism)
        if args.export == "chrome":
            write_chrome_trace(out, [], None, label, harness=telemetry)
        else:
            write_jsonl(out, [], None, harness=telemetry)
        if not args.json:
            print("wrote {} harness trace to {}".format(args.export, out))
    minimized = None
    if args.minimize and result.witness is not None:
        minimized = minimize_witness(
            target.runner(), target.checker, result.witness
        )
    if args.json:
        payload = {
            "problem": args.problem,
            "mechanism": args.mechanism,
            "prune": args.prune,
            "runs": result.runs,
            "pruned": result.pruned,
            "states": result.states,
            "exhausted": result.exhausted,
            "ok": result.ok,
            "violations": len(result.violations),
            "witness": list(result.witness) if result.witness else None,
        }
        if telemetry is not None:
            payload["telemetry"] = telemetry.to_dict()
        if hotspots is not None:
            payload["self_profile"] = hotspots.to_dict()
        if minimized is not None:
            payload["minimized"] = {
                "decisions": list(minimized.minimized),
                "reduction": minimized.reduction,
                "tests": minimized.tests,
                "locally_minimal": minimized.locally_minimal,
                "messages": list(minimized.messages),
                "causal": list(minimized.causal),
            }
        print(json.dumps(payload, indent=2))
        return 0 if result.ok else 1
    print("explore {}/{}: {} run(s), {} pruned, {} state(s), {}".format(
        args.problem, args.mechanism, result.runs, result.pruned,
        result.states,
        "exhausted" if result.exhausted else "budget hit",
    ))
    if telemetry is not None:
        print()
        print(telemetry.render())
    if hotspots is not None:
        print()
        print(hotspots.render())
    if result.ok:
        print("no violations found")
        return 0
    print("{} violating schedule(s); first witness: {}".format(
        len(result.violations), list(result.witness)))
    for message in result.violations[0][1]:
        print("  " + message)
    if minimized is not None:
        print()
        print("minimized to {} decision(s) ({} removed, {} test runs{}): "
              "{}".format(
                  len(minimized.minimized), minimized.reduction,
                  minimized.tests,
                  "" if minimized.locally_minimal else ", budget hit",
                  list(minimized.minimized)))
        for message in minimized.messages:
            print("  " + message)
        print()
        print(minimized.timeline)
        if minimized.causal:
            print()
            print("causal chain (critical-path tail of the violating run):")
            for line in minimized.causal:
                print("  " + line)
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .suite import comparison_table, metrics_suite

    reports = metrics_suite(args.problem, args.mechanism, seed=args.seed)
    if not reports:
        print("nothing matches problem={} mechanism={}".format(
            args.problem, args.mechanism))
        return 1
    payload = [
        {
            "problem": r.problem,
            "mechanism": r.mechanism,
            "seed": r.seed,
            "metrics": r.metrics.to_dict(),
        }
        for r in reports
    ]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        if not args.json:
            print("wrote metrics for {} run(s) to {}".format(
                len(payload), args.out))
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0
    print(comparison_table(reports))
    return 0


def _fault_plan(ticks: Optional[int]):
    """``--inject-delay N`` -> a FaultPlan delaying every wakeup of every
    process by N ticks (a synthetic slowdown the regression gate must
    catch — the self-test knob CI and the tests use)."""
    if not ticks:
        return None
    from .runtime.faults import FaultPlan

    return FaultPlan().delay_wakeups("*", ticks)


def _cmd_causal(args: argparse.Namespace) -> int:
    from .obs import RunStore, write_chrome_trace
    from .suite import profileable, run_causal

    try:
        report = run_causal(args.problem, args.mechanism, seed=args.seed)
    except KeyError:
        print("no profiling workload for {}/{}; choose one of:".format(
            args.problem, args.mechanism))
        for label in profileable():
            print("  " + label)
        return 1

    saved = None
    if not args.no_save:
        saved = RunStore(args.store).save(report.record)

    if args.export:
        out = args.out or "causal_trace.json"
        label = "{}/{}".format(args.problem, args.mechanism)
        write_chrome_trace(out, report.profile.spans,
                           report.profile.result.trace, label,
                           critical=report.path.segments)
        if not args.json:
            print("wrote chrome trace (critical path highlighted) to "
                  + out)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True,
                         default=str))
        return 0
    label = "{}/{}{}".format(
        args.problem, args.mechanism,
        " (seed {})".format(args.seed) if args.seed is not None else "")
    print(report.path.render(label))
    if saved:
        print()
        print("record saved to " + saved)
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from .obs import (
        compare_records,
        dump_baseline,
        load_baseline,
        render_comparison,
    )
    from .suite import PRODUCERS, target_matches

    kind = "load" if args.load else "explore" if args.explore else None
    options = dict(
        fault_plan=_fault_plan(args.inject_delay),
        load_clients=[int(c) for c in args.load_clients.split(",")
                      if c.strip()],
        explore_runs=args.explore_runs,
        explore_depth=args.explore_depth,
    )

    if args.write_baseline:
        producer = PRODUCERS[kind or "causal"]
        targets = producer.targets(problem=args.problem,
                                   mechanism=args.mechanism,
                                   explore_target=args.explore_target)
        records = [producer.measure(target, args.seed, **options)
                   for target in targets]
        with open(args.write_baseline, "w") as fh:
            fh.write(dump_baseline(records))
        print("wrote baseline of {} record(s) to {}".format(
            len(records), args.write_baseline))
        return 0

    if not args.baseline:
        print("error: --baseline (or --write-baseline) is required",
              file=sys.stderr)
        return 2
    baseline = [
        r for r in load_baseline(args.baseline)
        if kind in (None, r.kind)
        and target_matches(r.target, args.problem, args.mechanism)
    ]
    if not baseline:
        print("baseline {} holds no matching records".format(args.baseline),
              file=sys.stderr)
        return 2

    pairs = []
    regressions = []
    missing = []
    for base in baseline:
        try:
            current = PRODUCERS[base.kind].measure(base.target, base.seed,
                                                   **options)
        except KeyError:
            missing.append(base.key)
            continue
        pairs.append((base, current))
        regressions.extend(
            compare_records(base, current, threshold_pct=args.threshold))

    if args.json:
        print(json.dumps({
            "baseline": args.baseline,
            "threshold_pct": args.threshold,
            "compared": [cur.key for __, cur in pairs],
            "missing": missing,
            "regressions": [
                {
                    "key": r.key,
                    "metric": r.metric,
                    "baseline": r.baseline,
                    "current": r.current,
                    "delta_pct": round(r.delta_pct, 2),
                }
                for r in regressions
            ],
        }, indent=2, sort_keys=True))
    else:
        print(render_comparison(pairs, regressions))
        if missing:
            print("\nskipped (no workload here): " + ", ".join(missing))
    return 1 if regressions else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthConfig, repair_footnote3

    config = SynthConfig.fast() if args.fast else SynthConfig()
    if args.max_size is not None:
        config.max_size = args.max_size
    if args.max_runs is not None:
        config.max_runs = args.max_runs
    if args.max_depth is not None:
        config.max_depth = args.max_depth
    if args.max_candidates is not None:
        config.max_candidates = args.max_candidates
    if args.no_cache:
        config.use_cache = False
    if args.cache_root:
        config.cache_root = args.cache_root

    if args.repair != "footnote3":
        print("error: unknown repair target {!r} (only: footnote3)".format(
            args.repair), file=sys.stderr)
        return 2
    say = (lambda message: None) if args.json else print
    report = repair_footnote3(config, log=say)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Evaluating Synchronization Mechanisms' "
        "(Bloom, SOSP 1979)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run the full methodology")
    p_eval.add_argument("--fast", action="store_true",
                        help="skip the verifier batteries")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cov = sub.add_parser("coverage", help="footnote-2 coverage matrix")
    p_cov.set_defaults(func=_cmd_coverage)

    p_ind = sub.add_parser("independence", help="the section-4.2 table")
    p_ind.set_defaults(func=_cmd_independence)

    p_anom = sub.add_parser("anomaly", help="the footnote-3 demonstration")
    p_anom.add_argument("--fast", action="store_true",
                        help="skip the explorer search")
    p_anom.set_defaults(func=_cmd_anomaly)

    p_pairs = sub.add_parser("pairs", help="pairwise info-type check")
    p_pairs.set_defaults(func=_cmd_pairs)

    p_list = sub.add_parser("list", help="list registered solutions")
    p_list.set_defaults(func=_cmd_list)

    p_tl = sub.add_parser("timeline", help="render one solution's schedule")
    p_tl.add_argument("--problem", default="readers_priority")
    p_tl.add_argument("--mechanism", default="monitor")
    p_tl.add_argument("--width", type=int, default=72)
    p_tl.add_argument("--seed", type=int, default=None,
                      help="seeded random scheduling policy (default: FIFO)")
    p_tl.set_defaults(func=_cmd_timeline)

    p_rob = sub.add_parser(
        "robustness", help="fault-containment table for every mechanism"
    )
    p_rob.add_argument("--fast", action="store_true",
                       help="trim the per-fault-point schedule budget")
    p_rob.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_rob.set_defaults(func=_cmd_robustness)

    p_part = sub.add_parser(
        "partition",
        help="partition-tolerance table: scenarios × network fault plans",
    )
    p_part.add_argument("--fast", action="store_true",
                        help="trim the per-plan schedule budget")
    p_part.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_part.set_defaults(func=_cmd_partition)

    p_res = sub.add_parser(
        "resilience",
        help="combined-fault table: crash-restart × partition at 5-node "
             "clusters, with fencing, MTTR, and availability (E22)",
    )
    p_res.add_argument("--fast", action="store_true",
                       help="one schedule per cell (CI smoke)")
    p_res.add_argument("--search", action="store_true",
                       help="joint crash×partition fault-plan search "
                            "against the unfenced restart lock "
                            "(ddmin-minimized witness + fenced replay)")
    p_res.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_res.set_defaults(func=_cmd_resilience)

    p_load = sub.add_parser(
        "load",
        help="heavy-traffic saturation curves per mechanism (E19)")
    p_load.add_argument("--mechanism", default="all",
                        help="comma list of mechanisms, or 'all'")
    p_load.add_argument("--clients", default="16,64,256",
                        help="comma list of swarm sizes to sweep")
    p_load.add_argument("--shards", type=int, default=2)
    p_load.add_argument("--arrival", default="poisson",
                        choices=("poisson", "bursty", "diurnal"))
    p_load.add_argument("--ops", type=int, default=2,
                        help="put/get cycles per client")
    p_load.add_argument("--capacity", type=int, default=8)
    p_load.add_argument("--horizon", type=int, default=256,
                        help="arrival horizon in virtual ticks")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--fast", action="store_true",
                        help="small sweep for CI smoke")
    p_load.add_argument("--json", action="store_true")
    p_load.add_argument("--out", default="",
                        help="also write the JSON payload to this path")
    p_load.set_defaults(func=_cmd_load)

    p_rec = sub.add_parser(
        "recover",
        help="supervised recovery table, MTTR fingerprints, fault search",
    )
    p_rec.add_argument("--fast", action="store_true",
                       help="trim the per-fault-point schedule budget")
    p_rec.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_rec.add_argument("--search", action="store_true",
                       help="search for a minimal crash set that defeats "
                            "recovery (ddmin-minimized)")
    p_rec.set_defaults(func=_cmd_recover)

    p_prof = sub.add_parser(
        "profile", help="instrumented run of one (problem, mechanism) pair"
    )
    p_prof.add_argument("problem")
    p_prof.add_argument("mechanism")
    p_prof.add_argument("--export", choices=("chrome", "jsonl"), default=None,
                        help="also write the trace in this format")
    p_prof.add_argument("--out", default=None,
                        help="export path (default: trace.json)")
    p_prof.add_argument("--width", type=int, default=72,
                        help="ASCII timeline width")
    p_prof.add_argument("--seed", type=int, default=None,
                        help="seeded random scheduling policy (default: FIFO)")
    p_prof.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_prof.set_defaults(func=_cmd_profile)

    p_met = sub.add_parser(
        "metrics", help="metrics comparison across registered solutions"
    )
    p_met.add_argument("--problem", default=None,
                       help="restrict to one problem")
    p_met.add_argument("--mechanism", default=None,
                       help="restrict to one mechanism")
    p_met.add_argument("--seed", type=int, default=None,
                       help="seeded random scheduling policy (default: FIFO)")
    p_met.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_met.add_argument("--out", default=None,
                       help="also persist the comparison JSON to this path")
    p_met.set_defaults(func=_cmd_metrics)

    p_cau = sub.add_parser(
        "causal",
        help="happens-before critical path of one (problem, mechanism) run",
    )
    p_cau.add_argument("problem")
    p_cau.add_argument("mechanism")
    p_cau.add_argument("--seed", type=int, default=None,
                       help="seeded random scheduling policy (default: FIFO)")
    p_cau.add_argument("--export", choices=("chrome",), default=None,
                       help="also write a chrome trace with the critical "
                       "path highlighted")
    p_cau.add_argument("--out", default=None,
                       help="export path (default: causal_trace.json)")
    p_cau.add_argument("--store", default=RUNS_DIR,
                       help="run-store directory (default: {})".format(
                           RUNS_DIR))
    p_cau.add_argument("--no-save", action="store_true",
                       help="analyse only; do not persist a run record")
    p_cau.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_cau.set_defaults(func=_cmd_causal)

    p_reg = sub.add_parser(
        "regress",
        help="gate current runs against a stored causal baseline",
    )
    p_reg.add_argument("--baseline", default=None,
                       help="baseline file or run-store directory")
    p_reg.add_argument("--write-baseline", default=None, metavar="PATH",
                       help="record a fresh baseline to PATH and exit")
    p_reg.add_argument("--threshold", type=float, default=10.0,
                       help="regression threshold in percent (default 10)")
    p_reg.add_argument("--problem", default=None,
                       help="restrict to one problem")
    p_reg.add_argument("--mechanism", default=None,
                       help="restrict to one mechanism")
    p_reg.add_argument("--seed", type=int, default=None,
                       help="seed used when writing a baseline")
    p_reg.add_argument("--inject-delay", type=int, default=None,
                       metavar="TICKS",
                       help="delay every wakeup by TICKS (synthetic "
                       "slowdown; self-test of the gate)")
    p_reg.add_argument("--load", action="store_true",
                       help="gate load-sweep latency tails instead of "
                       "causal profiles (compares saturation-curve p95/p99 "
                       "per mechanism against the baseline)")
    p_reg.add_argument("--load-clients", default="8,32", metavar="N,N",
                       help="sweep populations for --load (default 8,32; "
                       "the largest is the gated tail point)")
    p_reg.add_argument("--explore", action="store_true",
                       help="gate exploration throughput instead: rebuild "
                       "each explore baseline record (schedule count is "
                       "deterministic; schedules/sec is wall-clock, so pair "
                       "with a generous --threshold in CI)")
    p_reg.add_argument("--explore-target", default="fcfs_resource/monitor",
                       metavar="P/M[,P/M...]",
                       help="explore targets for --write-baseline "
                       "(default fcfs_resource/monitor)")
    p_reg.add_argument("--explore-runs", type=int, default=2000,
                       help="schedule budget per explore target "
                       "(default 2000)")
    p_reg.add_argument("--explore-depth", type=int, default=60,
                       help="branching horizon per explore target "
                       "(default 60)")
    p_reg.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_reg.set_defaults(func=_cmd_regress)

    p_exp = sub.add_parser(
        "explore",
        help="exhaustively explore one solution's schedule space",
    )
    p_exp.add_argument("problem",
                       help="target problem, or 'list' to enumerate targets")
    p_exp.add_argument("mechanism", nargs="?", default=None,
                       help="mechanism to explore")
    p_exp.add_argument("--max-runs", type=int, default=2000,
                       help="schedule budget (default 2000)")
    p_exp.add_argument("--max-depth", type=int, default=60,
                       help="branching horizon (default 60)")
    prune = p_exp.add_mutually_exclusive_group()
    prune.add_argument("--prune", dest="prune", action="store_true",
                       default=True,
                       help="equivalence pruning (default)")
    prune.add_argument("--no-prune", dest="prune", action="store_false",
                       help="naive first-deviation DFS")
    p_exp.add_argument("--stop-at-first", action="store_true",
                       help="stop at the first violating schedule")
    p_exp.add_argument("--minimize", action="store_true",
                       help="shrink the witness to a locally minimal "
                       "decision string and replay its timeline")
    p_exp.add_argument("--watch", action="store_true",
                       help="periodic progress lines on stderr "
                       "(schedules/sec, frontier, pruning ratio, ETA; "
                       "non-tty-safe) plus a final telemetry report")
    p_exp.add_argument("--fast", action="store_true",
                       help="CI smoke mode: cap the budget at 200 runs")
    p_exp.add_argument("--self-profile", dest="self_profile",
                       action="store_true",
                       help="run the search under cProfile and print the "
                       "hotspot list (~2x slower)")
    p_exp.add_argument("--record", action="store_true",
                       help="persist an explore record (schedules/sec + "
                       "phase seconds) to the run store for "
                       "'repro regress --explore'")
    p_exp.add_argument("--store", default=RUNS_DIR,
                       help="run-store directory for --record "
                       "(default: {})".format(RUNS_DIR))
    p_exp.add_argument("--export", choices=("chrome", "jsonl"), default=None,
                       help="write the harness telemetry counter track "
                       "in this format")
    p_exp.add_argument("--out", default=None,
                       help="export path (default: harness_trace.json[l])")
    p_exp.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_exp.set_defaults(func=_cmd_explore)

    p_syn = sub.add_parser(
        "synth",
        help="CEGIS synthesis & repair over the explore engine",
    )
    p_syn.add_argument("--repair", default="footnote3", metavar="TARGET",
                       help="repair target (default and only: footnote3 — "
                       "the paper's Figure-1 anomaly)")
    p_syn.add_argument("--fast", action="store_true",
                       help="CI smoke mode: smaller grammar (no serializer "
                       "atoms) and tighter budgets")
    p_syn.add_argument("--max-size", type=int, default=None,
                       help="candidate size bound (path nodes + guard "
                       "atoms)")
    p_syn.add_argument("--max-runs", type=int, default=None,
                       help="exploration budget per candidate")
    p_syn.add_argument("--max-depth", type=int, default=None,
                       help="exploration branching horizon")
    p_syn.add_argument("--max-candidates", type=int, default=None,
                       help="total candidates to judge before giving up")
    p_syn.add_argument("--no-cache", action="store_true",
                       help="disable the replayable oracle cache")
    p_syn.add_argument("--cache-root", default=None, metavar="DIR",
                       help="oracle-cache directory (default "
                       ".repro/runs/synthesis)")
    p_syn.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_syn.set_defaults(func=_cmd_synth)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
