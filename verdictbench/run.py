"""Time-to-verdict benchmark: one workload per run, in a fresh interpreter.

Usage, from the root of a checkout:

    python3 verdictbench/run.py --workload explore_catalog --seed 1 \
        --seconds 20 --trace 0

A run measures set-up (median of several fresh interpreters), then runs
full passes of the workload's verdict set back to back for as long as the
next pass is expected to end within ``--seconds`` (at least one), checking
every pass against the committed reference in ``verdictbench/reference/``.
Times are adjusted to a reference host speed (see ``hostspeed.py``).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer ledger (see
``ledger.py``), including the tracing overhead; its spans are written to
``.verdictbench/trace-<workload>-<seed>.json`` when the run ends.

The benchmark builds nothing: the program is the Python package under
``src/``.  Without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s`` (after one warm-up
#: that fills the bytecode cache).
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="LAUNCHED",
                        help="set the workload up, print the seconds since "
                             "the perf_counter reading LAUNCHED, and exit")
    return parser.parse_args(argv)


def time_setup(workload: str, seed: int):
    """Wall seconds from launching a fresh interpreter until the workload
    is set up, one sample per probe, and host-speed samples taken around
    the probes.  The probe reports the time itself: ``perf_counter`` reads
    the system-wide monotonic clock, and waiting for the child's exit
    would add the parent's wake-up latency."""
    from hostspeed import sample

    samples, speed = [], []
    for probe in range(SETUP_PROBES + 1):
        if probe:
            speed.append(sample())
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe",
             repr(perf_counter())],
            check=True, cwd=str(ROOT), capture_output=True, text=True,
            timeout=60)
        if probe:
            samples.append(float(done.stdout))
    speed.append(sample())
    return samples, speed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("verdictbench: no program at {}; run from a checkout of the "
              "repository".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostspeed
    import ledger
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print("verdictbench: unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        cls(args.seed, load_reference(cls.name))
        print(perf_counter() - args.setup_probe)
        return 0

    repro_dirs = [p / ".repro" for p in {Path.cwd(), ROOT}]
    had_repro = {p: p.exists() for p in repro_dirs}
    setup_samples, setup_speed = time_setup(cls.name, args.seed)
    workload = cls(args.seed, load_reference(cls.name))

    attempted = failed = units = 0
    times = {False: [], True: []}
    speed = {False: [], True: []}
    per_pass = []
    tracers = []
    begin = perf_counter()
    index = longest = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        tracer = ledger.Tracer(index) if traced else None
        timer = hostspeed.PartTimer(tracer)
        start = perf_counter()
        with ledger.span(tracer, ledger.PASS):
            observed = workload.run_pass(tracer, timer)
            timer.close()
        elapsed = perf_counter() - start
        times[traced].append(timer.seconds())
        speed[traced].extend(timer.samples)
        n, bad, messages = workload.check(observed)
        attempted += n
        failed += bad
        for message in messages[:20]:
            print("FAILED [{}] {}".format(cls.name, message), file=sys.stderr)
        if traced:
            metrics = ledger.layer_metrics(tracer)
            metrics.update(workload.layer_metrics(tracer, observed))
            per_pass.append(metrics)
            tracers.append(tracer)
        else:
            units = n
        index += 1
        # Stop before a pass that would end past --seconds, once there is
        # one pass of each kind the run reports.
        longest = max(longest, elapsed)
        if (perf_counter() - begin + longest > args.seconds
                and (not args.trace or per_pass)):
            break

    leaked = [str(p) for p in repro_dirs if p.exists() and not had_repro[p]]
    if leaked:
        print("FAILED [{}] the run left {}".format(
            cls.name, ", ".join(leaked)), file=sys.stderr)
    correct = failed == 0 and not leaked

    q1, median, q3 = quartiles(times[False])
    verdict_s = hostspeed.adjust(median, speed[False])
    print("{}: verdict_s {:.4f} s at reference host speed; wall median of "
          "{} pass(es) {:.4f} s, quartiles {:.4f}..{:.4f}".format(
              cls.name, verdict_s, len(times[False]), median, q1, q3))
    print("{}: setup_s samples {}".format(
        cls.name, ", ".join("{:.4f}".format(s) for s in setup_samples)))
    print("{}: attempted {} {}, failed {}".format(
        cls.name, attempted, cls.unit, failed))

    if args.trace:
        layer = ledger.median_metrics(per_pass)
        traced_s = hostspeed.adjust(statistics.median(times[True]),
                                    speed[True])
        layer["trace.untraced_verdict_s"] = verdict_s
        layer["trace.traced_verdict_s"] = traced_s
        layer["trace.overhead_s"] = traced_s - verdict_s
        undeclared = set(layer) - set(ledger.PER_LAYER)
        if undeclared:
            raise KeyError("undeclared layer metrics: {}".format(
                ", ".join(sorted(undeclared))))
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in ledger.PER_LAYER.items()}
        out_dir = ROOT / ".verdictbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / "trace-{}-{}.json".format(cls.name, args.seed),
                  "w") as fh:
            json.dump([{"name": s[0], "start": s[1], "end": s[2],
                        "parent": s[3], "pass": s[4]}
                       for t in tracers for s in t.spans], fh)
    else:
        metrics = {
            "setup_s": {"value": hostspeed.adjust(
                statistics.median(setup_samples), setup_speed), "unit": "s"},
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
            "ops_per_s": {"value": units / verdict_s, "unit": "1/s"},
            "ok_ratio": {"value": 1.0 - failed / float(attempted),
                         "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
