"""E16 — critical-path structure of every mechanism under identical load.

The causal layer (:mod:`repro.obs.critical_path`) claims its backward
waker-chain walk *tiles* the run: critical-path tick totals plus off-path
slack exactly equal the makespan, for the whole run and per process.  This
bench asserts that conservation law on **every** profileable (problem,
mechanism) pair — it is the load-bearing invariant behind the regression
gate's ``path_blocked_ticks`` metric.

It then persists the per-mechanism causal fingerprint (critical-path
length, attribution shares by constraint kind and information type, the
hottest waited-on object, the biggest what-if lever) to
``BENCH_causality.json`` so the numbers diff across commits.  The shares
are the paper's §3/§4 vocabulary projected onto *time*: where the figures
count which information types a mechanism must consult, this table shows
how many ticks of the makespan each constraint kind actually cost.
"""

from conftest import emit, persist

from repro.suite import profileable, run_causal


def _fingerprint(path):
    shares = path.constraint_ticks()
    blocked = path.blocked_ticks_by_object()
    hot = max(blocked, key=blocked.get) if blocked else None
    speedups = path.virtual_speedups()
    lever = (max(speedups, key=lambda o: speedups[o]["bound"])
             if speedups else None)
    return {
        "makespan": path.makespan,
        "path_ticks": path.path_ticks,
        "slack": path.slack,
        "segments": len(path.segments),
        "constraint_ticks": dict(sorted(shares.items())),
        "info_type_ticks": dict(sorted(path.info_type_ticks().items())),
        "hottest_object": hot,
        "biggest_lever": lever,
        "lever_bound": speedups[lever]["bound"] if lever else 0,
    }


def test_e16_conservation_everywhere():
    """path_ticks + slack == makespan on every pair; slack is zero (the
    walk tiles the run) and per-process on_path + slack == makespan."""
    checked = 0
    for label in profileable():
        problem, mechanism = label.split("/")
        path = run_causal(problem, mechanism).path
        assert path.path_ticks + path.slack == path.makespan, label
        assert path.slack == 0, (
            "{}: walk left {} tick(s) uncovered".format(label, path.slack))
        for name, row in path.per_process().items():
            assert row["on_path"] + row["slack"] == path.makespan, (
                "{}: process {} violates conservation".format(label, name))
        checked += 1
    assert checked >= 30, "registry shrank? only {} pairs".format(checked)


def test_e16_causal_fingerprints():
    rows = []
    fingerprints = {}
    for label in sorted(profileable()):
        problem, mechanism = label.split("/")
        path = run_causal(problem, mechanism).path
        fp = _fingerprint(path)
        fingerprints[label] = fp
        shares = fp["constraint_ticks"]
        rows.append(
            "%-32s %5d %5d %5d %5d %5d  %s"
            % (label, fp["makespan"],
               shares.get("run", 0), shares.get("exclusion", 0),
               shares.get("priority", 0), shares.get("time", 0),
               fp["hottest_object"] or "-"))
    persist("causality", {"critical_paths": fingerprints})
    emit(
        "E16: critical-path attribution per (problem, mechanism)",
        "%-32s %5s %5s %5s %5s %5s  %s\n" % (
            "pair", "span", "run", "excl", "prio", "time", "hottest")
        + "\n".join(rows),
    )
    # Every profiled pair spends *some* makespan on synchronization — a
    # pair whose path is pure run time would mean the workload never
    # contends and belongs in a different bench.
    stalled = [label for label, fp in fingerprints.items()
               if fp["makespan"] > 0 and fp["path_ticks"] == 0]
    assert not stalled, stalled


def test_e16_deterministic_records():
    """The same seed reproduces the identical record (the property the
    regression gate relies on: a clean re-run must not trip it)."""
    first = run_causal("bounded_buffer", "semaphore", seed=7).record
    second = run_causal("bounded_buffer", "semaphore", seed=7).record
    assert first.to_dict() == second.to_dict()
