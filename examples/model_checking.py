#!/usr/bin/env python
"""Schedule exploration demo: find a concurrency bug automatically.

Two versions of a tiny account-transfer system share the same API; one
takes the lock correctly, the other reads a balance *before* acquiring the
lock (a TOCTOU bug that only bites under particular interleavings).  The
exploration engine enumerates every schedule of a 2-process workload —
with equivalence pruning, so the correct version's proof costs fewer
runs — proves the correct version safe, finds a witness schedule for the
buggy one, shrinks it to a locally minimal decision string, and replays
it deterministically.

This is the same machinery experiment E5 uses to rediscover the paper's
footnote-3 anomaly (see also ``python -m repro explore``).

Run:  python examples/model_checking.py
"""

from repro.explore import ExplorationEngine
from repro.explore.minimize import minimize_witness
from repro.runtime import Mutex, Scheduler, ScriptedPolicy


def make_system(buggy):
    """Returns build_and_run(policy) for a two-transfer workload."""

    def build_and_run(policy):
        sched = Scheduler(policy=policy, preemptive=True)
        lock = Mutex(sched, "account")
        account = {"balance": 100}
        # Register the shared user state so equivalence pruning may not
        # alias states that differ only in the balance (DESIGN.md §9).
        sched.add_fingerprint_provider(lambda: account["balance"])

        def withdraw(amount):
            def body():
                if buggy:
                    observed = account["balance"]  # read OUTSIDE the lock
                    yield from lock.acquire()
                else:
                    yield from lock.acquire()
                    observed = account["balance"]
                yield  # the race window
                account["balance"] = observed - amount
                lock.release()
            return body

        sched.spawn(withdraw(30), name="T1")
        sched.spawn(withdraw(20), name="T2")
        result = sched.run()
        result.results["balance"] = account["balance"]
        return result

    return build_and_run


def check(run):
    return (
        ["lost update: balance={}".format(run.results["balance"])]
        if run.results["balance"] != 50
        else []
    )


def main() -> None:
    print("Exploring the CORRECT system (lock before read):")
    naive = ExplorationEngine(make_system(buggy=False), max_runs=5000)
    outcome = naive.explore(check)
    pruned = ExplorationEngine(
        make_system(buggy=False), max_runs=5000, prune=True
    ).explore(check)
    print("  schedules explored: {} naive / {} pruned, exhausted: {}, "
          "violations: {}".format(
              outcome.runs, pruned.runs, outcome.exhausted,
              len(outcome.violations)))
    assert outcome.ok and outcome.exhausted
    assert pruned.ok and pruned.exhausted and pruned.runs <= outcome.runs

    print("\nExploring the BUGGY system (read before lock):")
    buggy = ExplorationEngine(
        make_system(buggy=True), max_runs=5000, prune=True
    )
    outcome = buggy.explore(check, stop_at_first=True)
    witness = outcome.witness
    print("  witness schedule found after {} runs: {}".format(
        outcome.runs, list(witness)
    ))

    print("\nShrinking the witness (ddmin to local minimality):")
    shrunk = minimize_witness(make_system(buggy=True), check, witness)
    print("  {} -> {} decisions in {} test runs: {}".format(
        len(shrunk.original), len(shrunk.minimized), shrunk.tests,
        list(shrunk.minimized)
    ))

    print("\nReplaying the minimized witness deterministically:")
    replay = make_system(buggy=True)(ScriptedPolicy(list(shrunk.minimized)))
    print("  final balance: {} (expected 50)".format(
        replay.results["balance"]
    ))
    assert replay.results["balance"] != 50
    print("  -> the lost update reproduces on demand; fix and re-explore.")


if __name__ == "__main__":
    main()
