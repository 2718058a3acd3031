#!/usr/bin/env python
"""Dining philosophers: multi-resource deadlock, found and fixed.

The paper's framework covers single shared resources; this example shows
the library's runtime and explorer handle the classic *multi*-resource
pathology too:

1. the naive solution (every philosopher grabs the left fork first) — the
   explorer finds the circular-wait schedule automatically;
2. the ordered-acquisition fix (lowest-numbered fork first) — verified
   deadlock-free over the *entire* schedule space;
3. a monitor-based solution in the §2 style (a table monitor that only
   admits a philosopher when both forks are free) — also exhaustively
   verified, and starvation-aware via the trace.

Run:  python examples/dining_philosophers.py
"""

from repro.mechanisms import Monitor
from repro.runtime import Mutex, Scheduler, ScriptedPolicy
from repro.explore import ExplorationEngine

N = 3  # philosophers (3 keeps the exhaustive space small)
MEALS = 1


def naive_system(policy):
    """Left fork first: circular wait is reachable."""
    sched = Scheduler(policy=policy, preemptive=True)
    forks = [Mutex(sched, "fork{}".format(i)) for i in range(N)]
    eaten = {"count": 0}

    def philosopher(i):
        def body():
            for __ in range(MEALS):
                left, right = forks[i], forks[(i + 1) % N]
                yield from left.acquire()
                yield from right.acquire()
                eaten["count"] += 1
                right.release()
                left.release()
        return body

    for i in range(N):
        sched.spawn(philosopher(i), name="phil{}".format(i))
    result = sched.run(on_deadlock="return")
    result.results["eaten"] = eaten["count"]
    return result


def ordered_system(policy):
    """Global fork order: the circular wait is impossible."""
    sched = Scheduler(policy=policy, preemptive=True)
    forks = [Mutex(sched, "fork{}".format(i)) for i in range(N)]

    def philosopher(i):
        def body():
            for __ in range(MEALS):
                a, b = sorted((i, (i + 1) % N))
                yield from forks[a].acquire()
                yield from forks[b].acquire()
                forks[b].release()
                forks[a].release()
        return body

    for i in range(N):
        sched.spawn(philosopher(i), name="phil{}".format(i))
    return sched.run(on_deadlock="return")


def monitor_system(policy):
    """A table monitor in the §2 style: admission only with both forks."""
    sched = Scheduler(policy=policy, preemptive=True)
    mon = Monitor(sched, "table")
    can_eat = [mon.condition("can_eat{}".format(i)) for i in range(N)]
    fork_free = [True] * N

    def pick_up(i):
        yield from mon.enter()
        while not (fork_free[i] and fork_free[(i + 1) % N]):
            yield from can_eat[i].wait()
        fork_free[i] = fork_free[(i + 1) % N] = False
        mon.exit()

    def put_down(i):
        yield from mon.enter()
        fork_free[i] = fork_free[(i + 1) % N] = True
        yield from can_eat[(i - 1) % N].signal()
        yield from can_eat[(i + 1) % N].signal()
        mon.exit()

    def philosopher(i):
        def body():
            for __ in range(MEALS):
                yield from pick_up(i)
                yield
                yield from put_down(i)
        return body

    for i in range(N):
        sched.spawn(philosopher(i), name="phil{}".format(i))
    return sched.run(on_deadlock="return")


def deadlock_check(run):
    return ["deadlock: {}".format(run.blocked)] if run.deadlocked else []


def main() -> None:
    print("Naive (left fork first): hunting for the circular wait...")
    explorer = ExplorationEngine(naive_system, max_runs=20000, max_depth=100)
    outcome = explorer.explore(deadlock_check, stop_at_first=True)
    assert outcome.witness is not None
    print("  deadlock witness found after {} schedules: {}".format(
        outcome.runs, list(outcome.witness)
    ))
    replay = naive_system(ScriptedPolicy(list(outcome.witness)))
    print("  replay blocked processes: {} (ate {} meals)".format(
        replay.blocked, replay.results["eaten"]
    ))

    print("\nOrdered acquisition: verifying the whole schedule space...")
    explorer = ExplorationEngine(ordered_system, max_runs=200000,
                                 max_depth=200)
    outcome = explorer.explore(deadlock_check)
    print("  schedules: {}, exhausted: {}, deadlocks: {}".format(
        outcome.runs, outcome.exhausted, len(outcome.violations)
    ))
    assert outcome.ok and outcome.exhausted

    print("\nTable monitor: verifying the whole schedule space...")
    explorer = ExplorationEngine(monitor_system, max_runs=200000,
                                 max_depth=200)
    outcome = explorer.explore(deadlock_check)
    print("  schedules: {}, exhausted: {}, deadlocks: {}".format(
        outcome.runs, outcome.exhausted, len(outcome.violations)
    ))
    assert outcome.ok and outcome.exhausted


if __name__ == "__main__":
    main()
