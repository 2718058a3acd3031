#!/usr/bin/env python
"""Disk-head scheduling: the elevator under three mechanisms vs FCFS.

Generates a contended request batch, runs it through the monitor (Hoare
priority waits), serializer (guarantee-order queue), and open-path (guarded)
elevator implementations plus the FCFS semaphore baseline, and compares
service orders and total seek distance.

Run:  python examples/disk_scheduling.py
"""

from repro.core import ascii_table
from repro.problems.disk_scheduler import (
    MonitorDiskScheduler,
    OpenPathDiskScheduler,
    SemaphoreDiskFcfs,
    SerializerDiskScheduler,
    random_plan,
    run_requests,
)


def main() -> None:
    plan = random_plan(seed=42)
    print("request batch (delay, track):", plan)
    print()

    rows = []
    for cls in (
        MonitorDiskScheduler,
        SerializerDiskScheduler,
        OpenPathDiskScheduler,
        SemaphoreDiskFcfs,
    ):
        __, impl = run_requests(lambda sched, c=cls: c(sched), plan)
        rows.append([
            cls.__name__,
            impl.mechanism,
            str(impl.disk.total_seek),
            " ".join(str(t) for t in impl.disk.served),
        ])
    print(ascii_table(
        ["scheduler", "mechanism", "total seek", "service order"],
        rows,
        "Elevator vs FCFS on one batch",
    ))

    scan_seek = int(rows[0][2])
    fcfs_seek = int(rows[3][2])
    print("\nSCAN saves {} tracks of head travel ({:.0%} of FCFS).".format(
        fcfs_seek - scan_seek, (fcfs_seek - scan_seek) / fcfs_seek
    ))


if __name__ == "__main__":
    main()
