"""Disk head scheduler solutions — the suite's parameters (T3) problem.

The service discipline is the elevator (SCAN): among pending requests, serve
the nearest track in the current sweep direction, reversing at the extremes.
This is Hoare's motivating example for the *priority wait* ([13]), and the
paper's for constraints conditioned on request parameters.

Mechanisms:

* :class:`MonitorDiskScheduler` — Hoare's scheduler: two priority-wait
  conditions (``upsweep`` / ``downsweep``) ranked by track number.
* :class:`SerializerDiskScheduler` — a guarantee-order queue whose
  guarantees compute "am I the SCAN-next request?" from shared state.
* :class:`OpenPathDiskScheduler` — guarded paths: the guard does the same
  SCAN-next computation; base paths cannot see parameters at all (§5.1.2).
* :class:`SemaphoreDiskFcfs` — the FCFS *baseline*: no parameter access, no
  elevator; exists to quantify what the discipline buys (bench E10) and to
  stand for the §5.1.2 finding that semaphore-level mechanisms leave
  parameter handling entirely to the user.

Workload note: plans use distinct track numbers (and avoid the start track)
so SCAN order is unambiguous — ties at the exact head position are a
specification grey zone the oracle does not arbitrate.
"""

from __future__ import annotations

import weakref
from typing import Generator, List, Optional

from ...core import (
    Component,
    ConstraintRealization,
    Directness,
    InformationType,
    ModularityProfile,
    SolutionDescription,
)
from ...mechanisms.monitor import Monitor
from ...mechanisms.pathexpr import GuardedPathResource
from ...mechanisms.serializer import Serializer
from ...resources import Disk
from ...runtime.primitives import Semaphore
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T2 = InformationType.REQUEST_TIME
T3 = InformationType.PARAMETERS
T4 = InformationType.SYNC_STATE


def scan_next(head: int, direction_up: bool, pending: List[int]) -> Optional[int]:
    """The SCAN-next choice: nearest pending track in the current direction,
    reversing when nothing lies ahead.  Shared by the serializer and
    open-path solutions (and mirrored by the oracle)."""
    ahead = sorted(t for t in pending if t >= head)
    behind = sorted((t for t in pending if t <= head), reverse=True)
    if direction_up:
        if ahead:
            return ahead[0]
        return behind[0] if behind else None
    if behind:
        return behind[0]
    return ahead[0] if ahead else None


class MonitorDiskScheduler(SolutionBase):
    """Hoare's elevator: priority waits carry the track parameter."""

    problem = "disk_scheduler"
    mechanism = "monitor"

    def __init__(self, sched: Scheduler, tracks: int = 200,
                 start_track: int = 0, name: str = "disk") -> None:
        super().__init__(sched, name)
        self.disk = Disk(tracks, start_track)
        self.mon = Monitor(sched, name + ".mon")
        self.upsweep = self.mon.condition("upsweep")
        self.downsweep = self.mon.condition("downsweep")
        self._busy = False
        self._head = start_track
        self._up = True

    def use(self, track: int, work: int = 1) -> Generator:
        """Seek to ``track``, transfer, release — in elevator order."""
        self._request("use", track)
        self._sched.log("request", self.name, track)
        yield from self._acquire(track)
        self._sched.log("serve", self.name, track)
        self._start("use")
        yield from self.disk.transfer(track)
        yield from self._work(work)
        self._finish("use")
        yield from self._release()

    def _acquire(self, track: int) -> Generator:
        yield from self.mon.enter()
        if self._busy:
            if track > self._head:
                yield from self.upsweep.wait(priority=track)
            else:
                yield from self.downsweep.wait(
                    priority=self.disk.tracks - track
                )
        self._busy = True
        self._up = track >= self._head
        self._head = track
        self.mon.exit()

    def _release(self) -> Generator:
        yield from self.mon.enter()
        self._busy = False
        if self._up:
            if self.upsweep.queue:
                yield from self.upsweep.signal()
            else:
                self._up = False
                yield from self.downsweep.signal()
        else:
            if self.downsweep.queue:
                yield from self.downsweep.signal()
            else:
                self._up = True
                yield from self.upsweep.signal()
        self.mon.exit()


class SerializerDiskScheduler(SolutionBase):
    """Serializer elevator: guarantees compute SCAN-next from user state."""

    problem = "disk_scheduler"
    mechanism = "serializer"

    def __init__(self, sched: Scheduler, tracks: int = 200,
                 start_track: int = 0, name: str = "disk") -> None:
        super().__init__(sched, name)
        self.disk = Disk(tracks, start_track)
        self.ser = Serializer(sched, name + ".ser")
        self.q = self.ser.guarantee_order_queue("scanq")
        self.user = self.ser.crowd("user")
        self._pending: List[int] = []
        self._head = start_track
        self._up = True

    def use(self, track: int, work: int = 1) -> Generator:
        """Seek to ``track``, transfer, release — in elevator order."""
        self._request("use", track)
        self._sched.log("request", self.name, track)
        yield from self.ser.enter()
        self._pending.append(track)
        yield from self.ser.enqueue(
            self.q,
            lambda: (
                self.user.empty
                and scan_next(self._head, self._up, self._pending) == track
            ),
        )
        # Possession held: commit the SCAN step.
        self._pending.remove(track)
        self._up = track >= self._head
        self._head = track
        self._sched.log("serve", self.name, track)
        yield from self.ser.join_crowd(self.user)
        self._start("use")
        yield from self.disk.transfer(track)
        yield from self._work(work)
        self._finish("use")
        yield from self.ser.leave_crowd(self.user)
        self.ser.exit()


class OpenPathDiskScheduler(SolutionBase):
    """Guarded paths: base paths cannot reference parameters, so the SCAN
    condition lives in an Andler-style guard."""

    problem = "disk_scheduler"
    mechanism = "pathexpr_open"

    def __init__(self, sched: Scheduler, tracks: int = 200,
                 start_track: int = 0, name: str = "disk") -> None:
        super().__init__(sched, name)
        self.disk = Disk(tracks, start_track)
        self._pending: List[int] = []
        self._head = start_track
        self._up = True
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def transfer_body(res, track: int, work: int) -> Generator:
            solution._pending.remove(track)
            solution._up = track >= solution._head
            solution._head = track
            solution._sched.log("serve", solution.name, track)
            solution._start("use")
            yield from solution.disk.transfer(track)
            yield from solution._work(work)
            solution._finish("use")

        def scan_guard(res, args) -> bool:
            track = args[0]
            return (
                res.active("transfer") == 0
                and scan_next(solution._head, solution._up, solution._pending)
                == track
            )

        self.paths = GuardedPathResource(
            sched,
            "path transfer end",
            operations={"transfer": transfer_body},
            guards={"transfer": scan_guard},
            name=name + ".paths",
        )

    def use(self, track: int, work: int = 1) -> Generator:
        """Seek to ``track``, transfer, release — in elevator order."""
        self._request("use", track)
        self._sched.log("request", self.name, track)
        self._pending.append(track)
        yield from self.paths.invoke("transfer", track, work)


class SemaphoreDiskFcfs(SolutionBase):
    """FCFS baseline: a FIFO semaphore, blind to the track parameter."""

    problem = "disk_scheduler"
    mechanism = "semaphore"

    def __init__(self, sched: Scheduler, tracks: int = 200,
                 start_track: int = 0, name: str = "disk") -> None:
        super().__init__(sched, name)
        self.disk = Disk(tracks, start_track)
        self._sem = Semaphore(sched, 1, name + ".sem")

    def use(self, track: int, work: int = 1) -> Generator:
        """Seek to ``track`` in plain arrival order (no elevator)."""
        self._request("use", track)
        self._sched.log("request", self.name, track)
        yield from self._sem.p()
        self._sched.log("serve", self.name, track)
        self._start("use")
        yield from self.disk.transfer(track)
        yield from self._work(work)
        self._finish("use")
        self._sem.v()


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
MONITOR_DISK_DESCRIPTION = SolutionDescription(
    problem="disk_scheduler",
    mechanism="monitor",
    components=(
        Component("var:busy", "variable"),
        Component("var:head", "variable", "headpos"),
        Component("var:up", "variable", "sweep direction"),
        Component("cond:upsweep", "priority_queue",
                  "priority wait ranked by track"),
        Component("cond:downsweep", "priority_queue",
                  "priority wait ranked by tracks - track"),
        Component("proc:acquire", "procedure",
                  "if busy then wait on sweep queue at rank(track)"),
        Component("proc:release", "procedure",
                  "signal current sweep else reverse"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("var:busy", "proc:acquire", "proc:release"),
            constructs=("monitor_mutex", "local_data"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="elevator_order",
            components=("cond:upsweep", "cond:downsweep", "var:head",
                        "var:up", "proc:acquire", "proc:release"),
            constructs=("priority_wait",),
            directness=Directness.DIRECT,
            info_handling={T3: Directness.DIRECT},
            notes="priority queues provide a means for using most needed "
            "information from arguments (§5.2)",
        ),
    ),
    modularity=ModularityProfile(True, True, False),
)

SERIALIZER_DISK_DESCRIPTION = SolutionDescription(
    problem="disk_scheduler",
    mechanism="serializer",
    components=(
        Component("queue:scanq", "queue", "guarantee-order (extension)"),
        Component("crowd:user", "crowd"),
        Component("var:pending", "variable", "registered track requests"),
        Component("var:head", "variable"),
        Component("var:up", "variable"),
        Component("guarantee:use", "guarantee",
                  "user.empty and scan_next(head, up, pending) == my track"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("crowd:user", "guarantee:use"),
            constructs=("crowd", "guarantee"),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.DIRECT},
        ),
        ConstraintRealization(
            constraint_id="elevator_order",
            components=("queue:scanq", "var:pending", "var:head", "var:up",
                        "guarantee:use"),
            constructs=("guarantee", "local_variables", "queue_extension"),
            directness=Directness.INDIRECT,
            info_handling={T3: Directness.INDIRECT},
            notes="needs the later-added local variables and non-FIFO queue "
            "release (§5.2: the first serializer version could not easily "
            "handle arguments passed to requests)",
        ),
    ),
    modularity=ModularityProfile(True, True, True),
)

OPEN_PATH_DISK_DESCRIPTION = SolutionDescription(
    problem="disk_scheduler",
    mechanism="pathexpr_open",
    components=(
        Component("path:1", "path", "path transfer end"),
        Component("guard:transfer", "guard",
                  "not busy and scan_next(head, up, pending) == track"),
        Component("var:pending", "variable"),
        Component("var:head", "variable"),
        Component("var:up", "variable"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("path:1",),
            constructs=("sequence",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="elevator_order",
            components=("guard:transfer", "var:pending", "var:head", "var:up"),
            constructs=("predicate", "state_variables"),
            directness=Directness.INDIRECT,
            info_handling={T3: Directness.INDIRECT},
            notes="pure paths have no way to use parameter values "
            "(§5.1.2); Andler predicates + state variables carry the whole "
            "discipline",
        ),
    ),
    modularity=ModularityProfile(True, False, True),
)

SEMAPHORE_DISK_DESCRIPTION = SolutionDescription(
    problem="disk_scheduler",
    mechanism="semaphore",
    components=(
        Component("sem:disk", "semaphore", "init 1, FIFO"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="resource_mutex",
            components=("sem:disk",),
            constructs=("semaphore",),
            directness=Directness.DIRECT,
            info_handling={T4: Directness.INDIRECT},
        ),
        ConstraintRealization(
            constraint_id="elevator_order",
            components=(),
            constructs=(),
            directness=Directness.UNSUPPORTED,
            info_handling={T3: Directness.UNSUPPORTED},
            notes="baseline only: plain semaphores offer no way to order "
            "waiters by parameter (short of per-process private semaphores "
            "re-implementing a scheduler by hand) — serves FCFS",
        ),
    ),
    modularity=ModularityProfile(False, False, False),
)
