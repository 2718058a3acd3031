"""Readers/writers with path expressions — the paper's Figures 1 and 2.

The path programs below are transcribed *verbatim* from the paper
(Campbell & Habermann's solutions as analysed in §5.1), including all the
"synchronization procedures" — ``writeattempt``, ``requestread``,
``requestwrite``, ``openwrite`` / ``openread`` — whose necessity is the
§5.1.1 finding.  Nested procedure bodies mirror the figures exactly
(``READ = begin requestread end``, ``requestread = begin read end``, …).

The readers-priority solution intentionally preserves the paper's
footnote-3 flaw: under the right interleaving a second writer overtakes an
earlier-blocked reader.  Experiment E5 demonstrates it; do not "fix" this
implementation — it is the artifact under study.
"""

from __future__ import annotations

import weakref
from typing import Any, Generator

from ...core import (
    Component,
    ConstraintRealization,
    Directness,
    InformationType,
    ModularityProfile,
    SolutionDescription,
)
from ...mechanisms.pathexpr import PathResource
from ...resources import Database
from ...runtime.scheduler import Scheduler
from ..base import SolutionBase

T1 = InformationType.REQUEST_TYPE
T2 = InformationType.REQUEST_TIME
T4 = InformationType.SYNC_STATE

#: Figure 1 of the paper, character for character (modulo whitespace).
FIGURE1_PATHS = """
    path writeattempt end
    path { requestread } , requestwrite end
    path { read } , (openwrite ; write) end
"""

#: Figure 2 of the paper.
FIGURE2_PATHS = """
    path readattempt end
    path requestread , { requestwrite } end
    path { openread ; read } , write end
"""

#: The FCFS variant §4.2 asks about: base paths have no way to order across
#: types except a serial admission gate (losing reader concurrency).
FCFS_PATHS = """
    path admitread , admitwrite end
    path { read } , write end
"""


class PathReadersPriority(SolutionBase):
    """Figure 1: readers-priority via the three-path program.

    ``READ = begin requestread end``; ``requestread = begin read end``;
    ``WRITE = begin writeattempt ; write end``;
    ``writeattempt = begin requestwrite end``;
    ``requestwrite = begin openwrite end``; ``openwrite`` is a pure gate.
    """

    problem = "readers_priority"
    mechanism = "pathexpr"

    def __init__(
        self,
        sched: Scheduler,
        name: str = "db",
        wake_policy: str = "fifo",
        seed: int = 0,
    ) -> None:
        super().__init__(sched, name)
        self.db = Database()
        self.paths = PathResource(
            sched,
            FIGURE1_PATHS,
            name=name + ".paths",
            wake_policy=wake_policy,
            seed=seed,
        )
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def read_body(res, work: int) -> Generator:
            solution._start("read")
            value = yield from solution.db.read()
            yield from solution._work(work)
            solution._finish("read")
            return value

        def requestread_body(res, work: int) -> Generator:
            value = yield from res.invoke("read", work)
            return value

        def big_read_body(res, work: int) -> Generator:
            value = yield from res.invoke("requestread", work)
            return value

        def write_body(res, value: Any, work: int) -> Generator:
            solution._start("write")
            yield from solution.db.write(value)
            yield from solution._work(work)
            solution._finish("write")

        def requestwrite_body(res) -> Generator:
            yield from res.invoke("openwrite")

        def writeattempt_body(res) -> Generator:
            yield from res.invoke("requestwrite")

        def big_write_body(res, value: Any, work: int) -> Generator:
            yield from res.invoke("writeattempt")
            yield from res.invoke("write", value, work)

        self.paths.define("read", read_body)
        self.paths.define("requestread", requestread_body)
        self.paths.define("READ", big_read_body)
        self.paths.define("write", write_body)
        self.paths.define("requestwrite", requestwrite_body)
        self.paths.define("writeattempt", writeattempt_body)
        self.paths.define("WRITE", big_write_body)
        # openwrite has no body: a pure synchronization procedure (gate).

    def read(self, work: int = 1) -> Generator:
        """Perform one read; returns the database value."""
        self._request("read")
        value = yield from self.paths.invoke("READ", work)
        return value

    def write(self, value: Any, work: int = 1) -> Generator:
        """Perform one write."""
        self._request("write")
        yield from self.paths.invoke("WRITE", value, work)


class PathWritersPriority(SolutionBase):
    """Figure 2: writers-priority.

    ``READ = begin readattempt ; read end``;
    ``readattempt = begin requestread end``;
    ``requestread = begin openread end``; ``openread`` is a pure gate;
    ``WRITE = begin requestwrite end``; ``requestwrite = begin write end``.
    """

    problem = "writers_priority"
    mechanism = "pathexpr"

    def __init__(
        self,
        sched: Scheduler,
        name: str = "db",
        wake_policy: str = "fifo",
        seed: int = 0,
    ) -> None:
        super().__init__(sched, name)
        self.db = Database()
        self.paths = PathResource(
            sched,
            FIGURE2_PATHS,
            name=name + ".paths",
            wake_policy=wake_policy,
            seed=seed,
        )
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def read_body(res, work: int) -> Generator:
            solution._start("read")
            value = yield from solution.db.read()
            yield from solution._work(work)
            solution._finish("read")
            return value

        def requestread_body(res) -> Generator:
            yield from res.invoke("openread")

        def readattempt_body(res) -> Generator:
            yield from res.invoke("requestread")

        def big_read_body(res, work: int) -> Generator:
            yield from res.invoke("readattempt")
            value = yield from res.invoke("read", work)
            return value

        def write_body(res, value: Any, work: int) -> Generator:
            solution._start("write")
            yield from solution.db.write(value)
            yield from solution._work(work)
            solution._finish("write")

        def requestwrite_body(res, value: Any, work: int) -> Generator:
            yield from res.invoke("write", value, work)

        def big_write_body(res, value: Any, work: int) -> Generator:
            yield from res.invoke("requestwrite", value, work)

        self.paths.define("read", read_body)
        self.paths.define("requestread", requestread_body)
        self.paths.define("readattempt", readattempt_body)
        self.paths.define("READ", big_read_body)
        self.paths.define("write", write_body)
        self.paths.define("requestwrite", requestwrite_body)
        self.paths.define("WRITE", big_write_body)
        # openread has no body: a pure synchronization procedure (gate).

    def read(self, work: int = 1) -> Generator:
        """Perform one read; returns the database value."""
        self._request("read")
        value = yield from self.paths.invoke("READ", work)
        return value

    def write(self, value: Any, work: int = 1) -> Generator:
        """Perform one write."""
        self._request("write")
        yield from self.paths.invoke("WRITE", value, work)


class PathRWFcfs(SolutionBase):
    """FCFS readers/writers in *base* paths: a serial admission gate.

    ``admitread = begin read end``; ``admitwrite = begin write end``; the
    first path's FIFO selection yields strict arrival order — but because
    the admission procedure encloses the whole access, readers can no longer
    overlap.  This degradation is the §4.2 finding: the change from
    readers-priority to FCFS is "more difficult" in paths, and the honest
    base-path solution gives up concurrency.
    """

    problem = "rw_fcfs"
    mechanism = "pathexpr"

    def __init__(self, sched: Scheduler, name: str = "db",
                 wake_policy: str = "fifo", seed: int = 0) -> None:
        super().__init__(sched, name)
        self.db = Database()
        self.paths = PathResource(
            sched,
            FCFS_PATHS,
            name=name + ".paths",
            wake_policy=wake_policy,
            seed=seed,
        )
        # The resource stores these bodies: a strong ``self`` would
        # close a cycle that only the collector frees.
        solution = weakref.proxy(self)

        def read_body(res, work: int) -> Generator:
            solution._start("read")
            value = yield from solution.db.read()
            yield from solution._work(work)
            solution._finish("read")
            return value

        def write_body(res, value: Any, work: int) -> Generator:
            solution._start("write")
            yield from solution.db.write(value)
            yield from solution._work(work)
            solution._finish("write")

        def admitread_body(res, work: int) -> Generator:
            value = yield from res.invoke("read", work)
            return value

        def admitwrite_body(res, value: Any, work: int) -> Generator:
            yield from res.invoke("write", value, work)

        self.paths.define("read", read_body)
        self.paths.define("write", write_body)
        self.paths.define("admitread", admitread_body)
        self.paths.define("admitwrite", admitwrite_body)

    def read(self, work: int = 1) -> Generator:
        """Perform one read; returns the database value."""
        self._request("read")
        value = yield from self.paths.invoke("admitread", work)
        return value

    def write(self, value: Any, work: int = 1) -> Generator:
        """Perform one write."""
        self._request("write")
        yield from self.paths.invoke("admitwrite", value, work)


# ----------------------------------------------------------------------
# Descriptions
# ----------------------------------------------------------------------
PATH_READERS_PRIORITY_DESCRIPTION = SolutionDescription(
    problem="readers_priority",
    mechanism="pathexpr",
    components=(
        Component("path:1", "path", "path writeattempt end"),
        Component("path:2", "path",
                  "path { requestread } , requestwrite end"),
        Component("path:3", "path",
                  "path { read } , (openwrite ; write) end"),
        Component("gate:writeattempt", "sync_procedure",
                  "writeattempt = begin requestwrite end"),
        Component("gate:requestwrite", "sync_procedure",
                  "requestwrite = begin openwrite end"),
        Component("gate:requestread", "sync_procedure",
                  "requestread = begin read end"),
        Component("gate:openwrite", "sync_procedure",
                  "openwrite = begin end  (pure gate)"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="rw_exclusion",
            components=("path:3",),
            constructs=("burst", "selection"),
            directness=Directness.DIRECT,
            info_handling={T1: Directness.DIRECT, T4: Directness.INDIRECT},
            notes="in isolation: path { read } , write end — but here it is "
            "entangled with openwrite for priority coordination (§5.1.2)",
        ),
        ConstraintRealization(
            constraint_id="readers_priority",
            components=(
                "path:1", "path:2", "gate:writeattempt",
                "gate:requestwrite", "gate:requestread", "gate:openwrite",
            ),
            constructs=("sync_procedure", "burst", "selection"),
            directness=Directness.INDIRECT,
            info_handling={T1: Directness.INDIRECT},
            notes="no direct means of specifying priority: realized by two "
            "extra paths and four gate procedures (§5.1.1); does NOT match "
            "Courtois et al. behaviour — footnote 3 anomaly, experiment E5",
        ),
    ),
    modularity=ModularityProfile(
        synchronization_with_resource=True,
        resource_separable=False,
        enforced_by_mechanism=True,
        notes="paths are part of the type definition (requirement 1 holds "
        "automatically), but sync procedures blur resource vs. "
        "synchronization (requirement 2 fails, §5.1.2)",
    ),
)

PATH_WRITERS_PRIORITY_DESCRIPTION = SolutionDescription(
    problem="writers_priority",
    mechanism="pathexpr",
    components=(
        Component("path:1", "path", "path readattempt end"),
        Component("path:2", "path",
                  "path requestread , { requestwrite } end"),
        Component("path:3", "path",
                  "path { openread ; read } , write end"),
        Component("gate:readattempt", "sync_procedure",
                  "readattempt = begin requestread end"),
        Component("gate:requestread", "sync_procedure",
                  "requestread = begin openread end"),
        Component("gate:requestwrite", "sync_procedure",
                  "requestwrite = begin write end"),
        Component("gate:openread", "sync_procedure",
                  "openread = begin end  (pure gate)"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="rw_exclusion",
            components=("path:3",),
            constructs=("burst", "selection"),
            directness=Directness.DIRECT,
            info_handling={T1: Directness.DIRECT, T4: Directness.INDIRECT},
            notes="the exclusion path DIFFERS from the readers_priority "
            "one ({ openread ; read } vs { read }) although the constraint "
            "is unchanged — the §5.1.2 independence violation",
        ),
        ConstraintRealization(
            constraint_id="writers_priority",
            components=(
                "path:1", "path:2", "gate:readattempt",
                "gate:requestread", "gate:requestwrite", "gate:openread",
            ),
            constructs=("sync_procedure", "burst", "selection"),
            directness=Directness.INDIRECT,
            info_handling={T1: Directness.INDIRECT},
            notes="every path and every sync procedure changed relative to "
            "Figure 1 (§5.1.2: 'a modification to one constraint involves "
            "changing the entire solution')",
        ),
    ),
    modularity=ModularityProfile(
        synchronization_with_resource=True,
        resource_separable=False,
        enforced_by_mechanism=True,
    ),
)

PATH_RW_FCFS_DESCRIPTION = SolutionDescription(
    problem="rw_fcfs",
    mechanism="pathexpr",
    components=(
        Component("path:1", "path", "path admitread , admitwrite end"),
        Component("path:2", "path", "path { read } , write end"),
        Component("gate:admitread", "sync_procedure",
                  "admitread = begin read end"),
        Component("gate:admitwrite", "sync_procedure",
                  "admitwrite = begin write end"),
    ),
    realizations=(
        ConstraintRealization(
            constraint_id="rw_exclusion",
            components=("path:2",),
            constructs=("burst", "selection"),
            directness=Directness.DIRECT,
            info_handling={T1: Directness.DIRECT, T4: Directness.INDIRECT},
            notes="the isolated exclusion path survives here unchanged — "
            "but is made redundant by the serial admission gate",
        ),
        ConstraintRealization(
            constraint_id="arrival_order",
            components=("path:1", "gate:admitread", "gate:admitwrite"),
            constructs=("sync_procedure", "selection", "fifo_selection"),
            directness=Directness.INDIRECT,
            info_handling={T2: Directness.INDIRECT, T1: Directness.DIRECT},
            notes="request order only via the longest-waiting selection "
            "assumption plus 'additional request operations' (§5.1.2); the "
            "enclosing gate serializes readers, losing burst concurrency",
        ),
    ),
    modularity=ModularityProfile(
        synchronization_with_resource=True,
        resource_separable=False,
        enforced_by_mechanism=True,
    ),
)
