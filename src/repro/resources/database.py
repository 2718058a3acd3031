"""The readers/writers database resource (Courtois–Heymans–Parnas [8]).

An unsynchronized store whose read and write operations carry internal yield
points, making torn reads and overlapping writes observable.  The
synchronization scheme around it must provide the ``rw_exclusion``
constraint: concurrent reads are fine; a write excludes everything.
"""

from __future__ import annotations

from typing import Any, Generator

from .base import check


class Database:
    """A single-value versioned store with race detection.

    Attributes:
        reads_served / writes_served: completed-operation counters, useful
            as ground truth in workload assertions.
    """

    def __init__(self, initial: Any = 0) -> None:
        self._value = initial
        self._version = 0
        self._active_readers = 0
        self._writer_active = False
        self.reads_served = 0
        self.writes_served = 0

    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        """Current committed value."""
        return self._value

    @property
    def version(self) -> int:
        """Number of committed writes."""
        return self._version

    @property
    def active_readers(self) -> int:
        """Readers currently inside :meth:`read`."""
        return self._active_readers

    # ------------------------------------------------------------------
    def read(self) -> Generator:
        """Read the value; integrity failure on overlap with a write.

        The version is sampled before and after the internal yield: a torn
        read (write committed mid-read) is detected even if the writer flag
        was clear at both ends.
        """
        check(not self._writer_active, "read started during a write")
        self._active_readers += 1
        version_before = self._version
        yield
        check(
            not self._writer_active and self._version == version_before,
            "torn read: write overlapped the read",
        )
        self._active_readers -= 1
        self.reads_served += 1
        return self._value

    def write(self, value: Any) -> Generator:
        """Replace the value; integrity failure on any overlap."""
        check(not self._writer_active, "two writes overlapped")
        check(
            self._active_readers == 0, "write started while reads in progress"
        )
        self._writer_active = True
        yield
        check(
            self._active_readers == 0, "read slipped in during a write"
        )
        self._value = value
        self._version += 1
        self._writer_active = False
        self.writes_served += 1
        return self._version
