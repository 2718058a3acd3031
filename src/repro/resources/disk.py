"""The moving-head disk resource (Hoare [13]'s disk head scheduler).

The disk serves one transfer at a time; each transfer seeks the head to the
requested track.  The scheduler around it decides the *order* of service —
the elevator/SCAN discipline uses the request's track parameter (information
type T3).  The resource records served order and total seek distance so
benches can compare scheduling disciplines quantitatively (experiment E10
context) and the oracle can validate SCAN order.
"""

from __future__ import annotations

from typing import Generator, List

from .base import check


class Disk:
    """An unsynchronized disk with ``tracks`` cylinders (0-based)."""

    def __init__(self, tracks: int = 200, start_track: int = 0) -> None:
        if tracks <= 0:
            raise ValueError("tracks must be positive")
        if not 0 <= start_track < tracks:
            raise ValueError("start_track out of range")
        self.tracks = tracks
        self.head = start_track
        self.total_seek = 0
        self.served: List[int] = []
        self._busy = False

    @property
    def busy(self) -> bool:
        """True while a transfer is in progress."""
        return self._busy

    def transfer(self, track: int) -> Generator:
        """Seek to ``track`` and perform one transfer.

        Integrity failure on overlapping transfers (the surrounding
        scheduler must serialize) or out-of-range tracks.
        """
        check(0 <= track < self.tracks, "track {} out of range".format(track))
        check(not self._busy, "overlapping disk transfers")
        self._busy = True
        self.total_seek += abs(track - self.head)
        yield  # the seek + rotational latency
        self.head = track
        self.served.append(track)
        self._busy = False


def fcfs_seek_distance(start: int, requests: List[int]) -> int:
    """Total seek distance if requests were served strictly in order —
    the baseline the elevator discipline is measured against."""
    distance = 0
    head = start
    for track in requests:
        distance += abs(track - head)
        head = track
    return distance


def scan_order(start: int, requests: List[int]) -> List[int]:
    """The elevator service order for a *batch* of pending requests.

    Sweeps upward first, serving everything at-or-ahead of the head, then
    reverses.  Reference implementation used by tests and the oracle.
    """
    pending = sorted(requests)
    order: List[int] = []
    head = start
    up = True
    while pending:
        if up:
            ahead = [t for t in pending if t >= head]
            if not ahead:
                up = False
                continue
            nxt = ahead[0]
        else:
            behind = [t for t in pending if t <= head]
            if not behind:
                up = True
                continue
            nxt = behind[-1]
        order.append(nxt)
        pending.remove(nxt)
        head = nxt
    return order
