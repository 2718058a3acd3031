"""Unit tests for the unsynchronized resources: integrity detection, state
queries, and the generic ProtectedResource structure."""

import pytest

from repro.resources import (
    BoundedBuffer,
    Database,
    Disk,
    ProtectedResource,
    ResourceIntegrityError,
    SlotBuffer,
    Synchronizer,
    fcfs_seek_distance,
    scan_order,
)
from repro.runtime import Mutex, ProcessFailed, Scheduler


def drain(gen):
    """Run a resource-op generator to completion outside a scheduler."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# ----------------------------------------------------------------------
# BoundedBuffer
# ----------------------------------------------------------------------
def test_buffer_put_get_fifo():
    buf = BoundedBuffer(3)
    drain(buf.put("a"))
    drain(buf.put("b"))
    assert drain(buf.get()) == "a"
    assert drain(buf.get()) == "b"


def test_buffer_state_queries():
    buf = BoundedBuffer(2)
    assert buf.empty and not buf.full
    drain(buf.put(1))
    drain(buf.put(2))
    assert buf.full and buf.size == 2


def test_buffer_overflow_detected():
    buf = BoundedBuffer(1)
    drain(buf.put(1))
    with pytest.raises(ResourceIntegrityError):
        drain(buf.put(2))


def test_buffer_underflow_detected():
    buf = BoundedBuffer(1)
    with pytest.raises(ResourceIntegrityError):
        drain(buf.get())


def test_buffer_overlap_detected():
    buf = BoundedBuffer(2)
    op1 = buf.put(1)
    next(op1)  # in progress, parked at the yield
    with pytest.raises(ResourceIntegrityError):
        drain(buf.put(2))


def test_buffer_bad_capacity():
    with pytest.raises(ValueError):
        BoundedBuffer(0)


# ----------------------------------------------------------------------
# SlotBuffer
# ----------------------------------------------------------------------
def test_slot_alternation_happy_path():
    slot = SlotBuffer()
    drain(slot.put("x"))
    assert slot.occupied
    assert drain(slot.get()) == "x"
    assert not slot.occupied


def test_slot_double_put_detected():
    slot = SlotBuffer()
    drain(slot.put(1))
    with pytest.raises(ResourceIntegrityError):
        drain(slot.put(2))


def test_slot_get_before_put_detected():
    slot = SlotBuffer()
    with pytest.raises(ResourceIntegrityError):
        drain(slot.get())


def test_slot_overlap_detected():
    slot = SlotBuffer()
    op = slot.put(1)
    next(op)
    with pytest.raises(ResourceIntegrityError):
        drain(slot.get())


# ----------------------------------------------------------------------
# Database
# ----------------------------------------------------------------------
def test_database_read_write():
    db = Database(initial=10)
    assert drain(db.read()) == 10
    drain(db.write(42))
    assert drain(db.read()) == 42
    assert db.version == 1
    assert db.reads_served == 2


def test_database_concurrent_reads_ok():
    db = Database()
    r1 = db.read()
    next(r1)
    r2 = db.read()
    next(r2)
    assert db.active_readers == 2
    drain(r1)
    drain(r2)


def test_database_write_during_read_detected():
    db = Database()
    r = db.read()
    next(r)
    with pytest.raises(ResourceIntegrityError):
        drain(db.write(1))


def test_database_read_during_write_detected():
    db = Database()
    w = db.write(1)
    next(w)
    with pytest.raises(ResourceIntegrityError):
        drain(db.read())


def test_database_overlapping_writes_detected():
    db = Database()
    w = db.write(1)
    next(w)
    with pytest.raises(ResourceIntegrityError):
        drain(db.write(2))


def test_database_torn_read_detected():
    """A write that commits while a read is parked must be caught even after
    the writer flag clears."""
    db = Database()
    r = db.read()
    next(r)  # read in progress
    db._active_readers -= 1  # simulate a broken scheme losing track
    drain(db.write(5))
    db._active_readers += 1
    with pytest.raises(ResourceIntegrityError):
        drain(r)


# ----------------------------------------------------------------------
# Disk
# ----------------------------------------------------------------------
def test_disk_transfer_accounting():
    disk = Disk(tracks=100, start_track=10)
    drain(disk.transfer(40))
    drain(disk.transfer(20))
    assert disk.served == [40, 20]
    assert disk.total_seek == 30 + 20
    assert disk.head == 20


def test_disk_overlap_detected():
    disk = Disk()
    op = disk.transfer(5)
    next(op)
    with pytest.raises(ResourceIntegrityError):
        drain(disk.transfer(6))


def test_disk_range_checks():
    disk = Disk(tracks=10)
    with pytest.raises(ResourceIntegrityError):
        drain(disk.transfer(10))
    with pytest.raises(ValueError):
        Disk(tracks=0)
    with pytest.raises(ValueError):
        Disk(tracks=5, start_track=9)


def test_fcfs_seek_distance():
    assert fcfs_seek_distance(0, [10, 5, 20]) == 10 + 5 + 15


def test_scan_order_sweeps_up_then_down():
    assert scan_order(50, [10, 60, 55, 90, 40]) == [55, 60, 90, 40, 10]


def test_scan_order_empty():
    assert scan_order(0, []) == []


# ----------------------------------------------------------------------
# ProtectedResource
# ----------------------------------------------------------------------
class MutexSynchronizer(Synchronizer):
    """Simplest possible synchronizer: one big lock."""

    def __init__(self, sched):
        self._lock = Mutex(sched, "guard")

    def before(self, op, args):
        yield from self._lock.acquire()

    def after(self, op, args):
        self._lock.release()
        return
        yield  # pragma: no cover


def test_protected_resource_serializes_access():
    sched = Scheduler()
    buf = BoundedBuffer(5)
    shared = ProtectedResource(sched, buf, MutexSynchronizer(sched), "buf")
    got = []

    def producer():
        for i in range(3):
            yield from shared.invoke("put", i)

    def consumer():
        for _ in range(3):
            value = yield from shared.invoke("get")
            got.append(value)

    sched.spawn(producer, name="prod")
    sched.spawn(consumer, name="cons")
    # NB: with a bare mutex the consumer can still hit an empty buffer — the
    # lock serializes but does not schedule.  Use a producer-first workload.
    result = sched.run(on_error="record")
    # Under FIFO scheduling producer leads, so this succeeds:
    assert got == [0, 1, 2]
    kinds = result.trace.kinds()
    assert "request" in kinds and "op_start" in kinds and "op_end" in kinds


def test_protected_resource_unprotected_race_is_caught():
    sched = Scheduler()
    buf = BoundedBuffer(5)
    shared = ProtectedResource(sched, buf, Synchronizer(), "buf")

    def producer(tag):
        yield from shared.invoke("put", tag)

    sched.spawn(producer, 1, name="p1")
    sched.spawn(producer, 2, name="p2")
    with pytest.raises(ProcessFailed) as err:
        sched.run()
    assert isinstance(err.value.__cause__, ResourceIntegrityError)
