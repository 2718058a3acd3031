"""Unit tests for CSP channels: rendezvous semantics, FIFO queues, guarded
select (immediate and parked paths), and error cases."""

import pytest

from repro.mechanisms import Channel, ReceiveOp, SendOp, select
from repro.runtime import (
    DeadlockError,
    IllegalOperationError,
    ProcessFailed,
    Scheduler,
)


def test_send_then_receive():
    sched = Scheduler()
    chan = Channel(sched, "c")
    got = []

    def sender():
        yield from chan.send(42)

    def receiver():
        value = yield from chan.receive()
        got.append(value)

    sched.spawn(sender, name="s")
    sched.spawn(receiver, name="r")
    sched.run()
    assert got == [42]


def test_receive_then_send():
    sched = Scheduler()
    chan = Channel(sched, "c")
    got = []

    def receiver():
        value = yield from chan.receive()
        got.append(value)

    def sender():
        yield
        yield from chan.send("hello")

    sched.spawn(receiver, name="r")
    sched.spawn(sender, name="s")
    sched.run()
    assert got == ["hello"]


def test_rendezvous_blocks_sender_until_taken():
    sched = Scheduler()
    chan = Channel(sched, "c")
    order = []

    def sender():
        yield from chan.send(1)
        order.append("sent")

    def other():
        order.append("other")
        yield

    sched.spawn(sender, name="s")
    sched.spawn(other, name="o")
    result = sched.run(on_deadlock="return")
    assert "sent" not in order  # nobody received
    assert result.blocked == ["s"]


def test_fifo_among_senders():
    sched = Scheduler()
    chan = Channel(sched, "c")
    got = []

    def sender(v):
        def body():
            yield from chan.send(v)
        return body

    def receiver():
        yield
        for __ in range(3):
            value = yield from chan.receive()
            got.append(value)

    for v in (1, 2, 3):
        sched.spawn(sender(v), name="s{}".format(v))
    sched.spawn(receiver, name="r")
    sched.run()
    assert got == [1, 2, 3]


def test_fifo_among_receivers():
    sched = Scheduler()
    chan = Channel(sched, "c")
    got = []

    def receiver(tag):
        def body():
            value = yield from chan.receive()
            got.append((tag, value))
        return body

    def sender():
        yield
        yield from chan.send("a")
        yield from chan.send("b")

    sched.spawn(receiver(1), name="r1")
    sched.spawn(receiver(2), name="r2")
    sched.spawn(sender, name="s")
    sched.run()
    assert got == [(1, "a"), (2, "b")]


def test_channel_counts():
    sched = Scheduler()
    chan = Channel(sched, "c")
    observed = []

    def sender():
        yield from chan.send(1)

    def checker():
        yield
        observed.append((chan.senders_waiting, chan.receivers_waiting))
        yield from chan.receive()

    sched.spawn(sender, name="s")
    sched.spawn(checker, name="c")
    sched.run()
    assert observed == [(1, 0)]


# ----------------------------------------------------------------------
# select
# ----------------------------------------------------------------------
def test_select_immediate_match_prefers_first_arm():
    sched = Scheduler()
    a = Channel(sched, "a")
    b = Channel(sched, "b")
    picked = []

    def sender_a():
        yield from a.send("va")

    def sender_b():
        yield from b.send("vb")

    def selector():
        yield
        yield
        index, value = yield from select(
            sched, [ReceiveOp(a), ReceiveOp(b)]
        )
        picked.append((index, value))
        # drain the other channel
        value = yield from b.receive()
        picked.append(value)

    sched.spawn(sender_a, name="sa")
    sched.spawn(sender_b, name="sb")
    sched.spawn(selector, name="sel")
    sched.run()
    assert picked == [(0, "va"), "vb"]


def test_select_parks_until_any_arm_ready():
    sched = Scheduler()
    a = Channel(sched, "a")
    b = Channel(sched, "b")
    picked = []

    def selector():
        index, value = yield from select(sched, [ReceiveOp(a), ReceiveOp(b)])
        picked.append((index, value))

    def sender():
        yield
        yield from b.send(9)

    sched.spawn(selector, name="sel")
    sched.spawn(sender, name="s")
    sched.run()
    assert picked == [(1, 9)]


def test_select_dead_arms_do_not_match_later():
    """After one arm fires, the other parked arms must not consume
    messages."""
    sched = Scheduler()
    a = Channel(sched, "a")
    b = Channel(sched, "b")
    events = []

    def selector():
        index, value = yield from select(sched, [ReceiveOp(a), ReceiveOp(b)])
        events.append(("select", index, value))

    def sender():
        yield
        yield from a.send("first")
        # The select already fired on `a`; this must go to the fresh reader,
        # not to the select's stale arm on `b`.
        yield from b.send("second")

    def late_reader():
        yield
        yield
        value = yield from b.receive()
        events.append(("late", value))

    sched.spawn(selector, name="sel")
    sched.spawn(sender, name="s")
    sched.spawn(late_reader, name="r")
    sched.run()
    assert ("select", 0, "first") in events
    assert ("late", "second") in events


def test_select_send_arm():
    sched = Scheduler()
    chan = Channel(sched, "c")
    got = []

    def selector():
        index, value = yield from select(sched, [SendOp(chan, 7)])
        got.append(("sent", index, value))

    def receiver():
        yield
        value = yield from chan.receive()
        got.append(("recv", value))

    sched.spawn(selector, name="sel")
    sched.spawn(receiver, name="r")
    sched.run()
    assert ("sent", 0, None) in got
    assert ("recv", 7) in got


def test_select_respects_false_guards():
    sched = Scheduler()
    a = Channel(sched, "a")
    b = Channel(sched, "b")
    picked = []

    def sender_a():
        yield from a.send(1)

    def selector():
        yield
        index, __ = yield from select(
            sched, [ReceiveOp(a, guard=False), ReceiveOp(b)]
        )
        picked.append(index)

    def sender_b():
        yield
        yield
        yield from b.send(2)

    sched.spawn(sender_a, name="sa")
    sched.spawn(selector, name="sel")
    sched.spawn(sender_b, name="sb")
    result = sched.run(on_deadlock="return")
    assert picked == [1]
    assert result.blocked == ["sa"]  # guard=False arm never consumed it


def test_select_all_guards_false_raises():
    sched = Scheduler()
    chan = Channel(sched, "c")

    def selector():
        yield from select(sched, [ReceiveOp(chan, guard=False)])

    sched.spawn(selector, name="sel")
    with pytest.raises(ProcessFailed) as err:
        sched.run()
    assert isinstance(err.value.__cause__, IllegalOperationError)


def test_unmatched_channel_deadlocks():
    sched = Scheduler()
    chan = Channel(sched, "c")

    def lonely():
        yield from chan.receive()

    sched.spawn(lonely, name="l")
    with pytest.raises(DeadlockError):
        sched.run()


def test_channel_as_one_slot_buffer():
    """Rendezvous gives strict put/get pairing for free — the CSP take on
    the paper's one-slot buffer."""
    sched = Scheduler()
    chan = Channel(sched, "slot")
    got = []

    def producer():
        for i in range(3):
            yield from chan.send(i)

    def consumer():
        for __ in range(3):
            value = yield from chan.receive()
            got.append(value)

    sched.spawn(producer, name="p")
    sched.spawn(consumer, name="c")
    sched.run()
    assert got == [0, 1, 2]


# ----------------------------------------------------------------------
# Timeout racing a simultaneous claim: the winner is pinned
# ----------------------------------------------------------------------
def _timeout_race(receiver_first, sender_sleep):
    """A receiver with ``timeout=5`` against a sender waking at
    ``sender_sleep``; returns (receiver outcome, sender outcome)."""
    from repro.runtime import WaitTimeout

    sched = Scheduler()
    chan = Channel(sched, "c")

    def receiver():
        try:
            value = yield from chan.receive(timeout=5)
            return ("got", value)
        except WaitTimeout:
            return "timeout"

    def sender():
        yield from sched.sleep(sender_sleep)
        try:
            yield from chan.send("x", timeout=10)
            return "sent"
        except WaitTimeout:
            return "unsent"

    if receiver_first:
        sched.spawn(receiver, name="R")
        sched.spawn(sender, name="S")
    else:
        sched.spawn(sender, name="S")
        sched.spawn(receiver, name="R")
    result = sched.run(on_deadlock="return")
    return result.results["R"], result.results["S"]


@pytest.mark.parametrize("receiver_first", [True, False])
def test_timeout_tying_a_wakeup_times_out(receiver_first):
    """Both timers due on the same tick: the clock advance pops *every*
    timer at that deadline before anyone runs again, so the receiver's
    timeout withdraws the offer and the sender cannot claim it — in both
    spawn orders.  Pins the `_withdraw`-beats-`_claim` tie rule."""
    assert _timeout_race(receiver_first, sender_sleep=5) == \
        ("timeout", "unsent")


@pytest.mark.parametrize("receiver_first", [True, False])
def test_wakeup_one_tick_before_timeout_rendezvouses(receiver_first):
    """Control: the sender waking one tick earlier claims the offer before
    the timeout exists on the heap — the rendezvous completes."""
    assert _timeout_race(receiver_first, sender_sleep=4) == \
        (("got", "x"), "sent")


def test_rendezvous_and_select_probe_sequence():
    """The offer-queue probes a rendezvous pair and a two-arm select emit,
    label by label.  The late send on ``b`` finds the select's resolved
    arm still queued there and discards it before parking."""
    from repro.obs import RecordingSink

    sink = RecordingSink()
    sched = Scheduler(sink=sink)
    a, b, c = Channel(sched, "a"), Channel(sched, "b"), Channel(sched, "c")
    got = []

    def sender():
        yield from a.send(1)

    def receiver():
        got.append((yield from a.receive()))

    def chooser():
        got.append((yield from select(sched, [ReceiveOp(b), ReceiveOp(c)])))

    def late_sender_c():
        yield from c.send(2)

    def late_sender_b():
        yield from b.send(3)

    def late_receiver_b():
        got.append((yield from b.receive()))

    for body in (sender, receiver, chooser, late_sender_c, late_sender_b,
                 late_receiver_b):
        sched.spawn(body, name=body.__name__)
    sched.run()
    assert got == [1, 3, (1, 2)]
    assert [(cat, obj, value) for __, __, cat, obj, value in sink.samples] == [
        ("channel", "channel a.senders", 1),
        ("channel", "channel a.receivers", 0),
        ("channel", "channel a.senders", 0),
        ("channel", "channel a.receivers", 0),
        ("channel", "channel b.senders", 0),
        ("channel", "channel b.receivers", 1),
        ("channel", "channel c.senders", 0),
        ("channel", "channel c.receivers", 1),
        ("channel", "channel c.senders", 0),
        ("channel", "channel c.receivers", 0),
        ("channel", "channel b.senders", 1),
        ("channel", "channel b.receivers", 0),
        ("channel", "channel b.senders", 0),
        ("channel", "channel b.receivers", 0),
    ]
