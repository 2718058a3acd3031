"""The :class:`Event` record contract: construction, immutability, value
semantics, rendering and the two round trips (dict and pickle)."""

import pickle

import pytest

from repro.runtime.trace import Event


def test_positional_and_keyword_construction_with_defaults():
    positional = Event(3, 7, 1, "p1", "request")
    keyword = Event(seq=3, time=7, pid=1, pname="p1", kind="request")
    assert positional == keyword
    assert (keyword.seq, keyword.time, keyword.pid, keyword.pname,
            keyword.kind) == (3, 7, 1, "p1", "request")
    assert keyword.obj == ""
    assert keyword.detail is None
    full = Event(3, 7, 1, "p1", "request", "buf.put", ("x", 2))
    assert full.obj == "buf.put"
    assert full.detail == ("x", 2)


def test_attribute_assignment_raises():
    event = Event(0, 0, 0, "p", "spawn", "p")
    with pytest.raises(AttributeError):
        event.kind = "exit"
    with pytest.raises(AttributeError):
        event.detail = 1
    assert event.kind == "spawn"


def test_hash_and_equality_by_fields():
    a = Event(5, 2, 1, "p1", "send", "c", 42)
    b = Event(5, 2, 1, "p1", "send", "c", 42)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Event(6, 2, 1, "p1", "send", "c", 42)
    assert a != Event(5, 2, 1, "p1", "send", "c", 43)
    assert a != Event(5, 2, 1, "p1", "recv", "c", 42)


def test_str_is_pinned():
    assert str(Event(12, 3, 1, "reader1", "op_start", "db.read")) == (
        "[  12 t=   3] reader1        op_start   db.read"
    )
    assert str(Event(4, 0, 2, "P2", "blocked", "m", "enter(m)")) == (
        "[   4 t=   0] P2             blocked    m 'enter(m)'"
    )
    assert str(Event(1234, 56, -1, "<sched>", "spawn", detail=(1, None))) == (
        "[1234 t=  56] <sched>        spawn       (1, None)"
    )


def test_dict_round_trip():
    event = Event(9, 4, 3, "w", "custom", "db", {"k": [1, 2]})
    data = event.to_dict()
    assert data == {
        "seq": 9, "time": 4, "pid": 3, "pname": "w", "kind": "custom",
        "obj": "db", "detail": {"k": [1, 2]},
    }
    assert list(data) == ["seq", "time", "pid", "pname", "kind", "obj",
                          "detail"]
    assert Event.from_dict(data) == event
    sparse = {"seq": 1, "time": 0, "pid": 0, "pname": "p", "kind": "exit"}
    assert Event.from_dict(sparse) == Event(1, 0, 0, "p", "exit")


def test_pickle_round_trip():
    event = Event(2, 1, 0, "p", "send", "c", ("v", 3))
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert type(clone) is Event
    assert str(clone) == str(event)
