"""Golden event streams: the runtime's hot path against pinned digests.

Every explore target is run under twenty seeded ``RandomPolicy`` schedules
and the resulting event streams are hashed, field by field.  One
``run_load`` point pins the streaming sink's folded summary and the step
count.  Any rewrite of the scheduler, the trace record or a mechanism's
hot path must keep these streams bit-identical.

The three csp targets whose ``send`` events carry a ``Channel`` as
``detail`` would hash a memory address, so any ``detail`` whose ``repr``
contains ``" at 0x"`` is replaced by a placeholder before hashing.

To print fresh constants (only when a change is *meant* to alter the event
streams)::

    PYTHONPATH=src python tests/test_runtime_event_stream.py
"""

import hashlib
import json

import pytest

from repro.explore.targets import get_target
from repro.explore.targets import available_targets
from repro.load import run_load
from repro.runtime import RandomPolicy

SEEDS = range(20)
ADDRESS_PLACEHOLDER = "<address>"

#: blake2b-128 of the 20 seeded event streams, per target.
TARGET_STREAMS = {
    "alarm_clock/ccr": "09d7beeaba4b077b57084411922104a1",
    "alarm_clock/csp": "e46f731dd005000996931cee7cc4e34f",
    "alarm_clock/monitor": "fe9b3c4d058a6301d7dc545fda2f7843",
    "alarm_clock/pathexpr_open": "7c120c29fdea11656e0ca984e62946ec",
    "alarm_clock/semaphore": "8aca4497e84b445a3970ceb2ae7772ca",
    "alarm_clock/serializer": "b47d7d4398e33a866691690d21a242f2",
    "bounded_buffer/ccr": "3f819121e5f4a1cb03e796766dd23384",
    "bounded_buffer/csp": "8d6930e3176e62e9b5736a4d50b1d262",
    "bounded_buffer/eventcount": "69a5b3627e360a9ccdbc22f3d1ec9326",
    "bounded_buffer/monitor": "093239a2aff988a3c1124d4f98f86b2c",
    "bounded_buffer/pathexpr_open": "3e5da003d71c3f7ee1ec230255fa457e",
    "bounded_buffer/semaphore": "10f2f3ce8d122abe29a143ddaa034a2e",
    "bounded_buffer/serializer": "7b38c2f272423e86fcd61f25fb599b48",
    "fcfs_resource/ccr": "344e13d8418b7006459d6fe7c422c819",
    "fcfs_resource/csp": "53f4674be7a062ec1c872e80b26fb426",
    "fcfs_resource/eventcount": "a002d3ce9f56d5fd3c135a37c1deb53a",
    "fcfs_resource/monitor": "d8098563d0195694f80b6e11af076ffb",
    "fcfs_resource/pathexpr": "96939516890d99bdf58fd96ec495022f",
    "fcfs_resource/semaphore": "267414ec16ed945c588a907a8084b6e0",
    "fcfs_resource/serializer": "89a680ee0dec46e826470c02a9ba2dfd",
    "footnote3/ccr": "644ee03420ebe25be6400a0717be406c",
    "footnote3/csp": "aa658859c1164092d2a97fcb09f56f7f",
    "footnote3/monitor": "5672e62df06ee7e28cc0ad7acce80663",
    "footnote3/pathexpr": "fcc16bd617e4f7b5be5bd05a74023298",
    "footnote3/semaphore": "428e70b9eee01eb5478c3a4dce165a36",
    "footnote3/serializer": "119211cd1a7a8db098f4181721f04e93",
    "one_slot_buffer/ccr": "c63792f4af8edee6e24bff65290ac765",
    "one_slot_buffer/csp": "548609dd332d40714c1ec7fdef0c39cd",
    "one_slot_buffer/eventcount": "1053e47e5f03c6e90536526fb80db35d",
    "one_slot_buffer/monitor": "1658d00610c28f040d70223a92a0f446",
    "one_slot_buffer/pathexpr": "e260b6ad20c1a42f28f56504053c466e",
    "one_slot_buffer/semaphore": "5f16e3f5996cf7f653e8bf7ebb917bf7",
    "one_slot_buffer/serializer": "2241b511a53d1b2c49aa51587ce2dae6",
    "readers_priority/ccr": "a22c6804c80726eed3a959c61a22c9f4",
    "readers_priority/csp": "77d7166f52f8cbeb9ebd061e37d22a5f",
    "readers_priority/monitor": "3642e91767a873f02a347cf3a2bcdf80",
    "readers_priority/pathexpr": "31a790bb9f5c828b30e5341539f907f6",
    "readers_priority/semaphore": "f13ad41e596bc9891ebd75b1d6326579",
    "readers_priority/serializer": "c6c88caf30209418eed88a95b5826dfc",
    "staged_queue/ccr": "e9973e07620ebdac525ce6148310624a",
    "staged_queue/csp": "f87e4ca353b70adce0838d7a1da2c44d",
    "staged_queue/monitor": "c7f165601a2d6b232e701c3982fe5429",
    "staged_queue/pathexpr_open": "c5f7928d511d00dc3285414238cbd254",
    "staged_queue/serializer": "1951ceb4a229c7a9040541f86b6bad78",
}

#: ``run_load("csp", clients=64, ops=2, seed=3)``.
LOAD_SINK_DIGEST = "93bf7a6f9b5c52d2f6b4a6aad4046f95"
LOAD_STEPS = 634


def event_line(ev) -> bytes:
    detail = repr(ev.detail)
    if " at 0x" in detail:
        detail = ADDRESS_PLACEHOLDER
    return repr(
        (ev.seq, ev.time, ev.pid, ev.pname, ev.kind, ev.obj, detail)
    ).encode()


def target_stream_digest(problem: str, mechanism: str) -> str:
    target = get_target(problem, mechanism)
    digest = hashlib.blake2b(digest_size=16)
    for seed in SEEDS:
        run = target.build_and_run(RandomPolicy(seed))
        for ev in run.trace:
            digest.update(event_line(ev))
            digest.update(b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def load_point():
    point, sink = run_load("csp", clients=64, ops=2, seed=3)
    summary = json.dumps(sink.to_dict(), sort_keys=True).encode()
    return hashlib.blake2b(summary, digest_size=16).hexdigest(), point.steps


def test_every_target_has_a_pinned_stream():
    assert sorted(TARGET_STREAMS) == sorted(
        "{}/{}".format(p, m) for p, m in available_targets()
    )


@pytest.mark.parametrize(
    "problem,mechanism", available_targets(),
    ids=["{}/{}".format(p, m) for p, m in available_targets()],
)
def test_random_schedule_event_streams_are_unchanged(problem, mechanism):
    key = "{}/{}".format(problem, mechanism)
    assert target_stream_digest(problem, mechanism) == TARGET_STREAMS[key]


def test_load_point_stream_is_unchanged():
    assert load_point() == (LOAD_SINK_DIGEST, LOAD_STEPS)


if __name__ == "__main__":
    print("TARGET_STREAMS = {")
    for p, m in available_targets():
        print('    "{}/{}": "{}",'.format(p, m, target_stream_digest(p, m)))
    print("}")
    sink_digest, steps = load_point()
    print('LOAD_SINK_DIGEST = "{}"'.format(sink_digest))
    print("LOAD_STEPS = {}".format(steps))
