"""Golden verdict digests: every oracle message and every folded span,
pinned per explore target.

Each explore target is run under twenty seeded ``RandomPolicy`` schedules.
Per run, the digest takes the target's checker messages and the
``fold_spans`` output (``Span.to_dict()`` per span).  For the targets that
do not run on csp, it also takes the liveness queries per resource:
``waiting_times``, ``unserved_requests``, the ``all_served`` oracle,
``check_fcfs`` and ``check_no_overtake`` for every ordered pair of the
resource's operations.  The csp targets are left out of that part because a
csp server may start the operation a client requested, and the liveness
queries count such a cross-process start as service.

Any rewrite of an oracle, of the span folder or of request/start pairing
must keep these digests unchanged.  To print fresh constants (only when a
change is *meant* to move a verdict or a span)::

    PYTHONPATH=src python tests/test_verdict_digests.py
"""

import hashlib
from itertools import permutations

import pytest

from repro.explore import get_target
from repro.explore.targets import available_targets
from repro.obs import fold_spans
from repro.runtime import RandomPolicy
from repro.verify import (
    check_fcfs,
    check_no_overtake,
    unserved_requests,
    waiting_times,
)
from repro.verify.registry import oracle

SEEDS = range(20)

#: blake2b-128 of checker messages and spans over the 20 seeded runs.
VERDICT_DIGESTS = {
    "alarm_clock/ccr": "f9a22592a689b0719faf17634461515e",
    "alarm_clock/csp": "d2afa27bb90f6273d6d8c4b491f4ddcb",
    "alarm_clock/monitor": "59425d984f482dee98f919171e76d9a4",
    "alarm_clock/pathexpr_open": "ae7549ddb8489bf6add103ba8d19a0eb",
    "alarm_clock/semaphore": "01b1d7dc2c167e28bf483dc9c2ecf5f8",
    "alarm_clock/serializer": "9d7da66954e43190b7716f936b79b09c",
    "bounded_buffer/ccr": "e55214bd3811004147e785efe50c7255",
    "bounded_buffer/csp": "f0aa3017c2495ac3408831e1dbe1985d",
    "bounded_buffer/eventcount": "593a8ecb40805001aa455b6680650772",
    "bounded_buffer/monitor": "098488165ccfb2d3e05aab230eca5c71",
    "bounded_buffer/pathexpr_open": "7a8743f1148ae87374e428c81d6bec42",
    "bounded_buffer/semaphore": "7053d46232e9ee01cf471db7ef88b6d7",
    "bounded_buffer/serializer": "294b38afd2f60298cdac3e9fcc1793a4",
    "fcfs_resource/ccr": "7fcecc7f6a9107a10adc1bdda618ee0a",
    "fcfs_resource/csp": "05cc0da72c3d3c1389aff5adadcf5bb1",
    "fcfs_resource/eventcount": "f3688e19724ad73305f2f690bf1794da",
    "fcfs_resource/monitor": "4ea1bdb7740f6d0cc4aeef197be1479a",
    "fcfs_resource/pathexpr": "fcc4589b227d45857efe22d248034514",
    "fcfs_resource/semaphore": "377ee3655c36811b65b999bef48b513f",
    "fcfs_resource/serializer": "5fd91c07fec9e75b790c858b6c790fbb",
    "footnote3/ccr": "66f4c4f26daace00cf0061b9e31c1e80",
    "footnote3/csp": "c25e8e626af4db8459cbd2e6c40a8e47",
    "footnote3/monitor": "89b4c443f9e6e8db76e126b32ce8d795",
    "footnote3/pathexpr": "34e65c76399d20cec108cb0b94bc42f8",
    "footnote3/semaphore": "9f4f6c94df78e883713e61c2ad05a0fd",
    "footnote3/serializer": "fbe005310d0528014bb791796fbd42f2",
    "one_slot_buffer/ccr": "b39601c9284535913dd342c2ad95e017",
    "one_slot_buffer/csp": "8dde4e6306d3df0d5756a40474d2b4ee",
    "one_slot_buffer/eventcount": "cae18692935307fc887ff793c16801ba",
    "one_slot_buffer/monitor": "6b5bd9a64e617fe88f17b68441b27883",
    "one_slot_buffer/pathexpr": "e936287ead2daa647cf7ef77b628dd0f",
    "one_slot_buffer/semaphore": "3569d5503222dcb9f352b3764619f91a",
    "one_slot_buffer/serializer": "916ac627b6c881eff5d003e4ea039e68",
    "readers_priority/ccr": "43e39183e66b178566751ed2fd8b26e9",
    "readers_priority/csp": "6ac9eb4c70cd627d47ba2e902c20ea1a",
    "readers_priority/monitor": "2679db0f522b138764685e12e6c42461",
    "readers_priority/pathexpr": "c2db15a57da7754a3df4d98e53ab929c",
    "readers_priority/semaphore": "53cd4865358c1ac6ef5039380fc6ee27",
    "readers_priority/serializer": "53a163583a7cbd9b7eaa79b0a87c0105",
    "staged_queue/ccr": "4a62840a4cd65f69a48bec3f23d41e7e",
    "staged_queue/csp": "b9310d8fa03f8ec3c4cdb1a929bf1d75",
    "staged_queue/monitor": "dcb8099e1ac4475d054b37d920cc3e16",
    "staged_queue/pathexpr_open": "30c1fde991b0a0afa753e13b4f0bd987",
    "staged_queue/serializer": "408e65cabc232c25073a305ede77038b",
}


def resources_of(trace):
    """``{resource: sorted ops}`` over the trace's ``request`` objects."""
    found = {}
    for ev in trace.filter(kind="request"):
        resource, dot, op = ev.obj.rpartition(".")
        if dot:
            found.setdefault(resource, set()).add(op)
    return {res: sorted(ops) for res, ops in sorted(found.items())}


def liveness_lines(run):
    lines = list(oracle("all_served")(run))
    for resource, ops in resources_of(run.trace).items():
        lines.append(repr(waiting_times(run.trace, resource, ops)))
        lines.append(repr(unserved_requests(run.trace, resource, ops)))
        lines.extend(check_fcfs(run.trace, resource, ops))
        for preferred, deferred in permutations(ops, 2):
            lines.extend(check_no_overtake(
                run.trace, resource, preferred, deferred))
    return lines


def verdict_digest(problem: str, mechanism: str) -> str:
    target = get_target(problem, mechanism)
    digest = hashlib.blake2b(digest_size=16)
    for seed in SEEDS:
        run = target.build_and_run(RandomPolicy(seed))
        lines = list(target.checker(run))
        lines.append("--spans")
        lines.extend(repr(span.to_dict()) for span in fold_spans(run.trace))
        if mechanism != "csp":
            lines.append("--liveness")
            lines.extend(liveness_lines(run))
        for line in lines:
            digest.update(line.encode())
            digest.update(b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def test_every_target_has_a_pinned_digest():
    assert sorted(VERDICT_DIGESTS) == sorted(
        "{}/{}".format(p, m) for p, m in available_targets()
    )


@pytest.mark.parametrize(
    "problem,mechanism", available_targets(),
    ids=["{}/{}".format(p, m) for p, m in available_targets()],
)
def test_oracle_messages_and_spans_are_unchanged(problem, mechanism):
    key = "{}/{}".format(problem, mechanism)
    assert verdict_digest(problem, mechanism) == VERDICT_DIGESTS[key]


if __name__ == "__main__":
    print("VERDICT_DIGESTS = {")
    for p, m in available_targets():
        print('    "{}/{}": "{}",'.format(p, m, verdict_digest(p, m)))
    print("}")
