"""Unit tests for the dist layer: NetPlan verdicts, network fault
application, the protocol runtime (dedup, retry), and quorum leases."""

import pytest

from repro.dist import (
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    LeaseServer,
    NetPlan,
    Network,
    Node,
    QuorumLease,
)
from repro.runtime.errors import WaitTimeout
from repro.runtime.scheduler import Scheduler


# ----------------------------------------------------------------------
# NetPlan: pure verdict logic, no scheduler required
# ----------------------------------------------------------------------
class TestNetPlanVerdicts:
    def test_drop_counts_per_link_pattern(self):
        plan = NetPlan().drop("a", "b", nth=2)
        assert plan.verdict("a", "b", 0) == (DELIVER, None)
        assert plan.verdict("a", "b", 0) == (DROP, None)
        assert plan.verdict("a", "b", 0) == (DELIVER, None)

    def test_wildcard_counts_only_matching_messages(self):
        plan = NetPlan().drop("*", "b", nth=2)
        assert plan.verdict("a", "x", 0) == (DELIVER, None)  # not counted
        assert plan.verdict("a", "b", 0) == (DELIVER, None)  # count 1
        assert plan.verdict("c", "b", 0) == (DROP, None)     # count 2

    def test_rules_keep_independent_counters(self):
        plan = NetPlan().drop("a", "b", nth=1).duplicate("a", "b", nth=2)
        assert plan.verdict("a", "b", 0) == (DROP, None)
        assert plan.verdict("a", "b", 0) == (DUPLICATE, None)

    def test_delay_carries_ticks(self):
        plan = NetPlan().delay("a", "b", ticks=7)
        assert plan.verdict("a", "b", 0) == (DELAY, 7)

    def test_partition_takes_precedence_over_link_rules(self):
        plan = NetPlan().duplicate("a", "b", nth=1).partition(["a"], ["b"])
        assert plan.partitioned("a", "b", 0)
        assert plan.verdict("a", "b", 0) == (DROP, None)

    def test_partition_window_and_sides(self):
        plan = NetPlan().isolate("n0", at=5, heal_at=10)
        assert not plan.partitioned("n0", "n1", 4)
        assert plan.partitioned("n0", "n1", 5)
        assert plan.partitioned("n1", "n0", 9)   # both directions
        assert not plan.partitioned("n0", "n1", 10)
        assert not plan.partitioned("n1", "n2", 7)  # same side

    def test_partial_partition_ignores_outsiders(self):
        plan = NetPlan().partition(["a"], ["b"])
        assert plan.partitioned("a", "b", 0)
        assert not plan.partitioned("a", "c", 0)
        assert not plan.partitioned("c", "b", 0)

    def test_begin_resets_fired_state_and_counters(self):
        plan = NetPlan().drop("a", "b", nth=1)
        assert plan.verdict("a", "b", 0) == (DROP, None)
        assert plan.verdict("a", "b", 0) == (DELIVER, None)
        plan.begin()
        assert plan.verdict("a", "b", 0) == (DROP, None)

    def test_schedule_ticks_sorted_and_deduped(self):
        plan = (NetPlan().isolate("a", at=9, heal_at=20)
                         .partition(["b"], ["c"], at=3, heal_at=9))
        assert plan.schedule_ticks() == [3, 9, 20]

    def test_describe_round_trip(self):
        plan = (NetPlan()
                .drop("a", "b", nth=2)
                .duplicate("*", "b")
                .delay("a", "*", ticks=4, nth=3)
                .reorder("a", "b")
                .isolate("n0", at=1, heal_at=9))
        rendered = repr(plan)
        for line in plan.describe():
            assert line in rendered
        assert "drop message #2 on a->b" in rendered
        assert "delay message #3 on a->* by 4 ticks" in rendered
        assert "partition {n0} | {rest} at t=1 (heals at t=9)" in rendered

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            NetPlan().drop("a", "b", nth=0)
        with pytest.raises(ValueError):
            NetPlan().delay("a", "b", ticks=0)
        with pytest.raises(ValueError):
            NetPlan().partition(["a"], at=5, heal_at=5)

    def test_dict_round_trip(self):
        # Joint fault plans persist their witnesses as dicts (the
        # resilience search, BENCH_resilience.json), so serialization
        # must reconstruct a behaviourally identical plan.
        plan = (NetPlan()
                .drop("a", "b", nth=2)
                .duplicate("*", "b")
                .delay("a", "*", ticks=4, nth=3)
                .reorder("a", "b")
                .isolate("n0", at=1, heal_at=9)
                .partition(["x"], ["y"], at=3))
        clone = NetPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.describe() == plan.describe()
        # The clone starts with fresh counters and tracks the original
        # verdict-for-verdict across every rule kind.
        traffic = [("a", "b"), ("a", "b"), ("a", "b"),
                   ("a", "q"), ("a", "q"), ("c", "b"), ("c", "b")]
        assert ([clone.verdict(s, d, 0) for s, d in traffic]
                == [plan.verdict(s, d, 0) for s, d in traffic])
        assert clone.partitioned("n0", "n1", 8)
        assert not clone.partitioned("n0", "n1", 9)
        assert clone.partitioned("x", "y", 3)
        assert clone.schedule_ticks() == plan.schedule_ticks()


# ----------------------------------------------------------------------
# Network: fault application is trace-visible and counted
# ----------------------------------------------------------------------
def _pair(sched, net, payloads, receive_n, recv_timeout=None):
    """Spawn a sender pushing ``payloads`` to node b and a receiver taking
    ``receive_n`` values; return the receiver's list via run results."""
    def sender():
        for p in payloads:
            yield from net.node("b").send(p)

    def receiver():
        got = []
        for _ in range(receive_n):
            got.append((yield from net.node("b").receive(
                timeout=recv_timeout)))
        return got

    sched.spawn(sender, name="a")
    sched.spawn(receiver, name="b")


class TestNetwork:
    def test_clean_delivery_in_order_with_stats(self):
        sched = Scheduler()
        net = Network(sched)
        _pair(sched, net, [1, 2, 3], 3)
        result = sched.run()
        assert result.results["b"] == [1, 2, 3]
        assert net.stats() == {"sent": 3, "delivered": 3, "dropped": 0,
                               "duplicated": 0, "delayed": 0,
                               "inbox_peak": {"b": 3}}

    def test_inbox_peak_tracks_backlog_and_probes_the_sink(self):
        from repro.obs import MetricsSink

        sink = MetricsSink()
        sched = Scheduler(sink=sink)
        net = Network(sched)
        _pair(sched, net, [1, 2, 3, 4], 4)
        sched.run()
        stats = net.stats()
        # The sender bursts ahead of the receiver, so the inbox backs up;
        # the peak is a gauge (max), not a counter.
        assert 1 <= stats["inbox_peak"]["b"] <= 4
        # Every delivery publishes an inbox-depth probe to the sink.
        assert sink.probe_counts.get("b") == stats["delivered"]
        assert sink.max_depth.get("b") == stats["inbox_peak"]["b"]

    def test_network_stats_flow_into_run_metrics(self):
        from repro.obs import RecordingSink, compute_metrics, fold_spans

        sink = RecordingSink()
        sched = Scheduler(sink=sink)
        net = Network(sched)
        _pair(sched, net, [1, 2], 2)
        result = sched.run()
        result.network_stats = net.stats()
        metrics = compute_metrics(result, fold_spans(result.trace), sink)
        assert metrics.network["sent"] == 2
        assert metrics.network["inbox_peak"]["b"] >= 1
        assert metrics.to_dict()["network"]["delivered"] == 2
        assert "net: sent=2" in metrics.render()

    def test_drop_is_logged_with_rule_reason(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().drop("a", "b", nth=2))
        _pair(sched, net, ["x", "lost", "y"], 2)
        result = sched.run()
        assert result.results["b"] == ["x", "y"]
        drop = result.trace.first(kind="msg_drop")
        assert drop.detail == "drop rule"
        assert net.dropped == 1

    def test_duplicate_deposits_twice(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().duplicate("a", "b", nth=1))
        _pair(sched, net, ["x"], 2)
        result = sched.run()
        assert result.results["b"] == ["x", "x"]
        assert net.duplicated == 1
        assert len(result.trace.filter(kind="msg_deliver")) == 2

    def test_delay_delivers_at_due_tick(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().delay("a", "b", ticks=6))
        _pair(sched, net, ["late"], 1)
        result = sched.run()
        deliver = result.trace.first(kind="msg_deliver")
        assert deliver.time == 6
        assert net.delayed == 1

    def test_partition_announced_and_healed_on_cue(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().isolate("a", at=4, heal_at=9))
        net.start()

        def bystander():
            yield from sched.sleep(12)

        sched.spawn(bystander, name="z")
        result = sched.run()
        assert result.trace.first(kind="net_partition").time == 4
        assert result.trace.first(kind="net_heal").time == 9

    def test_in_flight_message_lost_at_partition_boundary(self):
        # Sent before the partition, due inside it: lost at the boundary.
        sched = Scheduler()
        net = Network(sched, NetPlan().delay("a", "b", ticks=5)
                                      .isolate("a", at=3, heal_at=30))
        _pair(sched, net, ["doomed"], 1, recv_timeout=40)

        def run_all():
            return sched.run(on_error="record", on_deadlock="return")

        result = run_all()
        assert result.results.get("b") is None  # receiver timed out
        drop = result.trace.first(kind="msg_drop")
        assert drop.detail == "partition"

    def test_latency_routes_through_pump(self):
        sched = Scheduler()
        net = Network(sched, latency=2)
        _pair(sched, net, ["x"], 1)
        result = sched.run()
        assert result.trace.first(kind="msg_deliver").time == 2
        assert result.results["b"] == ["x"]


# ----------------------------------------------------------------------
# Protocol runtime: dedup, pending buffer, retry
# ----------------------------------------------------------------------
class TestProtocol:
    def test_network_duplicate_is_deduped_once(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().duplicate("a", "b", nth=1))

        def sender():
            node = Node(net, "a").bind("a")
            yield from node.send("b", "ping", payload=1)

        def receiver():
            node = Node(net, "b").bind("b")
            msg = yield from node.receive()
            with pytest.raises(WaitTimeout):
                yield from node.receive(timeout=5)
            return (msg.kind, msg.payload, node.duplicates)

        sched.spawn(sender, name="a")
        sched.spawn(receiver, name="b")
        result = sched.run()
        assert result.results["b"] == ("ping", 1, 1)
        assert len(result.trace.filter(kind="msg_dedup")) == 1

    def test_request_retries_after_dropped_attempt(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().drop("c", "s", nth=1))

        def client():
            node = Node(net, "c").bind("c")
            reply = yield from node.request("s", "ask", timeout=4,
                                           attempts=3)
            return reply.kind

        def server():
            node = Node(net, "s").bind("s")
            seen = 0
            while seen < 1:
                msg = yield from node.receive(timeout=30)
                seen += 1
                yield from node.reply(msg, "ok")

        sched.spawn(client, name="c")
        sched.spawn(server, name="s")
        result = sched.run(on_deadlock="return")
        assert result.results["c"] == "ok"
        # Two transmissions of the logical request: the dropped original
        # plus the retry that got through.
        assert len(result.trace.filter(kind="msg_drop")) == 1

    def test_try_request_returns_none_when_unreachable(self):
        sched = Scheduler()
        net = Network(sched, NetPlan().partition(["c"], ["s"]))

        def client():
            node = Node(net, "c").bind("c")
            reply = yield from node.try_request("s", "ask", timeout=3,
                                               attempts=2)
            return reply

        sched.spawn(client, name="c")
        result = sched.run(on_deadlock="return")
        assert result.results["c"] is None

    def test_unrelated_traffic_buffered_during_request(self):
        sched = Scheduler()
        net = Network(sched)

        def client():
            node = Node(net, "c").bind("c")
            reply = yield from node.request("s", "ask", timeout=20)
            gossip = yield from node.receive()
            return (reply.kind, gossip.kind)

        def server():
            node = Node(net, "s").bind("s")
            msg = yield from node.receive(timeout=30)
            yield from node.send("c", "gossip")  # lands mid-request
            yield from node.reply(msg, "ok")

        sched.spawn(client, name="c")
        sched.spawn(server, name="s")
        result = sched.run(on_deadlock="return")
        assert result.results["c"] == ("ok", "gossip")

    def test_broadcast_reaches_every_peer_with_same_seq(self):
        sched = Scheduler()
        net = Network(sched)

        def caster():
            node = Node(net, "a", peers=["b", "c"]).bind("a")
            seq = yield from node.broadcast("hello")
            return seq

        def listener(name):
            def body():
                node = Node(net, name).bind(name)
                msg = yield from node.receive()
                return (msg.src, msg.seq)

            return body

        sched.spawn(caster, name="a")
        sched.spawn(listener("b"), name="b")
        sched.spawn(listener("c"), name="c")
        result = sched.run()
        seq = result.results["a"]
        assert result.results["b"] == ("a", seq)
        assert result.results["c"] == ("a", seq)


# ----------------------------------------------------------------------
# Quorum leases
# ----------------------------------------------------------------------
def _lease_cluster(sched, net, servers=("s0", "s1", "s2"), duration=12,
                   horizon=60):
    """Spawn lease-server loops that answer until ``horizon``."""
    def server(sid):
        def body():
            node = Node(net, sid).bind(sid)
            lease = LeaseServer(node, duration=duration)
            while sched.now < horizon:
                try:
                    msg = yield from node.receive(
                        timeout=horizon - sched.now)
                except WaitTimeout:
                    return
                yield from lease.handle(msg)

        return body

    for sid in servers:
        sched.spawn(server(sid), name=sid)


class TestQuorumLease:
    def test_winner_takes_majority_loser_rejected(self):
        sched = Scheduler()
        net = Network(sched)
        _lease_cluster(sched, net)

        def client(cid):
            def body():
                node = Node(net, cid).bind(cid)
                lease = QuorumLease(node, ["s0", "s1", "s2"], duration=12,
                                    timeout=4, attempts=1)
                ok = yield from lease.acquire()
                return ok

            return body

        sched.spawn(client("c0"), name="c0")
        sched.spawn(client("c1"), name="c1")
        result = sched.run(on_deadlock="return")
        outcomes = sorted([result.results["c0"], result.results["c1"]])
        assert outcomes == [False, True]
        acquired = result.trace.filter(kind="lease_acquired")
        rejected = result.trace.filter(kind="lease_rejected")
        assert len(acquired) == 1
        assert len(rejected) == 1

    def test_holder_renewal_is_idempotent(self):
        sched = Scheduler()
        net = Network(sched)
        _lease_cluster(sched, net, duration=10)

        def client():
            node = Node(net, "c0").bind("c0")
            lease = QuorumLease(node, ["s0", "s1", "s2"], duration=10,
                                timeout=4, attempts=1)
            first = yield from lease.acquire()
            horizon1 = lease.expires_at
            yield from sched.sleep(4)
            second = yield from lease.acquire()   # renewal
            return (first, second, horizon1, lease.expires_at)

        sched.spawn(client, name="c0")
        result = sched.run(on_deadlock="return")
        first, second, h1, h2 = result.results["c0"]
        assert first and second
        assert h2 > h1

    def test_validity_expires_on_virtual_clock(self):
        sched = Scheduler()
        net = Network(sched)
        _lease_cluster(sched, net, duration=8)

        def client():
            node = Node(net, "c0").bind("c0")
            lease = QuorumLease(node, ["s0", "s1", "s2"], duration=8,
                                timeout=4, attempts=1)
            ok = yield from lease.acquire()
            assert ok and lease.valid
            yield from sched.sleep(20)
            still = lease.valid
            again = lease.valid   # expiry logged exactly once
            return (still, again)

        sched.spawn(client, name="c0")
        result = sched.run(on_deadlock="return")
        assert result.results["c0"] == (False, False)
        assert len(result.trace.filter(kind="lease_expired")) == 1

    def test_server_regrants_only_after_expiry(self):
        sched = Scheduler()
        net = Network(sched)
        _lease_cluster(sched, net, duration=10)

        def c0():
            node = Node(net, "c0").bind("c0")
            lease = QuorumLease(node, ["s0", "s1", "s2"], duration=10,
                                timeout=3, attempts=1)
            ok = yield from lease.acquire()
            return ok

        def c1():
            yield from sched.sleep(4)
            node = Node(net, "c1").bind("c1")
            lease = QuorumLease(node, ["s0", "s1", "s2"], duration=10,
                                timeout=3, attempts=1)
            denied = yield from lease.acquire()   # grants still unexpired
            yield from sched.sleep(12)            # past every expiry
            granted = yield from lease.acquire()
            return (denied, granted)

        _ = c0
        sched.spawn(c0, name="c0")
        sched.spawn(c1, name="c1")
        result = sched.run(on_deadlock="return")
        assert result.results["c0"] is True
        assert result.results["c1"] == (False, True)

    @pytest.mark.parametrize("holder_first", [True, False])
    def test_expiry_tick_tie_challenger_wins(self, holder_first):
        # Mirrors the timeout-vs-claim tie test in test_channels.py: the
        # grant interval is HALF-OPEN, [grant, grant+duration).  An
        # ACQUIRE handled at exactly the expiry tick starts a new session
        # (fresh fencing epoch) whichever process was spawned first, and
        # the old holder's client-side ``valid`` is already false at that
        # same tick — server and client agree there is no overlap.
        sched = Scheduler()
        net = Network(sched)
        _lease_cluster(sched, net, servers=("s0",), duration=10)

        def holder():
            node = Node(net, "c0").bind("c0")
            lease = QuorumLease(node, ["s0"], duration=10, timeout=4,
                                attempts=1)
            ok = yield from lease.acquire()
            assert ok
            yield from sched.sleep(lease.expires_at - sched.now)
            return (lease.token, lease.valid)

        def challenger():
            yield from sched.sleep(10)  # land exactly on the expiry tick
            node = Node(net, "c1").bind("c1")
            lease = QuorumLease(node, ["s0"], duration=10, timeout=4,
                                attempts=1)
            ok = yield from lease.acquire()
            return (ok, lease.token)

        order = [("c0", holder), ("c1", challenger)]
        if not holder_first:
            order.reverse()
        for name, body in order:
            sched.spawn(body, name=name)
        result = sched.run(on_deadlock="return")
        # Challenger wins with a strictly larger token; no rejection.
        assert result.results["c0"] == (1, False)
        assert result.results["c1"] == (True, 2)
        assert len(result.trace.filter(kind="lease_grant")) == 2
        assert len(result.trace.filter(kind="lease_rejected")) == 0

    @pytest.mark.parametrize("holder_first", [True, False])
    def test_one_tick_before_expiry_holder_still_wins(self, holder_first):
        # The control for the tie test above: one tick inside the
        # half-open interval the challenger is rejected.
        sched = Scheduler()
        net = Network(sched)
        _lease_cluster(sched, net, servers=("s0",), duration=10)

        def holder():
            node = Node(net, "c0").bind("c0")
            lease = QuorumLease(node, ["s0"], duration=10, timeout=4,
                                attempts=1)
            ok = yield from lease.acquire()
            return ok

        def challenger():
            yield from sched.sleep(9)
            node = Node(net, "c1").bind("c1")
            lease = QuorumLease(node, ["s0"], duration=10, timeout=4,
                                attempts=1)
            ok = yield from lease.acquire()
            return ok

        order = [("c0", holder), ("c1", challenger)]
        if not holder_first:
            order.reverse()
        for name, body in order:
            sched.spawn(body, name=name)
        result = sched.run(on_deadlock="return")
        assert result.results["c0"] is True
        assert result.results["c1"] is False
        assert len(result.trace.filter(kind="lease_rejected")) == 1
