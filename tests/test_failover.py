"""Chaos and self-healing tests for the replicated shard ring.

The replication surface of :mod:`repro.core.sharded` changes *when* the
router gives up, never *what* it returns — so every chaos scenario here
(kill, SIGSTOP-hang, partition one replica mid-stream) has a ground
truth to diff against: the one-shot solver.  Alongside the chaos suite:
the :mod:`repro.core.retry` backoff unit tests, the transport error
taxonomy (connect-time vs in-flight), heartbeats and liveness probing,
rolling replace, the daemon health surface (``ping`` op, host stats,
``repro ping``), and the bounded-teardown regression against a SIGSTOP'd
daemon.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
    spawn_shard_host,
)
from repro.core.gateway import service_health
from repro.core.retry import BackoffPolicy, RetrySchedule, call_with_backoff
from repro.core.service import ConnectorService
from repro.core.sharded import (
    ShardConnectError,
    ShardLinkError,
    ShardTransportError,
    ShardedConnectorService,
    request_digest,
)
from repro.core.options import SolveOptions
from repro.serving.protocol import decode_line, encode_line
from repro.serving.remote import (
    RemoteShardTransport,
    ShardHostServer,
    ping_shard_host,
    shutdown_shard_host,
)
import random


#: Fast revival pacing for tests: real deployments wait seconds, tests must not.
FAST_BACKOFF = BackoffPolicy(base_delay=0.05, max_delay=0.2, jitter=0.0)


def small_graph(seed: int = 11):
    return random_connected_graph(48, 0.09, seed)


def make_sharded(graph, **kwargs):
    kwargs.setdefault("backoff", FAST_BACKOFF)
    kwargs.setdefault("heartbeat_interval", None)
    return ShardedConnectorService(graph, **kwargs)


# ----------------------------------------------------------------------
# core/retry.py
# ----------------------------------------------------------------------
class TestBackoffPolicy:
    def test_exponential_growth_to_cap(self):
        policy = BackoffPolicy(base_delay=0.5, max_delay=4.0, multiplier=2.0)
        assert [policy.delay(k) for k in range(5)] == [0.5, 1.0, 2.0, 4.0, 4.0]

    def test_jitter_stays_within_band(self):
        policy = BackoffPolicy(base_delay=1.0, max_delay=1.0, jitter=0.25)
        stream = policy.delays(seed=7)
        for _ in range(50):
            delay = next(stream)
            assert 0.75 <= delay <= 1.25

    def test_jitter_zero_is_exact(self):
        policy = BackoffPolicy(base_delay=0.5, max_delay=2.0, jitter=0.0)
        stream = policy.delays()
        assert [next(stream) for _ in range(4)] == [0.5, 1.0, 2.0, 2.0]

    def test_seeded_stream_is_deterministic(self):
        policy = BackoffPolicy()
        a, b = policy.delays(seed=3), policy.delays(seed=3)
        assert [next(a) for _ in range(6)] == [next(b) for _ in range(6)]

    def test_delays_never_negative(self):
        policy = BackoffPolicy(base_delay=0.01, jitter=1.0)
        stream = policy.delays(seed=1)
        assert all(next(stream) >= 0.0 for _ in range(100))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_delay": 0.0},
            {"base_delay": -1.0},
            {"max_delay": 0.1, "base_delay": 0.5},
            {"multiplier": 0.5},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_negative_attempt_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BackoffPolicy().delay(-1)


class TestRetrySchedule:
    def test_fresh_schedule_is_due_immediately(self):
        assert RetrySchedule(FAST_BACKOFF).due()

    def test_initial_delay_books_the_first_wait(self):
        clock = iter([100.0, 100.0, 200.0]).__next__
        schedule = RetrySchedule(
            BackoffPolicy(base_delay=5.0, jitter=0.0),
            initial_delay=True,
            clock=clock,
        )
        assert not schedule.due()  # at t=100: next attempt is t=105
        assert schedule.due()  # at t=200

    def test_record_failure_advances_the_schedule(self):
        schedule = RetrySchedule(
            BackoffPolicy(base_delay=2.0, multiplier=2.0, jitter=0.0),
            clock=lambda: 50.0,
        )
        schedule.record_failure()
        assert schedule.attempts == 1
        assert schedule.next_attempt == 52.0
        assert not schedule.due(now=51.9)
        assert schedule.due(now=52.0)
        schedule.record_failure(now=52.0)
        assert schedule.next_attempt == 56.0  # 2.0 * 2


class TestCallWithBackoff:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "done"

        result = call_with_backoff(
            flaky,
            policy=BackoffPolicy(base_delay=0.5, jitter=0.0),
            retry_on=(OSError,),
            sleep=slept.append,
        )
        assert result == "done"
        assert slept == [0.5, 1.0]

    def test_raises_the_last_failure_after_max_attempts(self):
        with pytest.raises(OSError, match="still down"):
            call_with_backoff(
                lambda: (_ for _ in ()).throw(OSError("still down")),
                policy=FAST_BACKOFF,
                retry_on=(OSError,),
                max_attempts=3,
                sleep=lambda _: None,
            )

    def test_unlisted_exceptions_propagate_immediately(self):
        calls = {"n": 0}

        def typed():
            calls["n"] += 1
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            call_with_backoff(typed, retry_on=(OSError,), sleep=lambda _: None)
        assert calls["n"] == 1


# ----------------------------------------------------------------------
# A scripted peer for taxonomy tests: just enough protocol, on demand.
# ----------------------------------------------------------------------
class _ScriptedHost:
    """A one-connection-at-a-time TCP peer with a scripted reply policy.

    ``hello_ok=True`` answers the handshake like a real shard host;
    ``sweep_reply`` (bytes or None) is sent verbatim for every later
    line — letting tests forge unparsable replies, or
    hang up mid-stream (``None`` closes after the handshake's first
    sweep arrives).
    """

    def __init__(self, *, hello_ok=True, sweep_reply=b'{"ok": true}\n',
                 banner=None):
        self._hello_ok = hello_ok
        self._sweep_reply = sweep_reply
        self._banner = banner
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            while True:
                conn, _ = self._listener.accept()
                try:
                    self._serve_connection(conn)
                finally:
                    # makefile() pins the socket through _io_refs, so an
                    # explicit shutdown is what actually puts the FIN on
                    # the wire (and RSTs anything the peer keeps sending).
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    conn.close()
        except OSError:
            pass  # listener closed

    def _serve_connection(self, conn):
        with conn.makefile("rb") as reader:
            if self._banner is not None:
                conn.sendall(self._banner)
                return
            hello = reader.readline()
            if not hello:
                return
            message = decode_line(hello)
            conn.sendall(encode_line(
                {"ok": self._hello_ok, "id": message.get("id"),
                 "error": "scripted refusal"}
            ))
            if not self._hello_ok:
                return
            while reader.readline():
                if self._sweep_reply is None:
                    return  # hang up mid-stream
                conn.sendall(self._sweep_reply)

    def close(self):
        self._listener.close()


# ----------------------------------------------------------------------
# Transport error taxonomy: connect-time vs in-flight
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_refused_connect_is_a_connect_error(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(ShardConnectError, match="cannot connect"):
            RemoteShardTransport(0, "127.0.0.1", port, digest="d")

    def test_refused_handshake_is_a_connect_error(self):
        host = _ScriptedHost(hello_ok=False)
        try:
            with pytest.raises(ShardConnectError, match="refused the handshake"):
                RemoteShardTransport(0, "127.0.0.1", host.port, digest="d")
        finally:
            host.close()

    def test_digest_mismatch_is_a_connect_error(self):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            with pytest.raises(ShardConnectError, match="digest mismatch"):
                RemoteShardTransport(
                    0, "127.0.0.1", server.port, digest="not-the-digest"
                )

    def test_non_protocol_peer_is_a_connect_error(self):
        host = _ScriptedHost(banner=b"HTTP/1.1 400 Bad Request\r\n\r\n")
        try:
            with pytest.raises(ShardConnectError, match="non-protocol"):
                RemoteShardTransport(0, "127.0.0.1", host.port, digest="d")
        finally:
            host.close()

    def test_mid_write_reset_is_a_link_error(self):
        host = _ScriptedHost(sweep_reply=None)  # hangs up on the first sweep
        try:
            transport = RemoteShardTransport(
                0, "127.0.0.1", host.port, digest="d"
            )
            # The peer's FIN/RST lands asynchronously; keep writing until
            # the OS surfaces it (EPIPE/ECONNRESET), typed as in-flight.
            with pytest.raises(ShardLinkError, match="mid-write"):
                for request_id in range(200):
                    transport.submit(request_id, [1, 2], {}, 0)
                    time.sleep(0.005)
            transport.stop()
        finally:
            host.close()

    def test_unparsable_reply_is_a_link_error(self):
        host = _ScriptedHost(sweep_reply=b"certainly not json\n")
        try:
            transport = RemoteShardTransport(
                0, "127.0.0.1", host.port, digest="d"
            )
            transport.submit_stats(7)
            deadline = time.monotonic() + 5.0
            with pytest.raises(ShardLinkError, match="unparsable"):
                while time.monotonic() < deadline:
                    transport.drain()
                    time.sleep(0.01)
            transport.stop()
        finally:
            host.close()

    def test_malformed_index_reply_is_a_link_error(self):
        # ok=true with a vertex index one past the router's index: the
        # JSON envelope parsed, but protocol sync is gone, so the link
        # fails (and with one replica the batch and the service with it);
        # no wrong vertex is ever returned.
        graph = small_graph()
        with ShardHostServer(ConnectorService(graph)) as server:
            honest_sweep = server._sweep

            def forge_reply(message):
                reply = honest_sweep(message)
                reply["nodes"][-1] = graph.num_nodes
                return reply

            server._sweep = forge_reply
            sharded = ShardedConnectorService(
                graph, shards=[f"127.0.0.1:{server.port}"]
            )
            with pytest.raises(RuntimeError, match="died") as raised:
                sharded.solve_many([sorted(graph.nodes())[:3]])
            sharded.close()
        link_error = raised.value.__context__
        assert isinstance(link_error, ShardLinkError)
        assert "unparsable" in str(link_error)

    def test_submit_on_a_stopped_link_is_a_link_error(self):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            transport = RemoteShardTransport(
                0, "127.0.0.1", server.port, digest=service.index_digest()
            )
            transport.stop()
            with pytest.raises(ShardLinkError, match="closed"):
                transport.submit_stats(0)
            with pytest.raises(ShardLinkError, match="closed"):
                transport.drain()

    def test_taxonomy_is_rooted_at_shard_transport_error(self):
        assert issubclass(ShardConnectError, ShardTransportError)
        assert issubclass(ShardLinkError, ShardTransportError)
        assert issubclass(ShardTransportError, RuntimeError)


# ----------------------------------------------------------------------
# Daemon health surface: host stats, ping op, repro ping
# ----------------------------------------------------------------------
class TestHostStats:
    def test_stats_op_carries_daemon_health_over_a_live_connection(self):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                reader = sock.makefile("rb")
                sock.sendall(encode_line(
                    {"op": "hello", "digest": service.index_digest(), "id": 0}
                ))
                assert decode_line(reader.readline())["ok"]
                sock.sendall(encode_line({"op": "stats", "id": 1}))
                reply = decode_line(reader.readline())
                assert reply["ok"]
                first = reply["host"]
                assert first["uptime_seconds"] >= 0.0
                assert first["sweeps_served"] == 0
                assert first["connections_active"] == 1

                # A served sweep and a second connection move the counters.
                transport = RemoteShardTransport(
                    0, "127.0.0.1", server.port,
                    digest=service.index_digest(),
                )
                nodes = sorted(service.graph.nodes())[:2]
                transport.submit(
                    5, sorted(service.indices_of(nodes)), {}, service.epoch
                )
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if transport.drain():
                        break
                    time.sleep(0.01)
                sock.sendall(encode_line({"op": "stats", "id": 2}))
                second = decode_line(reader.readline())["host"]
                assert second["sweeps_served"] == 1
                assert second["connections_active"] == 2
                assert second["uptime_seconds"] >= first["uptime_seconds"]
                transport.stop()

    def test_service_stats_report_uptime(self):
        service = ConnectorService(small_graph())
        first = service.stats().uptime_seconds
        assert first >= 0.0
        time.sleep(0.02)
        assert service.stats().uptime_seconds > first


class TestPingShardHost:
    def test_ping_reports_rtt_and_stats(self):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            bare = ping_shard_host("127.0.0.1", server.port)
            assert bare["rtt_seconds"] > 0.0
            assert "stats" not in bare
            full = ping_shard_host(
                "127.0.0.1", server.port, with_stats=True
            )
            assert full["stats"]["queries_served"] == 0
            assert full["host"]["connections_active"] >= 1

    def test_ping_unreachable_raises_connect_error(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ShardConnectError, match="cannot connect"):
            ping_shard_host("127.0.0.1", port, timeout=1.0)

    def test_ping_needs_no_handshake(self):
        # The whole point: a supervisor without the graph can still probe.
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            report = ping_shard_host("127.0.0.1", server.port)
            assert report["rtt_seconds"] < 5.0


class TestPingCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_ping_text_output(self, capsys):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            code, out, _ = self.run_cli(
                ["ping", f"127.0.0.1:{server.port}"], capsys
            )
        assert code == 0
        assert "pong in" in out
        assert "0 sweeps served" in out

    def test_ping_json_output(self, capsys):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            code, out, _ = self.run_cli(
                ["ping", f"127.0.0.1:{server.port}", "--json"], capsys
            )
        assert code == 0
        document = json.loads(out)
        assert document["ok"] is True
        assert document["rtt_seconds"] > 0.0
        assert document["host"]["sweeps_served"] == 0

    def test_ping_unreachable_exits_one(self, capsys):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, _, err = self.run_cli(["ping", f"127.0.0.1:{port}"], capsys)
        assert code == 1
        assert "cannot connect" in err

    def test_ping_unreachable_json_exits_one(self, capsys):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, out, _ = self.run_cli(
            ["ping", f"127.0.0.1:{port}", "--json"], capsys
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["ping", "local"],
            ["ping", "no-port-here"],
            ["ping", "127.0.0.1:1", "--timeout", "0"],
        ],
    )
    def test_ping_usage_errors_exit_two(self, argv, capsys):
        code, _, err = self.run_cli(argv, capsys)
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "email", "1", "2", "--shards", "2", "--replication", "3"],
            ["query", "email", "1", "2", "--replication", "2"],
            ["query", "email", "1", "2", "--shards", "2", "--replication", "0"],
            ["serve", "email", "--shards", "local", "--replication", "2"],
        ],
    )
    def test_bad_replication_is_a_usage_error(self, argv, capsys):
        code, _, err = self.run_cli(argv, capsys)
        assert code == 2
        assert "--replication" in err


# ----------------------------------------------------------------------
# Replica placement
# ----------------------------------------------------------------------
class TestReplicaPlacement:
    def test_replicas_are_distinct_and_deterministic(self):
        from repro.core.sharded import _HashRing

        ring = _HashRing(range(5))
        options = SolveOptions()
        for seed in range(30):
            digest = request_digest(frozenset({seed, seed + 100}), options)
            replicas = ring.replicas(digest, 3)
            assert len(replicas) == len(set(replicas)) == 3
            assert replicas == ring.replicas(digest, 3)
            assert replicas[0] == ring.lookup(digest)

    def test_replication_one_routes_like_the_unreplicated_ring(self):
        graph = small_graph()
        with make_sharded(graph, n_shards=3) as plain:
            with make_sharded(graph, n_shards=3, replication=1) as replicated:
                for seed in range(20):
                    query = random.Random(seed).sample(
                        sorted(graph.nodes()), 3
                    )
                    assert plain.shard_of(query) == replicated.shard_of(query)

    def test_preferred_replicas_fan_out_across_the_group(self):
        # Distinct keys sharing a replica group must not all prefer the
        # same member — the digest rotation spreads the reads.
        graph = small_graph()
        rng = random.Random(5)
        with make_sharded(graph, n_shards=3, replication=3) as service:
            preferred = {
                service.shard_of(rng.sample(sorted(graph.nodes()), 3))
                for _ in range(40)
            }
        assert len(preferred) > 1

    def test_placement_ignores_liveness(self):
        graph = small_graph()
        with make_sharded(graph, n_shards=3, replication=2) as service:
            query = sorted(graph.nodes())[:3]
            before = service.shard_of(query)
            victim = service._shards[before]
            victim.process.terminate()
            victim.process.join(5.0)
            service.solve(query)  # fails over; placement must not move
            assert service.shard_of(query) == before

    def test_replication_must_fit_the_slot_count(self):
        with pytest.raises(ValueError, match="replication=3"):
            ShardedConnectorService(small_graph(), n_shards=2, replication=3)
        with pytest.raises(ValueError, match="at least 1"):
            ShardedConnectorService(small_graph(), n_shards=2, replication=0)


# ----------------------------------------------------------------------
# Chaos: kill / hang / partition one replica mid-stream
# ----------------------------------------------------------------------
class TestChaosKill:
    def test_killed_local_replica_fails_over_bit_identically(self):
        graph = small_graph(23)
        rng = random.Random(23)
        queries = random_query_batch(graph, rng, 40)
        reference = ConnectorService(graph)
        with make_sharded(graph, n_shards=3, replication=2) as service:
            victim = service._shards[0]

            def kill():
                time.sleep(0.05)
                victim.process.terminate()

            threading.Thread(target=kill, daemon=True).start()
            results = service.solve_many(queries)
            for query, result in zip(queries, results):
                assert_connector_identical(result, reference.solve(query))
            stats = service.stats()
            assert stats.shards_failed >= 1
            assert stats.replication == 2
        assert_no_orphan_processes()

    def test_ring_heals_and_counts_reconnects(self):
        graph = small_graph(29)
        queries = random_query_batch(graph, random.Random(29), 12)
        with make_sharded(graph, n_shards=3, replication=2) as service:
            service._shards[1].process.terminate()
            service._shards[1].process.join(5.0)
            results = service.solve_many(queries)  # suspect path: dead worker
            assert len(results) == len(queries)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = service.stats()  # stats() heals due slots too
                if not stats.dead_shards:
                    break
                time.sleep(0.05)
            assert stats.dead_shards == ()
            assert stats.reconnects >= 1
            assert stats.shards_failed >= 1
            assert not stats.degraded
            # The healed ring serves — and identically.
            reference = ConnectorService(graph)
            for query in queries[:3]:
                assert_connector_identical(
                    service.solve(query), reference.solve(query)
                )
        assert_no_orphan_processes()

    def test_replication_one_preserves_close_on_death(self):
        graph = small_graph(31)
        queries = random_query_batch(graph, random.Random(31), 30)
        service = make_sharded(graph, n_shards=2, replication=1)
        victim = service._shards[0]

        def kill():
            time.sleep(0.05)
            victim.process.terminate()

        threading.Thread(target=kill, daemon=True).start()
        with pytest.raises(RuntimeError, match="died|closed"):
            service.solve_many(queries)
        with pytest.raises(RuntimeError, match="closed"):
            service.solve_many(queries[:1])
        assert_no_orphan_processes()

    def test_zero_live_replicas_fails_the_batch_and_closes(self):
        graph = random_connected_graph(30, 0.12, 37)
        queries = random_query_batch(graph, random.Random(37), 20)
        service = None
        hosts = []
        try:
            services = [ConnectorService(graph) for _ in range(2)]
            hosts = [ShardHostServer(s).start() for s in services]
            specs = [f"127.0.0.1:{h.port}" for h in hosts]
            service = make_sharded(graph, shards=specs, replication=2)
            service.solve_many(queries[:2])  # the ring serves while whole
            # Take down *both* replicas of every key range: close the
            # listeners (so revival attempts are refused) and cut the
            # established links (in-process servers keep their handler
            # threads, unlike a killed daemon).
            for host in hosts:
                host.close()
            for transport in list(service._shards.values()):
                transport._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(RuntimeError, match="no live replicas"):
                service.solve_many(queries)
            # The replication>=2 contract only degrades to close-on-death
            # at zero live replicas — and then the service is closed.
            with pytest.raises(RuntimeError, match="closed"):
                service.solve_many(queries[:1])
        finally:
            if service is not None:
                service.close()
            for host in hosts:
                host.close()


class TestChaosRemote:
    def test_killed_daemon_fails_over_and_reconnects(self):
        # A mixed ring: one real daemon subprocess + two local shards.
        process, port = spawn_shard_host("email")
        service = None
        revived = None
        try:
            from repro.datasets import load_dataset

            graph = load_dataset("email")
            reference = ConnectorService(graph)
            rng = random.Random(41)
            queries = random_query_batch(graph, rng, 30)
            service = make_sharded(
                graph,
                shards=[f"127.0.0.1:{port}", "local", "local"],
                replication=2,
            )

            def kill():
                time.sleep(0.05)
                process.kill()

            threading.Thread(target=kill, daemon=True).start()
            results = service.solve_many(queries)
            process.communicate()
            for query, result in zip(queries, results):
                assert_connector_identical(result, reference.solve(query))
            stats = service.stats()
            assert stats.shards_failed >= 1

            # Heal: a fresh daemon on the same port lets the slot rejoin
            # through reconnect + the hello digest handshake.
            revived = ShardHostServer(
                ConnectorService(graph), "127.0.0.1", port
            ).start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = service.stats()
                if not stats.dead_shards:
                    break
                time.sleep(0.05)
            assert stats.dead_shards == ()
            assert stats.reconnects >= 1
            assert type(service._shards[0]) is RemoteShardTransport
            for query in queries[:2]:
                assert_connector_identical(
                    service.solve(query), reference.solve(query)
                )
        finally:
            if service is not None:
                service.close()
            if revived is not None:
                revived.close()
            process.kill()
            process.communicate()
        assert_no_orphan_processes()

    def test_sigstopped_daemon_is_probed_out_mid_batch(self):
        process, port = spawn_shard_host("email")
        service = None
        try:
            from repro.datasets import load_dataset

            graph = load_dataset("email")
            reference = ConnectorService(graph)
            queries = random_query_batch(graph, random.Random(43), 25)
            service = make_sharded(
                graph,
                shards=[f"127.0.0.1:{port}", "local", "local"],
                replication=2,
                liveness_deadline=1.0,
                probe_timeout=0.5,
            )

            def hang():
                time.sleep(0.05)
                os.kill(process.pid, signal.SIGSTOP)

            threading.Thread(target=hang, daemon=True).start()
            started = time.monotonic()
            results = service.solve_many(queries)
            elapsed = time.monotonic() - started
            for query, result in zip(queries, results):
                assert_connector_identical(result, reference.solve(query))
            # The hang was bounded by the liveness deadline, nowhere near
            # the ~60s TCP-keepalive bound it replaces.
            assert elapsed < 30.0
            assert service.stats().shards_failed >= 1
        finally:
            if service is not None:
                service.close()
            try:
                os.kill(process.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            process.kill()
            process.communicate()
        assert_no_orphan_processes()


class _PartitionProxy:
    """A TCP forwarder that can silently stop delivering (both ways).

    Models a network partition the way a router actually experiences it:
    sockets stay open, no FIN/RST arrives, bytes just stop — only an
    application-level liveness deadline can notice.
    """

    def __init__(self, upstream_port: int):
        self._upstream_port = upstream_port
        self.partitioned = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        try:
            while True:
                client, _ = self._listener.accept()
                if self.partitioned.is_set():
                    # New connections during the partition (liveness
                    # probes) connect but never hear back — exactly a
                    # SIGSTOP'd or blackholed peer.
                    continue
                upstream = socket.create_connection(
                    ("127.0.0.1", self._upstream_port)
                )
                for source, sink in ((client, upstream), (upstream, client)):
                    threading.Thread(
                        target=self._pump, args=(source, sink), daemon=True
                    ).start()
        except OSError:
            pass

    def _pump(self, source, sink):
        try:
            while True:
                chunk = source.recv(1 << 16)
                if not chunk:
                    break
                if self.partitioned.is_set():
                    continue  # swallow silently; never a FIN
                sink.sendall(chunk)
        except OSError:
            pass

    def close(self):
        self._listener.close()


class TestChaosPartition:
    def test_partitioned_replica_fails_over_bit_identically(self):
        graph = small_graph(47)
        reference = ConnectorService(graph)
        queries = random_query_batch(graph, random.Random(47), 25)
        upstream = ShardHostServer(ConnectorService(graph)).start()
        proxy = _PartitionProxy(upstream.port)
        service = None
        try:
            service = make_sharded(
                graph,
                shards=[f"127.0.0.1:{proxy.port}", "local", "local"],
                replication=2,
                liveness_deadline=1.0,
                probe_timeout=0.5,
            )

            def partition():
                time.sleep(0.05)
                proxy.partitioned.set()

            threading.Thread(target=partition, daemon=True).start()
            results = service.solve_many(queries)
            for query, result in zip(queries, results):
                assert_connector_identical(result, reference.solve(query))
            stats = service.stats()
            assert stats.shards_failed >= 1
        finally:
            if service is not None:
                service.close()
            proxy.close()
            upstream.close()
        assert_no_orphan_processes()


# ----------------------------------------------------------------------
# Heartbeats and suspects
# ----------------------------------------------------------------------
class TestHeartbeats:
    def test_idle_heartbeat_marks_a_dead_daemon_suspect(self):
        service = ConnectorService(small_graph())
        server = ShardHostServer(service).start()
        transport = RemoteShardTransport(
            0, "127.0.0.1", server.port,
            digest=service.index_digest(),
            heartbeat_interval=0.05,
            probe_timeout=0.5,
        )
        try:
            assert not transport.is_suspect()
            server.close()  # the daemon's listener is gone
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not transport.is_suspect():
                time.sleep(0.02)
            assert transport.is_suspect()
        finally:
            transport.stop()
            server.close()

    def test_router_confirms_suspects_before_scatter(self):
        # A child that died *between* batches is flagged (local suspicion
        # is process death) and taken out at the next batch boundary —
        # no in-flight sweeps ever touch it.
        graph = small_graph(53)
        reference = ConnectorService(graph)
        queries = random_query_batch(graph, random.Random(53), 10)
        with make_sharded(graph, n_shards=3, replication=2) as service:
            victim = service._shards[2]
            victim.process.terminate()
            victim.process.join(5.0)
            assert victim.is_suspect()
            results = service.solve_many(queries)
            for query, result in zip(queries, results):
                assert_connector_identical(result, reference.solve(query))
            assert service._failovers == 0  # caught before dispatch
        assert_no_orphan_processes()

    def test_probe_answers_do_not_kill_a_live_replica(self):
        service = ConnectorService(small_graph())
        with ShardHostServer(service) as server:
            transport = RemoteShardTransport(
                0, "127.0.0.1", server.port, digest=service.index_digest()
            )
            try:
                assert transport.probe(2.0)
            finally:
                transport.stop()


# ----------------------------------------------------------------------
# Rolling replace / resize
# ----------------------------------------------------------------------
class TestRollingReplace:
    def test_replace_shard_swaps_one_slot_in_place(self):
        graph = small_graph(59)
        reference = ConnectorService(graph)
        queries = random_query_batch(graph, random.Random(59), 8)
        with make_sharded(graph, n_shards=3, replication=2) as service:
            service.solve_many(queries)
            ring_before = service._ring
            keeper = service._shards[1]
            old_pid = service._shards[0].process.pid
            service.replace_shard(0, "local")
            assert service._ring is ring_before  # placement untouched
            assert service._shards[1] is keeper  # other slots untouched
            assert service._shards[0].process.pid != old_pid
            results = service.solve_many(queries)
            for query, result in zip(queries, results):
                assert_connector_identical(result, reference.solve(query))
        assert_no_orphan_processes()

    def test_replace_shard_rejects_unknown_slots(self):
        with make_sharded(small_graph(), n_shards=2) as service:
            with pytest.raises(ValueError, match="no shard slot 7"):
                service.replace_shard(7, "local")

    def test_failed_replacement_leaves_the_old_shard_serving(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        graph = small_graph(61)
        with make_sharded(graph, n_shards=2) as service:
            survivor = service._shards[0]
            with pytest.raises(ShardConnectError):
                service.replace_shard(0, f"127.0.0.1:{dead_port}")
            assert service._shards[0] is survivor
            assert service.solve(sorted(graph.nodes())[:2]) is not None
        assert_no_orphan_processes()

    def test_rolling_resize_diffs_against_current_specs(self):
        graph = small_graph(67)
        service_b = ConnectorService(graph)
        with ShardHostServer(service_b) as server:
            with make_sharded(graph, n_shards=3) as service:
                keeper_one = service._shards[1]
                keeper_two = service._shards[2]
                ring_before = service._ring
                service.resize(
                    [f"127.0.0.1:{server.port}", "local", "local"]
                )
                assert service._ring is ring_before  # same slot count
                assert service._shards[1] is keeper_one
                assert service._shards[2] is keeper_two
                assert type(service._shards[0]) is RemoteShardTransport
                service.resize(["local", "local", "local"])
                assert service._shards[1] is keeper_one
        assert_no_orphan_processes()

    def test_resize_to_identical_specs_is_a_true_noop(self):
        with make_sharded(small_graph(), n_shards=2) as service:
            ring = service._ring
            transports = dict(service._shards)
            service.resize(["local", "local"])
            assert service._ring is ring
            assert dict(service._shards) == transports

    def test_replace_while_degraded_revives_the_slot(self):
        graph = small_graph(71)
        with make_sharded(
            graph,
            n_shards=3,
            replication=2,
            backoff=BackoffPolicy(base_delay=60.0, max_delay=60.0, jitter=0.0),
        ) as service:
            victim = service._shards[0]
            victim.process.terminate()
            victim.process.join(5.0)
            service.solve_many(random_query_batch(graph, random.Random(71), 6))
            assert 0 in service.dead_shards
            # The operator's fast path around the 60s backoff timer.
            service.replace_shard(0, "local")
            assert service.dead_shards == ()
            assert service.stats().dead_shards == ()
        assert_no_orphan_processes()


# ----------------------------------------------------------------------
# Degraded-mode surface
# ----------------------------------------------------------------------
class TestServiceHealth:
    def test_no_stats_is_healthy(self):
        assert service_health(None) == {"status": "ok", "degraded": False}

    def test_plain_service_stats_is_healthy(self):
        health = service_health(ConnectorService(small_graph()).stats())
        assert health["status"] == "ok"
        assert "replication" not in health

    def test_sharded_stats_surface_the_ring_picture(self):
        with make_sharded(small_graph(), n_shards=2, replication=2) as service:
            health = service_health(service.stats())
            assert health == {
                "status": "ok",
                "degraded": False,
                "replication": 2,
                "dead_shards": [],
                "failovers": 0,
                "reconnects": 0,
                "shards_failed": 0,
            }

    def test_dead_slot_reads_as_degraded(self):
        graph = small_graph(73)
        with make_sharded(
            graph,
            n_shards=2,
            replication=2,
            backoff=BackoffPolicy(base_delay=60.0, max_delay=60.0, jitter=0.0),
        ) as service:
            service._shards[1].process.terminate()
            service._shards[1].process.join(5.0)
            service.solve(sorted(graph.nodes())[:2])
            health = service_health(service.stats())
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["dead_shards"] == [1]
            assert health["shards_failed"] == 1


# ----------------------------------------------------------------------
# Bounded teardown against a hung daemon (the SIGSTOP regression)
# ----------------------------------------------------------------------
class TestStopTimeouts:
    def test_stop_and_shutdown_are_bounded_against_a_hung_daemon(self):
        process, port = spawn_shard_host("email")
        try:
            from repro.datasets import load_dataset

            digest = ConnectorService(load_dataset("email")).index_digest()
            transport = RemoteShardTransport(
                0, "127.0.0.1", port, digest=digest
            )
            os.kill(process.pid, signal.SIGSTOP)

            started = time.monotonic()
            transport.stop()
            assert time.monotonic() - started < 8.0

            started = time.monotonic()
            assert shutdown_shard_host("127.0.0.1", port, timeout=1.0) is False
            assert time.monotonic() - started < 5.0

            started = time.monotonic()
            with pytest.raises(ShardConnectError):
                ping_shard_host("127.0.0.1", port, timeout=1.0)
            assert time.monotonic() - started < 5.0
        finally:
            try:
                os.kill(process.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            process.kill()
            process.communicate()
