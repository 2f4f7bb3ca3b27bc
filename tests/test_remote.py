"""Property/fuzz tests for the remote shard transport.

The contract under test is the same identity contract
``tests/test_sharded.py`` pins for local shards, now over TCP:
a :class:`ShardedConnectorService` routing across ``repro shard-host``
daemons — all-remote or mixed with local shards — returns
*bit-identical* connectors to the one-shot ``wiener_steiner`` and to a
single in-process :class:`ConnectorService`, cold and warm.  Alongside
it: the connect-time graph-digest handshake, the wire protocol's
error paths, failure semantics when a shard host is killed mid-stream,
and the ``repro shard-host`` CLI as a real subprocess.
"""

import io
import os
import random
import re
import socket
import subprocess
import sys
import time

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
    shard_hosts,
    spawn_shard_host,
)
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.sharded import (
    ShardTransportError,
    ShardedConnectorService,
    normalize_shard_spec,
)
from repro.core.wiener_steiner import wiener_steiner
from repro.errors import DisconnectedGraphError
from repro.graphs.graph import Graph
from repro.serving.pickled import encode_pickled
from repro.serving.protocol import decode_line, encode_line
from repro.serving.remote import (
    LocalShardTransport,
    RemoteShardTransport,
    ShardHostServer,
    shutdown_shard_host,
)


def raw_request(port: int, *lines: bytes, reply_count: int | None = None):
    """Send raw lines to a shard host and collect one reply per line."""
    expected = reply_count if reply_count is not None else len(lines)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for line in lines:
            sock.sendall(line)
        handle = sock.makefile("rb")
        return [decode_line(handle.readline()) for _ in range(expected)]


class TestShardSpecs:
    def test_normalize_accepts_local_and_host_port(self):
        assert normalize_shard_spec("local") == "local"
        assert normalize_shard_spec(" 10.0.0.5:8766 ") == ("10.0.0.5", 8766)

    @pytest.mark.parametrize("bad", [
        "", "   ", 7, None, "justahost", ":8766", "host:", "host:abc",
        "host:0", "host:70000",
    ])
    def test_normalize_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            normalize_shard_spec(bad)

    def test_constructor_rejects_spec_count_conflict_and_empty(self):
        g = random_connected_graph(12, 0.3, 1)
        with pytest.raises(ValueError, match="not both"):
            ShardedConnectorService(g, n_shards=2, shards=["local"])
        with pytest.raises(ValueError, match="at least one"):
            ShardedConnectorService(g, shards=[])
        assert_no_orphan_processes()


class TestRemoteIdentity:
    @pytest.mark.parametrize("topology", ["remote", "mixed"])
    def test_fuzz_matches_one_shot_and_single_service(self, topology):
        """The headline fuzz, over sockets: random corpora × random
        batches, all-remote and mixed local+remote rings, checked against
        both references — cold and warm."""
        rng = random.Random(2026)
        for seed in range(2):
            g = random_connected_graph(rng.randint(26, 48), 0.1, seed + 91)
            batch = random_query_batch(g, rng, 4, lo=2, hi=5)
            batch.append(batch[0])  # an in-flight duplicate
            single = ConnectorService(g)
            with shard_hosts(g, 2) as addresses:
                specs = (
                    addresses if topology == "remote"
                    else [addresses[0], "local"]
                )
                with ShardedConnectorService(g, shards=specs) as sharded:
                    assert sharded.n_shards == 2
                    for round_name in ("cold", "warm"):
                        results = sharded.solve_many(batch)
                        references = single.solve_many(batch)
                        assert len(results) == len(batch)
                        for query, result, reference in zip(
                            batch, results, references
                        ):
                            assert_connector_identical(result, reference)
                            assert_connector_identical(
                                result, wiener_steiner(g, query)
                            )
                            assert result.metadata["sharded"] is True
                            assert result.metadata["shards"] == 2
                            # One wire: nothing tags which kind answered.
                            assert "transport" not in result.metadata
        assert_no_orphan_processes()

    def test_order_preserved_and_inflight_deduped_over_sockets(self):
        g = random_connected_graph(36, 0.1, 17)
        rng = random.Random(17)
        q1, q2, q3 = random_query_batch(g, rng, 3)
        batch = [q1, q2, q1, q3, q1]
        with shard_hosts(g, 2) as addresses:
            with ShardedConnectorService(g, shards=addresses) as sharded:
                results = sharded.solve_many(batch)
                assert [sorted(r.query) for r in results] == [
                    sorted(set(q)) for q in batch
                ]
                assert results[2] is results[0]
                assert results[4] is results[0]
                stats = sharded.stats()
                assert stats.requests_routed == 3
                assert stats.inflight_deduped == 2

    def test_large_batch_interleaves_drain_with_scatter(self):
        """The TCP path obeys the same in-flight cap as local shards: far more
        distinct keys than MAX_INFLIGHT_PER_SHARD, cold then warm, without
        deadlocking on either side's buffers."""
        n = 120
        g = Graph([(i, i + 1) for i in range(n - 1)])
        queries = [[i, i + 1] for i in range(n - 1)]
        with shard_hosts(g, 2) as addresses:
            with ShardedConnectorService(g, shards=addresses) as sharded:
                assert len(queries) > 3 * sharded.MAX_INFLIGHT_PER_SHARD
                cold = sharded.solve_many(queries)
                warm = sharded.solve_many(queries * 2)
        for query, result in zip(queries, cold):
            assert result.nodes == frozenset(query)
        assert [r.nodes for r in warm] == [r.nodes for r in cold] * 2

    def test_ring_placement_matches_local_ring(self):
        """Ring placement depends only on the slot count, never the
        transport, so a remote ring serves exactly the keys a local ring
        would — cache affinity survives a migration to sockets."""
        g = random_connected_graph(30, 0.12, 23)
        rng = random.Random(23)
        batch = random_query_batch(g, rng, 6)
        with shard_hosts(g, 2) as addresses:
            with ShardedConnectorService(g, shards=addresses) as remote, \
                    ShardedConnectorService(g, n_shards=2) as local:
                for query in batch:
                    assert remote.shard_of(query) == local.shard_of(query)

    def test_warm_reasks_hit_shard_host_caches(self):
        g = random_connected_graph(32, 0.1, 29)
        rng = random.Random(29)
        batch = random_query_batch(g, rng, 3)
        with shard_hosts(g, 2) as addresses:
            with ShardedConnectorService(g, shards=addresses) as sharded:
                sharded.solve_many(batch)
                sharded.solve_many(batch)
                stats = sharded.stats()
                assert stats.result_hits == len(batch)

    def test_resize_grows_remote_ring_with_local_shards(self):
        g = random_connected_graph(30, 0.12, 31)
        rng = random.Random(31)
        batch = random_query_batch(g, rng, 3)
        with shard_hosts(g, 1) as addresses:
            with ShardedConnectorService(g, shards=addresses) as sharded:
                before = sharded.solve_many(batch)
                sharded.resize(3)
                assert [type(t) for t in sharded._shards.values()] == [
                    RemoteShardTransport,
                    LocalShardTransport,
                    LocalShardTransport,
                ]
                after = sharded.solve_many(batch)
                for result, reference in zip(after, before):
                    assert_connector_identical(result, reference)
                sharded.resize(1)
                assert [type(t) for t in sharded._shards.values()] == [
                    RemoteShardTransport
                ]
                final = sharded.solve_many(batch)
                for result, reference in zip(final, before):
                    assert_connector_identical(result, reference)
        assert_no_orphan_processes()

    def test_request_fault_fails_request_not_shard_host(self):
        """A query spanning components blows up inside the daemon's sweep;
        the original exception type crosses the wire and the host keeps
        serving the next batch."""
        g = Graph([(0, 1), (1, 2), (2, 3), (10, 11), (11, 12)])
        with shard_hosts(g, 2) as addresses:
            with ShardedConnectorService(g, shards=addresses) as sharded:
                with pytest.raises(DisconnectedGraphError):
                    sharded.solve_many([[0, 3], [0, 11]])
                [result] = sharded.solve_many([[0, 3]])
                assert_connector_identical(result, wiener_steiner(g, [0, 3]))


class TestHandshake:
    def test_digest_mismatch_is_refused_before_any_routing(self):
        g = random_connected_graph(24, 0.15, 37)
        other = random_connected_graph(25, 0.15, 38)
        with shard_hosts(g, 1) as addresses:
            with pytest.raises(RuntimeError, match="digest mismatch"):
                ShardedConnectorService(other, shards=addresses)
            # the refused router spawned nothing and the host still serves
            with ShardedConnectorService(g, shards=addresses) as sharded:
                [result] = sharded.solve_many([sorted(g.nodes())[:3]])
                assert_connector_identical(
                    result, wiener_steiner(g, sorted(g.nodes())[:3])
                )
        assert_no_orphan_processes()

    def test_mismatch_mid_build_reaps_earlier_shards(self):
        """A refused handshake on shard 2 must not leak the local worker
        already spawned for shard 1."""
        g = random_connected_graph(24, 0.15, 41)
        other = random_connected_graph(26, 0.15, 42)
        with shard_hosts(other, 1) as addresses:
            with pytest.raises(RuntimeError, match="digest mismatch"):
                ShardedConnectorService(g, shards=["local", addresses[0]])
        assert_no_orphan_processes()

    def test_unreachable_host_fails_topology_build(self):
        g = random_connected_graph(16, 0.25, 43)
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))  # bound but never listening
        port = blocker.getsockname()[1]
        try:
            blocker.close()  # freed: connecting now gets ECONNREFUSED
            with pytest.raises(ShardTransportError, match="cannot connect"):
                ShardedConnectorService(g, shards=[f"127.0.0.1:{port}"])
        finally:
            pass
        assert_no_orphan_processes()

    def test_non_protocol_peer_fails_topology_build_cleanly(self):
        """Pointing --shards at something that is not a shard host (an
        HTTP server, say) is a broken-link topology error the CLI can
        report — never a raw JSON traceback."""
        import threading

        g = random_connected_graph(16, 0.25, 44)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.settimeout(10)

        def http_peer():
            conn, _ = listener.accept()
            conn.recv(1 << 16)
            conn.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            conn.close()

        thread = threading.Thread(target=http_peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(ShardTransportError, match="non-protocol"):
                ShardedConnectorService(g, shards=[f"127.0.0.1:{port}"])
            thread.join(timeout=10)
        finally:
            listener.close()
        assert_no_orphan_processes()

    def test_index_digest_is_content_stable(self):
        g = random_connected_graph(30, 0.12, 47)
        twin = Graph(sorted(g.edges(), reverse=True))
        assert (
            ConnectorService(g).index_digest()
            == ConnectorService(twin).index_digest()
        )
        different = random_connected_graph(30, 0.12, 48)
        assert (
            ConnectorService(g).index_digest()
            != ConnectorService(different).index_digest()
        )


class TestShardHostProtocol:
    """The shard host's wire-level behavior over a live socket."""

    def test_ping_stats_and_unknown_op(self):
        g = random_connected_graph(20, 0.2, 53)
        with ShardHostServer(ConnectorService(g)) as host:
            pong, stats, unknown = raw_request(
                host.port,
                encode_line({"op": "ping", "id": 1}),
                encode_line({"op": "stats", "id": 2}),
                encode_line({"op": "explode", "id": 3}),
            )
            assert pong == {"ok": True, "pong": True, "id": 1}
            assert stats["ok"] is True and stats["id"] == 2
            assert stats["stats"]["queries_served"] == 0
            assert unknown["ok"] is False and unknown["id"] == 3
            assert "unknown op" in unknown["error"]

    def test_malformed_line_and_missing_id_keep_connection_alive(self):
        g = random_connected_graph(20, 0.2, 59)
        with ShardHostServer(ConnectorService(g)) as host:
            garbage, anonymous, pong = raw_request(
                host.port,
                b"not json at all\n",
                encode_line({"op": "ping"}),  # no id: echoed back as null
                encode_line({"op": "ping", "id": 9}),
            )
            assert garbage["ok"] is False
            assert garbage["id"] is None
            assert anonymous["ok"] is True and anonymous["id"] is None
            assert pong == {"ok": True, "pong": True, "id": 9}

    def test_sweep_requires_a_successful_hello(self):
        """The digest check is enforced server-side per connection: a
        sweep before (or after a *failed*) hello is refused, a sweep after
        a successful hello on the same connection is served — and a
        refused sweep never kills the link."""
        g = random_connected_graph(20, 0.2, 61)
        service = ConnectorService(g)
        digest = service.index_digest()
        sweep_line = encode_line({
            "op": "sweep", "id": 5,
            "request": encode_pickled(
                (tuple(sorted(g.nodes())[:3]), SolveOptions())
            ),
        })
        with ShardHostServer(service) as host:
            refused, pong = raw_request(
                host.port, sweep_line, encode_line({"op": "ping", "id": 6})
            )
            assert refused["ok"] is False and refused["id"] == 5
            assert "hello" in refused["error"]
            assert pong["ok"] is True  # the connection survives
            bad_hello, still_refused = raw_request(
                host.port,
                encode_line({"op": "hello", "digest": "bogus", "id": 1}),
                sweep_line,
            )
            assert bad_hello["ok"] is False
            assert still_refused["ok"] is False
            assert "hello" in still_refused["error"]
            hello, served = raw_request(
                host.port,
                encode_line({"op": "hello", "digest": digest, "id": 1}),
                sweep_line,
            )
            assert hello["ok"] is True
            assert served["ok"] is True and served["id"] == 5

    def test_local_link_starts_handshaken_and_never_digests(self):
        """A local shard's link serves sweeps and mutates without a hello,
        and nothing on it computes the O(|E|) graph digest: only a hello
        asks for it."""
        g = random_connected_graph(20, 0.2, 63)
        service = ConnectorService(g)
        digests = []
        original = service.index_digest
        service.index_digest = lambda: digests.append(1) or original()
        u, v = next(
            (a, b) for a in sorted(g.nodes()) for b in sorted(g.nodes())
            if a < b and not g.has_edge(a, b)
        )
        rfile = io.BytesIO(
            encode_line({
                "op": "sweep", "id": 1, "epoch": 0,
                "request": encode_pickled(
                    (tuple(sorted(g.nodes())[:3]), SolveOptions())
                ),
            })
            + encode_line({"op": "mutate", "id": 2, "delta": {"insert": [[u, v]]}})
            + encode_line({"op": "hello", "digest": "bogus", "id": 3})
        )
        wfile = io.BytesIO()
        ShardHostServer(service).serve_connection(rfile, wfile, handshaken=True)
        swept, mutated, hello = map(decode_line, wfile.getvalue().splitlines())
        assert swept["ok"] is True and swept["epoch"] == 0
        assert mutated == {"ok": True, "epoch": 1, "id": 2}
        assert hello["ok"] is False
        assert digests == [1]  # the hello, and nothing before it

    def test_bad_sweep_payload_fails_request_only(self):
        g = random_connected_graph(20, 0.2, 67)
        service = ConnectorService(g)
        with ShardHostServer(service) as host:
            hello, bad, pong = raw_request(
                host.port,
                encode_line({
                    "op": "hello", "digest": service.index_digest(), "id": 0,
                }),
                encode_line({"op": "sweep", "id": 1, "request": "@@not-b64@@"}),
                encode_line({"op": "ping", "id": 2}),
            )
            assert hello["ok"] is True
            assert bad["ok"] is False and bad["id"] == 1
            assert pong["ok"] is True

    def test_shutdown_helper_stops_host(self):
        g = random_connected_graph(16, 0.25, 71)
        host = ShardHostServer(ConnectorService(g)).start()
        port = host.port
        try:
            assert shutdown_shard_host("127.0.0.1", port) is True
            assert host.wait_shutdown(timeout=10)
        finally:
            host.close()
        assert shutdown_shard_host("127.0.0.1", port) is False  # already gone

    def test_shutdown_honored_even_if_peer_hangs_up(self):
        """An accepted shutdown must stop the daemon even when the ack
        cannot be delivered (the supervisor fired-and-forgot, or died
        right after asking) — same contract as the gateway server."""
        import struct

        g = random_connected_graph(16, 0.25, 77)
        host = ShardHostServer(ConnectorService(g)).start()
        try:
            sock = socket.create_connection(("127.0.0.1", host.port), timeout=10)
            sock.sendall(encode_line({"op": "shutdown", "id": 0}))
            # RST on close: the daemon's ack write fails instead of
            # draining into a closed-but-graceful socket.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            assert host.wait_shutdown(timeout=10)
        finally:
            host.close()

    def test_transport_rejects_protocol_violations(self):
        """A peer that answers the handshake but then talks garbage is a
        broken link, not a crash: ShardTransportError."""
        g = random_connected_graph(16, 0.25, 73)
        digest = ConnectorService(g).index_digest()
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        try:
            listener.settimeout(10)

            import threading

            def fake_host():
                conn, _ = listener.accept()
                conn.recv(1 << 16)  # swallow the hello
                conn.sendall(encode_line({"ok": True, "digest": digest, "id": None}))
                conn.recv(1 << 16)  # swallow the sweep
                conn.sendall(b'{"id": 0, "ok": true}\n')  # no payload
                time.sleep(0.5)
                conn.close()

            thread = threading.Thread(target=fake_host, daemon=True)
            thread.start()
            transport = RemoteShardTransport(
                0, "127.0.0.1", port, digest=digest
            )
            transport.submit(0, (1, 2), SolveOptions())
            deadline = time.monotonic() + 10
            with pytest.raises(ShardTransportError, match="unparsable"):
                while time.monotonic() < deadline:
                    if transport.drain():  # pragma: no cover - never ok
                        break
                    time.sleep(0.01)
            transport.stop()
            thread.join(timeout=10)
        finally:
            listener.close()


class TestKilledShardHost:
    def test_killed_host_fails_batch_with_one_clean_error(self):
        """The acceptance path: a shard-host daemon killed mid-stream
        fails the batch with one clean RuntimeError, the sharded service
        closes, and nothing is orphaned."""
        from repro.datasets import load_dataset

        graph = load_dataset("football")
        rng = random.Random(79)
        victim, victim_port = spawn_shard_host("football")
        survivor, survivor_port = spawn_shard_host("football")
        sharded = None
        try:
            sharded = ShardedConnectorService(
                graph,
                shards=[
                    f"127.0.0.1:{victim_port}",
                    f"127.0.0.1:{survivor_port}",
                ],
            )
            results = sharded.solve_many(random_query_batch(graph, rng, 2))
            assert len(results) == 2
            victim.kill()
            victim.wait(timeout=10)
            with pytest.raises(RuntimeError, match="died|closed"):
                for _ in range(20):  # whichever shard a key routes to
                    sharded.solve_many(random_query_batch(graph, rng, 3))
            with pytest.raises(RuntimeError, match="closed"):
                sharded.solve(sorted(graph.nodes())[:2])
            assert sharded._closed
        finally:
            if sharded is not None:
                sharded.close()
            for process in (victim, survivor):
                if process.poll() is None:
                    process.kill()
                process.communicate()
        assert_no_orphan_processes()

    def test_shard_host_cli_round_trip_and_remote_shutdown(self):
        """`repro shard-host` end to end: serve a router, then exit 0 on
        the shutdown op with clean output."""
        from repro.datasets import load_dataset

        graph = load_dataset("football")
        process, port = spawn_shard_host("football")
        try:
            with ShardedConnectorService(
                graph, shards=[f"127.0.0.1:{port}"]
            ) as sharded:
                [result] = sharded.solve_many([[0, 1, 2]])
                assert_connector_identical(
                    result, wiener_steiner(graph, [0, 1, 2])
                )
            assert shutdown_shard_host("127.0.0.1", port) is True
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert stderr == ""
        assert "shutdown requested" in stdout
        assert "served 1 sweeps" in stdout
        assert_no_orphan_processes()


class TestServeComposition:
    def test_serve_fronts_remote_shard_host(self):
        """The whole tower: `repro serve` (AsyncGateway + TCP server) over
        `--shards host:port` — a gateway on one process fronting a shard
        replica in another, composed unchanged, identical answers, clean
        double shutdown."""
        import asyncio

        from repro.datasets import load_dataset
        from repro.serving.server import AsyncConnectorClient

        graph = load_dataset("football")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        host_proc, host_port = spawn_shard_host("football")
        serve_proc = None
        try:
            serve_proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "football",
                 "--port", "0", "--shards", f"127.0.0.1:{host_port}",
                 "--max-wait-ms", "1.0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            serve_port = None
            for line in serve_proc.stdout:
                match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
                if match:
                    serve_port = int(match.group(1))
                    break
            assert serve_port is not None, "repro serve never printed its port"

            async def drive():
                async with await AsyncConnectorClient.connect(
                    port=serve_port
                ) as client:
                    document = await client.solve([0, 1, 2])
                    await client.shutdown_server()
                    return document

            document = asyncio.run(asyncio.wait_for(drive(), timeout=60))
            stdout, stderr = serve_proc.communicate(timeout=30)
            assert serve_proc.returncode == 0, stderr
            assert stderr == ""
            reference = wiener_steiner(graph, [0, 1, 2])
            assert set(document["nodes"]) == set(reference.nodes)
            assert document["metadata"]["root"] == reference.metadata["root"]

            assert shutdown_shard_host("127.0.0.1", host_port) is True
            host_out, host_err = host_proc.communicate(timeout=30)
            assert host_proc.returncode == 0, host_err
            assert "served 1 sweeps" in host_out
        finally:
            for process in (host_proc, serve_proc):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.communicate()
        assert_no_orphan_processes()


class TestShardHostCLIValidation:
    def test_bad_port_rejected(self, capsys):
        from repro.cli import main

        assert main(["shard-host", "football", "--port", "-1"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_bind_failure_reported_cleanly(self, capsys):
        from repro.cli import main

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            assert main(["shard-host", "football", "--port", str(port)]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()
