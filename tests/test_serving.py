"""Round-trip tests for the JSON-lines TCP server and its client.

Three layers: the wire-format helpers of :mod:`repro.serving.protocol`,
an in-process :class:`GatewayServer` round trip (identity against
one-shot solves, control ops, per-request error isolation, clean
teardown of a sharded backing service), and the ``repro serve`` CLI as a
real subprocess driven by the async client — the acceptance path: start,
answer, shut down with no orphaned shard processes.
"""

import asyncio
import json
import os
import re
import subprocess
import sys

import pytest

from helpers import (
    assert_no_orphan_processes,
    random_connected_graph,
)
from repro.core.gateway import AsyncGateway
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService
from repro.core.wiener_steiner import wiener_steiner
from repro.serving.protocol import (
    canonical_sort,
    decode_line,
    encode_line,
    options_from_payload,
    result_to_payload,
)
from repro.serving.server import (
    AsyncConnectorClient,
    GatewayServer,
    ServerError,
)


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=60))


class _FakeResult:
    """The minimal surface ``result_to_payload`` serializes."""

    def __init__(self, nodes):
        self.query = nodes
        self.nodes = nodes
        self.added_nodes = frozenset()
        self.size = len(nodes)
        self.wiener_index = 1.0
        self.density = 1.0
        self.method = "fake"
        self.metadata = {}


class TestProtocol:
    def test_canonical_sort_numeric_and_mixed(self):
        assert canonical_sort([10, 2, 1]) == [1, 2, 10]
        # Mixed types group by type name, then repr — deterministic, and
        # homogeneous numeric labels never fall into repr order.
        assert canonical_sort(["b", 2, "a"]) == [2, "a", "b"]

    def test_options_round_trip(self):
        options = SolveOptions(beta=2.0, selection="wiener", roots=(3, 1))
        import dataclasses

        payload = json.loads(json.dumps(dataclasses.asdict(options)))
        assert options_from_payload(payload) == options

    def test_options_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown option fields"):
            options_from_payload({"bogus": 1})
        with pytest.raises(ValueError, match="JSON object"):
            options_from_payload([1, 2])

    def test_options_retired_fields_rejected(self):
        """There is one engine and no sweep pruning, so ``backend`` and
        ``prune`` are unknown fields now."""
        for payload in (
            {"backend": "auto"},
            {"backend": "csr"},
            {"backend": "dict"},
            {"prune": False},
        ):
            with pytest.raises(ValueError, match="unknown option fields"):
                options_from_payload(payload)

    def test_options_zero_lambda_rejected_at_parse_time(self):
        """A λ of 0 fails when the request is parsed, not mid-sweep."""
        with pytest.raises(ValueError, match="lambda"):
            options_from_payload({"lambda_values": [0]})

    def test_encode_decode_line(self):
        message = {"query": [1, 2], "id": 7}
        assert decode_line(encode_line(message)) == message
        with pytest.raises(ValueError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_result_payload_is_json_safe(self):
        graph = random_connected_graph(20, 0.2, seed=1)
        result = wiener_steiner(graph, sorted(graph.nodes())[:3])
        payload = result_to_payload(result)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["query"] == canonical_sort(result.query)
        assert round_tripped["nodes"] == canonical_sort(result.nodes)
        assert round_tripped["metadata"]["root"] == result.metadata["root"]


class TestGatewayServer:
    def test_round_trip_identity_and_control_ops(self):
        graph = random_connected_graph(30, 0.15, seed=2)
        queries = [sorted(graph.nodes())[i:i + 3] for i in (0, 4, 8, 0)]
        references = [wiener_steiner(graph, query) for query in queries]

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service, max_batch=8, max_wait_ms=2.0)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    client = await AsyncConnectorClient.connect(
                        port=server.port
                    )
                    async with client:
                        assert await client.ping()
                        documents = await asyncio.gather(
                            *(client.solve(query) for query in queries)
                        )
                        stats = await client.stats()
                return documents, stats
            finally:
                await gateway.aclose()

        documents, stats = run(scenario())
        for document, reference in zip(documents, references):
            assert document["nodes"] == canonical_sort(reference.nodes)
            assert document["metadata"]["root"] == reference.metadata["root"]
            assert document["metadata"]["lambda"] == reference.metadata["lambda"]
            assert (
                document["metadata"]["candidates"]
                == reference.metadata["candidates"]
            )
        assert stats["gateway"]["results_served"] == len(queries) - 1
        assert stats["gateway"]["coalesced"] >= 1  # the duplicate request
        assert stats["service"]["queries_served"] >= 3

    def test_request_errors_do_not_kill_the_connection(self):
        graph = random_connected_graph(20, 0.2, seed=3)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        with pytest.raises(ServerError) as missing:
                            await client.solve([987654])
                        with pytest.raises(ServerError) as bad_options:
                            await client.solve([0, 1], {"bogus": True})
                        # The raw envelope carries the failure markers.
                        empty = await client.request({"query": []})
                        assert empty["ok"] is False
                        assert empty["error_type"] == "ValueError"
                        unknown_op = await client.request({"op": "explode"})
                        assert unknown_op["ok"] is False
                        assert "unknown op" in unknown_op["error"]
                        # The connection still serves after four failures.
                        document = await client.solve(sorted(graph.nodes())[:2])
                        return missing.value, bad_options.value, document
            finally:
                await gateway.aclose()

        missing, bad_options, document = run(scenario())
        assert missing.error_type == "InvalidQueryError"
        assert bad_options.error_type == "ValueError"
        assert document["size"] >= 2

    def test_bad_query_in_shared_window_spares_concurrent_good_one(self):
        """The protocol promise: a request-level failure fails only that
        request — even when it shares a gateway window with valid ones."""
        graph = random_connected_graph(20, 0.2, seed=7)
        good_query = sorted(graph.nodes())[:3]

        async def scenario():
            service = ConnectorService(graph)
            # A wide, slow window so both requests land in the same one.
            gateway = AsyncGateway(service, max_batch=8, max_wait_ms=50.0)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        good, bad = await asyncio.gather(
                            client.solve(good_query),
                            client.solve([987654]),
                            return_exceptions=True,
                        )
                        return good, bad
            finally:
                await gateway.aclose()

        good, bad = run(scenario())
        assert isinstance(bad, ServerError)
        assert bad.error_type == "InvalidQueryError"
        assert not isinstance(good, Exception)
        reference = wiener_steiner(graph, good_query)
        assert good["nodes"] == canonical_sort(reference.nodes)

    def test_wire_error_paths_never_kill_the_connection(self):
        """The protocol's error contract over a *live* socket: a malformed
        JSON line, an unknown op, and a request missing its ``id`` each
        get an error (or ``id: null``) response, and the same connection
        keeps serving afterwards."""
        graph = random_connected_graph(18, 0.22, seed=12)
        good_query = sorted(graph.nodes())[:2]

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    try:
                        async def ask(raw: bytes) -> dict:
                            writer.write(raw)
                            await writer.drain()
                            return json.loads(await reader.readline())

                        malformed = await ask(b"this is not json\n")
                        unknown_op = await ask(b'{"op": "frobnicate", "id": 7}\n')
                        missing_id = await ask(b'{"op": "ping"}\n')
                        no_id_solve = await ask(
                            json.dumps({"query": good_query}).encode() + b"\n"
                        )
                        empty_object = await ask(b"{}\n")
                        survived = await ask(b'{"op": "ping", "id": 11}\n')
                        return (malformed, unknown_op, missing_id,
                                no_id_solve, empty_object, survived)
                    finally:
                        writer.close()
                        await writer.wait_closed()
            finally:
                await gateway.aclose()

        (malformed, unknown_op, missing_id, no_id_solve, empty_object,
         survived) = run(scenario())
        # a malformed line fails that request with a null id, not the link
        assert malformed["ok"] is False
        assert malformed["id"] is None
        assert malformed["error_type"] == "JSONDecodeError"
        # an unknown op echoes its id and names the valid ops
        assert unknown_op["ok"] is False
        assert unknown_op["id"] == 7
        assert "unknown op" in unknown_op["error"]
        # id is optional: an id-less control op succeeds with id null...
        assert missing_id["ok"] is True and missing_id["pong"] is True
        assert missing_id["id"] is None
        # ...and so does an id-less solve (the caller just can't pair it)
        assert no_id_solve["ok"] is True
        assert no_id_solve["id"] is None
        assert set(no_id_solve["result"]["query"]) == set(good_query)
        # an empty object is neither op nor solve: a per-request error
        assert empty_object["ok"] is False
        assert empty_object["id"] is None
        assert "query" in empty_object["error"]
        # after five abuses, the connection still serves
        assert survived == {"ok": True, "pong": True, "id": 11}

    def test_pipelining_cap_still_serves_everything(self):
        """max_pipelined throttles reads, it must never drop requests."""
        graph = random_connected_graph(18, 0.2, seed=11)
        nodes = sorted(graph.nodes())
        queries = [[nodes[i % 12], nodes[(i + 3) % 12]] for i in range(20)]

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service, max_batch=4, max_wait_ms=1.0)
            try:
                async with GatewayServer(
                    gateway, port=0, max_pipelined=3
                ) as server:
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        return await asyncio.gather(
                            *(client.solve(query) for query in queries)
                        )
            finally:
                await gateway.aclose()

        documents = run(scenario())
        assert len(documents) == len(queries)
        for query, document in zip(queries, documents):
            assert set(document["query"]) == set(query)

    def test_raw_request_needs_ok_checks(self):
        """client.request surfaces the raw envelope (ok flag + id echo)."""
        graph = random_connected_graph(16, 0.25, seed=4)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        response = await client.request(
                            {"query": sorted(graph.nodes())[:2]}
                        )
                        return response
            finally:
                await gateway.aclose()

        response = run(scenario())
        assert response["ok"] is True
        assert response["id"] == 0
        assert "result" in response

    def test_sharded_backing_service_round_trip_and_teardown(self):
        graph = random_connected_graph(24, 0.18, seed=5)
        queries = [sorted(graph.nodes())[i:i + 3] for i in (0, 3, 6)]
        references = [wiener_steiner(graph, query) for query in queries]

        async def scenario(service):
            gateway = AsyncGateway(service, max_batch=4, max_wait_ms=2.0)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        documents = await asyncio.gather(
                            *(client.solve(query) for query in queries)
                        )
                        await client.shutdown_server()
                    await server.wait_shutdown()
                    return documents
            finally:
                await gateway.aclose()

        with ShardedConnectorService(graph, n_shards=2) as service:
            documents = run(scenario(service))
        for document, reference in zip(documents, references):
            assert document["nodes"] == canonical_sort(reference.nodes)
            assert document["metadata"]["root"] == reference.metadata["root"]
        assert_no_orphan_processes()

    def test_shutdown_honored_even_if_peer_hangs_up(self):
        """An accepted shutdown must stop the daemon even when the ack
        cannot be delivered (the supervisor fired-and-forgot)."""
        graph = random_connected_graph(16, 0.25, seed=8)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(b'{"op": "shutdown"}\n')
                    await writer.drain()
                    writer.transport.abort()  # hang up without reading
                    await asyncio.wait_for(server.wait_shutdown(), timeout=10)
                    return True
            finally:
                await gateway.aclose()

        assert run(scenario())

    def test_restarted_server_does_not_inherit_old_shutdown(self):
        graph = random_connected_graph(16, 0.25, seed=9)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service)
            try:
                server = GatewayServer(gateway, port=0)
                async with server:
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        await client.shutdown_server()
                    await server.wait_shutdown()
                # Second run of the same object: the latched event from
                # run one must not make wait_shutdown fall through.
                async with server:
                    waiter = asyncio.ensure_future(server.wait_shutdown())
                    await asyncio.sleep(0.05)
                    assert not waiter.done()
                    async with await AsyncConnectorClient.connect(
                        port=server.port
                    ) as client:
                        document = await client.solve(sorted(graph.nodes())[:2])
                        await client.shutdown_server()
                    await asyncio.wait_for(waiter, timeout=10)
                    return document
            finally:
                await gateway.aclose()

        document = run(scenario())
        assert document["size"] >= 2

    def test_aclose_delivers_in_flight_responses_before_closing(self):
        """A request mid-solve when aclose() starts must still get its
        answer — the drain runs before transports are closed."""

        class SlowGateway:
            def __init__(self):
                self.release = asyncio.Event()

            async def asolve(self, query, options=None):
                await self.release.wait()
                return _FakeResult(frozenset(query))

        async def scenario():
            gateway = SlowGateway()
            async with GatewayServer(gateway, port=0) as server:
                client = await AsyncConnectorClient.connect(port=server.port)
                async with client:
                    pending = asyncio.ensure_future(client.solve([1, 2]))
                    await asyncio.sleep(0.02)  # request is in flight
                    closer = asyncio.ensure_future(server.aclose())
                    await asyncio.sleep(0.02)
                    assert not closer.done()  # blocked on the drain
                    gateway.release.set()
                    document = await asyncio.wait_for(pending, timeout=10)
                    await closer
                    return document

        document = run(scenario())
        assert set(document["nodes"]) == {1, 2}

    def test_shutdown_op_resolves_wait_shutdown(self):
        graph = random_connected_graph(16, 0.25, seed=6)

        async def scenario():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service)
            try:
                server = await GatewayServer(gateway, port=0).start()
                waiter = asyncio.ensure_future(server.wait_shutdown())
                async with await AsyncConnectorClient.connect(
                    port=server.port
                ) as client:
                    await client.shutdown_server()
                await asyncio.wait_for(waiter, timeout=10)
                await server.aclose()
                return True
            finally:
                await gateway.aclose()

        assert run(scenario())


class TestServeCLI:
    """The acceptance path: `repro serve` as a real subprocess."""

    def test_serve_round_trip_and_clean_shutdown(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "football",
                "--port", "0", "--shards", "2", "--max-wait-ms", "1.0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            port = None
            for line in process.stdout:
                match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "server never printed its port"

            async def drive():
                async with await AsyncConnectorClient.connect(
                    port=port
                ) as client:
                    document = await client.solve([0, 1, 2])
                    baseline = await client.solve([0, 1], {"method": "st"})
                    await client.shutdown_server()
                    return document, baseline

            document, baseline = run(drive())
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.communicate()

        assert process.returncode == 0, stderr
        assert stderr == ""
        assert "shutdown requested" in stdout
        assert document["query"] == [0, 1, 2]
        assert set(document["query"]) <= set(document["nodes"])
        assert baseline["method"] == "st"
        # The subprocess exited cleanly, so its shard children cannot have
        # survived it; also make sure *this* process leaked nothing.
        assert_no_orphan_processes()
