"""End-to-end tests for trace replay, SLO gating, and the recorder.

The full harness loop against an in-process tower: synthesize a trace →
replay it open-loop through a live :class:`GatewayServer` → check the
report (client latencies, server shed/coalesce deltas, the gateway's own
latency reservoir) → gate it with an SLO → spot-check replayed answers
bit-identical to one-shot solves.  The recording proxy closes the loop:
traffic recorded through it replays to the same answers.
"""

import asyncio
import random

import pytest

from helpers import assert_connector_identical, random_connected_graph
from repro.core.gateway import AsyncGateway, GatewayStats
from repro.core.service import ConnectorService
from repro.core.wiener_steiner import wiener_steiner
from repro.loadgen.replay import ReplayReport, percentile, replay_trace
from repro.loadgen.slo import SLO
from repro.loadgen.trace import RecordingProxy, Trace, TraceRecord, synthesize
from repro.serving.protocol import canonical_sort
from repro.serving.server import AsyncConnectorClient, GatewayServer
from repro.workloads import component_query


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


@pytest.fixture(scope="module")
def host_graph():
    return random_connected_graph(250, 0.03, seed=5)


@pytest.fixture(scope="module")
def trace(host_graph):
    rng = random.Random(0)
    pool = [tuple(component_query(host_graph, 4, rng)) for _ in range(6)]
    return synthesize(
        pool, 40, mean_gap_ms=4.0, zipf=1.2, burst_amplitude=0.5,
        burst_period_s=1.0, seed=3,
    )


async def _serve_and_replay(graph, trace, *, speed=8.0, keep_results=False):
    service = ConnectorService(graph)
    gateway = AsyncGateway(service, max_batch=8, max_wait_ms=1.0)
    try:
        async with GatewayServer(gateway, port=0) as server:
            report = await replay_trace(
                trace, server.host, server.port,
                speed=speed, keep_results=keep_results,
            )
        stats = gateway.stats()
    finally:
        await gateway.aclose()
    return report, stats


class TestPercentile:
    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0

    def test_empty_and_bounds(self):
        assert percentile([], 0.9) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestReplay:
    def test_full_loop_report(self, host_graph, trace):
        report, stats = run(_serve_and_replay(host_graph, trace))
        assert report.requests == len(trace)
        assert report.completed == report.requests
        assert report.errors == 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.throughput_rps > 0
        # The Zipf pool plus micro-batching must coalesce repeats.
        assert report.coalesced > 0
        assert 0 < report.coalesce_rate <= 1
        assert report.shed == 0 and report.shed_rate == 0.0
        # The server's stats payload rides along for deeper digging.
        assert "gateway" in report.server_stats

    def test_latency_reservoir_flows_through_stats(self, host_graph, trace):
        """Satellite: GatewayStats.percentile over the wire-visible
        reservoir tracks what the client measured."""
        report, stats = run(_serve_and_replay(host_graph, trace))
        assert stats.latency_samples
        assert len(stats.latency_samples) == stats.results_served
        server_p99_ms = stats.percentile(0.99) * 1000.0
        assert 0 < server_p99_ms <= report.p99_ms + 1.0
        # And the same samples arrive through the stats op as JSON.
        gateway_payload = report.server_stats["gateway"]
        assert len(gateway_payload["latency_samples"]) == stats.results_served

    def test_replayed_answers_bit_identical(self, host_graph, trace):
        """The identity contract holds under replayed load."""
        report, _ = run(
            _serve_and_replay(host_graph, trace, keep_results=True)
        )
        for record, payload in zip(trace.records, report.results):
            reference = wiener_steiner(host_graph, record.query)
            assert payload["nodes"] == canonical_sort(reference.nodes)
            assert payload["metadata"]["root"] == reference.metadata["root"]
            assert payload["wiener_index"] == reference.wiener_index

    def test_errors_counted_not_raised(self, host_graph):
        bad = Trace(
            (
                TraceRecord(0.0, (0, 1)),
                TraceRecord(0.0, (999999,)),  # unknown vertex
            )
        )
        report, _ = run(_serve_and_replay(host_graph, bad))
        assert report.completed == 1
        assert report.errors == 1
        assert report.error_messages
        assert report.error_rate == 0.5


class TestSlo:
    def test_evaluate_passing_and_failing(self, host_graph, trace):
        report, _ = run(_serve_and_replay(host_graph, trace))
        good = SLO(max_p99_ms=60_000.0, max_shed_rate=0.5,
                   max_error_rate=0.0, min_throughput_rps=0.001)
        verdict = good.evaluate(report)
        assert verdict.ok and not verdict.violations
        assert len(verdict.checks) == 4
        bad = SLO(max_p50_ms=1e-6, min_throughput_rps=1e9)
        verdict = bad.evaluate(report)
        assert not verdict.ok
        assert {c.name for c in verdict.violations} == {
            "max_p50_ms", "min_throughput_rps"
        }
        payload = verdict.to_payload()
        assert payload["ok"] is False and len(payload["checks"]) == 2

    def test_unset_bounds_not_checked(self):
        report = ReplayReport(
            requests=1, completed=1, errors=0, duration_s=1.0,
            p50_ms=5.0, p95_ms=5.0, p99_ms=5.0, shed=0, coalesced=0,
        )
        assert SLO().evaluate(report).ok
        assert SLO().evaluate(report).describe() == "no SLO bounds set"

    def test_from_payload_rejects_unknown_and_bad_types(self):
        with pytest.raises(ValueError):
            SLO.from_payload({"max_p9_ms": 1.0})
        with pytest.raises(ValueError):
            SLO.from_payload({"max_p50_ms": "fast"})
        with pytest.raises(ValueError):
            SLO.from_payload([1, 2])
        slo = SLO.from_payload({"max_p50_ms": 100, "max_shed_rate": None})
        assert slo.max_p50_ms == 100 and slo.max_shed_rate is None

    def test_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"max_p99_ms": 250.5}')
        assert SLO.from_file(path).max_p99_ms == 250.5


class TestRecordingProxy:
    def test_recorded_traffic_replays_identically(self, host_graph):
        rng = random.Random(1)
        queries = [tuple(component_query(host_graph, 4, rng))
                   for _ in range(4)]

        async def record_then_replay():
            service = ConnectorService(host_graph)
            gateway = AsyncGateway(service)
            try:
                async with GatewayServer(gateway, port=0) as server:
                    async with RecordingProxy(
                        server.host, server.port
                    ) as proxy:
                        client = await AsyncConnectorClient.connect(
                            proxy.host, proxy.port
                        )
                        async with client:
                            assert await client.ping()  # control: unrecorded
                            live = [
                                await client.solve(query)
                                for query in queries
                            ]
                        recorded = proxy.to_trace(meta={"case": "test"})
                    replayed = await replay_trace(
                        recorded, server.host, server.port,
                        speed=10.0, keep_results=True,
                    )
            finally:
                await gateway.aclose()
            return recorded, live, replayed

        recorded, live, replayed = run(record_then_replay())
        assert len(recorded) == len(queries)
        assert recorded.records[0].offset == 0.0
        assert recorded.meta["case"] == "test"
        assert [list(r.query) for r in recorded.records] == [
            list(q) for q in queries
        ]
        # Round trip: record -> save/load -> replay gives the live answers.
        reloaded = Trace.loads(recorded.dumps())
        assert reloaded.records == recorded.records
        assert replayed.completed == len(queries)
        for live_payload, replay_payload in zip(live, replayed.results):
            assert replay_payload["nodes"] == live_payload["nodes"]
            assert replay_payload["wiener_index"] == live_payload["wiener_index"]


class TestCsrOnlyTower:
    """The stream-construction path: no dict Graph anywhere in serving."""

    def test_csr_only_service_identical(self, host_graph):
        from repro.graphs.csr import CSRGraph

        csr = CSRGraph.from_graph(host_graph)
        query = frozenset(component_query(host_graph, 4, random.Random(2)))
        reference = ConnectorService(host_graph).solve(query)
        bare = ConnectorService(None, csr=csr).solve(query)
        assert_connector_identical(bare, reference)
        assert bare.subgraph == host_graph.subgraph(bare.nodes)
        assert bare.wiener_index == reference.wiener_index
        assert bare.density == reference.density

    def test_one_shot_accepts_csr(self, host_graph):
        from repro.graphs.csr import CSRGraph

        csr = CSRGraph.from_graph(host_graph)
        query = frozenset(component_query(host_graph, 4, random.Random(3)))
        assert_connector_identical(
            wiener_steiner(csr, query), wiener_steiner(host_graph, query)
        )
