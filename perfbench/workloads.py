"""The benchmark's workloads: set-up, timed region, correctness gate.

Each ``run_*`` returns an :class:`Outcome` holding every end-to-end
metric (untraced run) or every per-layer metric (traced run), plus the
operation counts.  A traced tower run serves ``seconds / 2`` untraced,
then ``seconds`` traced, and the difference of the two
``latency_p50_ms`` values is the tracing overhead; a traced cold-sweep
run solves every query twice, once traced, and takes the paired
difference.

Correctness is checked after the timed region: answers are compared bit
for bit (vertex set, root, λ, candidate count) with a cold one-shot
``wiener_steiner`` on the same graph version, and every repeat of a query
within one graph version must return the same answer.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import driver, inputs, layers
from perfbench.metrics import PER_LAYER, percentile
from perfbench.trace import ShardCollector

from repro.core.gateway import AsyncGateway
from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService
from repro.core.wiener_steiner import wiener_steiner
from repro.serving.protocol import canonical_sort
from repro.serving.server import AsyncConnectorClient, GatewayServer, ServerError


@dataclass(frozen=True)
class Scale:
    """Instance and load sizes; :data:`TINY` is the self-check scale."""

    ba_nodes: int = 100_000
    er_nodes: int = 10_000
    er_edges: int = 50_000
    cold_query_size: int = 5
    tower_query_size: int = 4
    shards: int = 2
    hot_pool: int = 16
    hot_rates: tuple = (200.0, 800.0)
    mix_pool: int = 24
    mix_window: int = 16
    delta_ops: int = 8
    zipf: float = 1.1
    setups: int = 3
    max_batch: int = 32
    max_wait_ms: float = 5.0
    hot_checks: int = 4
    mix_checks_per_round: int = 2


#: The graphs and the tower's query pool are fixed reference instances;
#: the run seed draws the request stream, the cold queries and the deltas.
INSTANCE_SEED = 20150531

FULL = Scale()
TINY = Scale(
    ba_nodes=2_000, er_nodes=400, er_edges=1_600, hot_pool=6, mix_pool=6,
    mix_window=6, delta_ops=4, setups=2, hot_checks=2, mix_checks_per_round=1,
)


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    spans: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _repeat_mismatches(samples) -> int:
    """Replies that differ from the first reply to the same query."""
    first: dict[frozenset, tuple] = {}
    mismatches = 0
    for sample in samples:
        if sample.answer is not None:
            first_answer = first.setdefault(frozenset(sample.query), sample.answer)
            mismatches += first_answer != sample.answer
    return mismatches


def _layer_defaults() -> dict:
    return {name: 0.0 for name in PER_LAYER}


# ---------------------------------------------------------------------------
# cold-sweep: in-process ConnectorService, every query distinct and cold
# ---------------------------------------------------------------------------
def _closed_e2e(setup_times, latencies, elapsed, peak_rss_mb) -> dict:
    """End-to-end metrics of a closed loop that ran ``elapsed`` seconds."""
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "throughput_qps": len(latencies) / elapsed,
        "peak_rss_mb": peak_rss_mb,
    }


def _closed_loop(service, queries, seconds: float):
    """Solve queries one after another until ``seconds`` have passed.

    Also returns the peak RSS after the first query: later queries add
    cached roots, and how many fit in the run depends on machine speed.
    """
    latencies, answered = [], []
    start = time.monotonic()
    while not latencies or time.monotonic() - start < seconds:
        query = next(queries)
        latency, result = _timed_solve(service, query)
        if not latencies:
            first_rss = _peak_rss_mb()
        latencies.append(latency)
        answered.append((query, result))
    return latencies, answered, time.monotonic() - start, first_rss


def _timed_solve(service, query):
    started = time.monotonic()
    result = service.solve(query)
    return time.monotonic() - started, result


def _traced_solve(tracer, service, query):
    tracer.install()
    try:
        return _timed_solve(service, query)
    finally:
        tracer.uninstall()


def run_cold(seed: int, seconds: float, trace: bool, scale: Scale = FULL,
             out_dir: Path | None = None) -> Outcome:
    setup_times = []
    service = csr = None
    for _ in range(1 if trace else scale.setups):
        service = csr = None
        gc.collect()
        started = time.monotonic()
        csr = inputs.ba_csr(scale.ba_nodes, 2, INSTANCE_SEED)
        service = ConnectorService(None, csr=csr)
        setup_times.append(time.monotonic() - started)
    queries = inputs.distinct_queries(
        scale.ba_nodes, scale.cold_query_size, random.Random(seed)
    )
    notes = []
    failed = 0
    if not trace:
        latencies, answered, elapsed, rss = _closed_loop(service, queries, seconds)
        metrics = _closed_e2e(setup_times, latencies, elapsed, rss)
        spans = []
    else:
        # Each query is solved cold twice, untraced and traced, on two
        # services over the same arrays: the paired difference is the
        # tracing overhead, free of query-to-query variation.
        tracer = layers.build_tracer()
        traced_service = ConnectorService(None, csr=csr)
        before = layers.counters(traced_service.stats())
        answered, overheads = [], []
        lag = 0.0
        start = previous = time.monotonic()
        while not overheads or previous - start < seconds:
            query = next(queries)
            lag = max(lag, time.monotonic() - previous)
            if len(overheads) % 2:  # alternate which solve goes first
                traced_s, traced = _traced_solve(tracer, traced_service, query)
                plain_s, plain = _timed_solve(service, query)
            else:
                plain_s, plain = _timed_solve(service, query)
                traced_s, traced = _traced_solve(tracer, traced_service, query)
            previous = time.monotonic()
            overheads.append(traced_s - plain_s)
            answered.append((query, plain))
            if traced.nodes != plain.nodes:
                failed += 1
                notes.append(f"traced answer for {query} differs from untraced")
        spans = tracer.spans
        metrics = _layer_defaults()
        metrics.update(layers.span_metrics(spans))
        metrics.update(
            layers.stats_metrics(before, layers.counters(traced_service.stats()))
        )
        metrics.update(layers.memory_metrics([layers.cache_bytes(traced_service)]))
        metrics["driver.lag_ms_max"] = lag * 1e3
        metrics["trace.overhead_ms"] = statistics.median(overheads) * 1e3
        if metrics["trace.stage_coverage"] < 0.9:
            notes.append(
                f"named stages cover only {metrics['trace.stage_coverage']:.1%} "
                "of traced sweep time"
            )
    query, result = answered[0]
    reference = wiener_steiner(csr, query)
    if not (
        result.nodes == reference.nodes
        and all(
            result.metadata.get(key) == reference.metadata.get(key)
            for key in ("root", "lambda", "candidates")
        )
    ):
        failed += 1
        notes.append(f"cold-sweep answer for {query} differs from one-shot")
    return Outcome(metrics, len(answered), failed, failed == 0, spans, notes)


# ---------------------------------------------------------------------------
# The serving tower shared by hot-tower and mutate-mix
# ---------------------------------------------------------------------------
def _build_tower(scale: Scale, pool: list[tuple]):
    """ER reference graph, 2-shard pipe ring, pool warmed; returns seconds."""
    started = time.monotonic()
    graph = inputs.er_graph(scale.er_nodes, scale.er_edges, INSTANCE_SEED)
    service = ShardedConnectorService(graph, n_shards=scale.shards)
    try:
        service.solve_many(pool)
    except BaseException:
        service.close()
        raise
    return graph, service, time.monotonic() - started


def _tower_pool(scale: Scale, size: int) -> list[tuple]:
    return inputs.query_pool(
        scale.er_nodes, size, scale.tower_query_size, random.Random(INSTANCE_SEED)
    )


def _towers(scale, pool, traced):
    """Set the tower up ``scale.setups`` times (once when tracing); keep the last.

    When tracing, the shard tracer is armed while the ring forks its
    workers, so the workers inherit its wrappers.
    """
    times = []
    graph = service = None
    for _ in range(1 if traced else scale.setups):
        if service is not None:
            service.close()
            graph = service = None
            gc.collect()
        if traced:
            with traced.forking():
                graph, service, seconds = _build_tower(scale, pool)
        else:
            graph, service, seconds = _build_tower(scale, pool)
        times.append(seconds)
    return graph, service, times


async def _serve(service, scale: Scale, body):
    gateway = AsyncGateway(
        service, max_batch=scale.max_batch, max_wait_ms=scale.max_wait_ms
    )
    try:
        async with GatewayServer(gateway, port=0) as server:
            client = await AsyncConnectorClient.connect(server.host, server.port)
            try:
                return await body(gateway, client)
            finally:
                await client.aclose()
    finally:
        await gateway.aclose()


class _TowerTrace:
    """Parent tracer plus the shard-worker collector for one traced run."""

    def __init__(self, out_dir: Path) -> None:
        self.tracer = layers.build_tracer()
        self.shard_tracer = layers.build_tracer()
        self.collector = ShardCollector(
            self.shard_tracer, out_dir, layers.cache_bytes
        )
        self.window = (0.0, 0.0)
        self.gateway = ()
        self.service = ()

    @contextlib.contextmanager
    def forking(self):
        """Shard workers forked inside this block trace themselves."""
        self.collector.install()
        self.shard_tracer.install()
        try:
            yield
        finally:
            self.shard_tracer.uninstall()
            self.collector.uninstall()

    async def start(self, gateway) -> None:
        self.gateway = (gateway.stats(),)
        self.service = (layers.counters(await gateway.aservice_stats()),)
        self.tracer.install()
        self.window = (time.monotonic(), 0.0)

    async def stop(self, gateway) -> None:
        self.window = (self.window[0], time.monotonic())
        self.tracer.uninstall()
        self.gateway += (gateway.stats(),)
        self.service += (layers.counters(await gateway.aservice_stats()),)

    def metrics(self) -> tuple[dict, list]:
        """Per-layer metrics; call after the ring has closed."""
        start, end = self.window
        spans = self.tracer.window(start, end)
        records = self.collector.collect()
        shard_spans = [
            span for record in records for span in record["spans"]
            if start <= span[1] < end
        ]
        metrics = _layer_defaults()
        metrics.update(layers.span_metrics(spans, shard_spans))
        metrics.update(layers.stats_metrics(*self.service))
        metrics.update(layers.gateway_metrics(*self.gateway))
        metrics.update(
            layers.memory_metrics([record["cache_bytes"] for record in records])
        )
        metrics["sharded.shard_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        return metrics, spans + shard_spans


# ---------------------------------------------------------------------------
# hot-tower: every answer cached, open-loop Poisson arrivals at fixed rates
# ---------------------------------------------------------------------------
def _worst_p50_ms(reports) -> float:
    return max(percentile(report.latencies, 0.5) for report in reports) * 1e3


def run_hot(seed: int, seconds: float, trace: bool, scale: Scale = FULL,
            out_dir: Path | None = None) -> Outcome:
    """One open-loop phase per rate in ``scale.hot_rates``, equal lengths.

    The end-to-end latencies are the worst over the rates: the tower's
    median and tail at whichever fixed rate serves it worse.
    """
    rng = random.Random(seed)
    pool = _tower_pool(scale, scale.hot_pool)
    traced = _TowerTrace(out_dir) if trace else None
    graph, service, setup_times = _towers(scale, pool, traced)

    async def phases(client, total: float) -> list:
        span = total / len(scale.hot_rates)
        return [
            await driver.open_loop(
                client, inputs.poisson_schedule(rate, span, pool, scale.zipf, rng)
            )
            for rate in scale.hot_rates
        ]

    async def body(gateway, client):
        for query in pool:  # warm the wire path; answers are cached already
            await client.solve(list(query))
        if not trace:
            return [await phases(client, seconds)]
        plain = await phases(client, seconds / 2)
        await traced.start(gateway)
        measured = await phases(client, seconds)
        await traced.stop(gateway)
        return [plain, measured]

    try:
        runs = asyncio.run(_serve(service, scale, body))
    finally:
        service.close()
    reports = [report for run in runs for report in run]
    samples = [sample for report in reports for sample in report.samples]
    failed = sum(report.errors for report in reports) + _repeat_mismatches(samples)
    failed += _spot_check(graph, samples, scale.hot_checks)
    last = runs[-1]
    notes = [
        f"{rate:g} req/s: p50 {percentile(report.latencies, 0.5) * 1e3:.2f} ms, "
        f"p99 {percentile(report.latencies, 0.99) * 1e3:.2f} ms, "
        f"{len(report.latencies)} requests"
        for rate, report in zip(scale.hot_rates, last)
    ]
    spans: list = []
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": _worst_p50_ms(last),
            "latency_p99_ms": max(
                percentile(report.latencies, 0.99) for report in last
            ) * 1e3,
            "throughput_qps": sum(len(report.latencies) for report in last)
            / sum(report.elapsed for report in last),
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        metrics, spans = traced.metrics()
        metrics["driver.lag_ms_max"] = max(report.lag_max for report in last) * 1e3
        metrics["trace.overhead_ms"] = _worst_p50_ms(last) - _worst_p50_ms(runs[0])
    return Outcome(metrics, len(samples), failed, failed == 0, spans, notes)


def _spot_check(graph, samples, checks: int) -> int:
    """Mismatches of the ``checks`` most frequent queries vs one-shot solves."""
    counts: dict[frozenset, list] = {}
    for sample in samples:
        if sample.answer is not None:
            counts.setdefault(frozenset(sample.query), []).append(sample)
    ranked = sorted(counts.values(), key=lambda group: (-len(group), sorted(group[0].query)))
    failed = 0
    for group in ranked[:checks]:
        reference = wiener_steiner(graph, group[0].query)
        expected = driver.answer_key(canonical_sort(reference.nodes), reference.metadata)
        failed += group[0].answer != expected
    return failed


# ---------------------------------------------------------------------------
# mutate-mix: closed loop of (8-op delta, 16-request window) rounds
# ---------------------------------------------------------------------------
def run_mix(seed: int, seconds: float, trace: bool, scale: Scale = FULL,
            out_dir: Path | None = None) -> Outcome:
    rng = random.Random(seed)
    pool = _tower_pool(scale, scale.mix_pool)
    traced = _TowerTrace(out_dir) if trace else None
    graph, service, setup_times = _towers(scale, pool, traced)
    twin = graph.copy()
    rounds: list[tuple] = []  # (delta, epoch, samples)
    notes: list[str] = []

    async def play(client, budget: float):
        """Rounds until ``budget`` seconds of serving (delta drawing excluded)."""
        report = driver.DriverReport()
        mutate_rtts = []
        loop = asyncio.get_running_loop()
        while report.elapsed < budget:
            delta = inputs.next_delta(twin, scale.delta_ops, rng)
            started = loop.time()
            try:
                epoch = await client.mutate(delta)
            except ServerError as exc:
                notes.append(f"mutate failed: {exc}")
                return report, mutate_rtts, False
            mutate_rtts.append(loop.time() - started)
            if epoch != len(rounds) + 1:
                notes.append(f"mutate returned epoch {epoch}, expected {len(rounds) + 1}")
                return report, mutate_rtts, False
            queries = inputs.zipf_window(pool, scale.mix_window, scale.zipf, rng)
            first = len(report.samples)
            await driver.window(client, queries, report)
            report.elapsed += loop.time() - started
            rounds.append((delta, epoch, report.samples[first:]))
        return report, mutate_rtts, True

    async def body(gateway, client):
        if not trace:
            return [await play(client, seconds)]
        plain = await play(client, seconds / 2)
        if not plain[2]:
            return [plain]
        await traced.start(gateway)
        measured = await play(client, seconds)
        await traced.stop(gateway)
        return [plain, measured]

    try:
        played = asyncio.run(_serve(service, scale, body))
    finally:
        service.close()
    samples = [s for report, _rtts, _ok in played for s in report.samples]
    mutates = sum(len(rtts) for _report, rtts, _ok in played)
    failed = sum(report.errors for report, _rtts, _ok in played)
    failed += sum(not ok for _report, _rtts, ok in played)
    failed += sum(_repeat_mismatches(round_samples) for _d, _e, round_samples in rounds)
    failed += _check_epochs(graph, rounds, scale.mix_checks_per_round)
    report, rtts, _ok = played[-1]
    if rtts:
        notes.append(
            f"{len(rtts)} rounds, mutate round trip p50 "
            f"{statistics.median(rtts) * 1e3:.1f} ms"
        )
    spans: list = []
    if not trace:
        metrics = _closed_e2e(
            setup_times, report.latencies, report.elapsed, _peak_rss_mb()
        )
    elif len(played) < 2:
        metrics = _layer_defaults()
    else:
        metrics, spans = traced.metrics()
        metrics["driver.lag_ms_max"] = report.lag_max * 1e3
        metrics["versioned.mutate_rtt_p50_ms"] = statistics.median(rtts) * 1e3
        metrics["trace.overhead_ms"] = (
            statistics.median(report.latencies)
            - statistics.median(played[0][0].latencies)
        ) * 1e3
    return Outcome(metrics, len(samples) + mutates, failed, failed == 0, spans, notes)


def _check_epochs(graph, rounds, per_round: int) -> int:
    """Replay the deltas on a dict twin; check the first, middle, last round."""
    if not rounds:
        return 0
    checked = {0, len(rounds) // 2, len(rounds) - 1}
    reference_graph = graph.copy()
    failed = 0
    for index, (delta, _epoch, round_samples) in enumerate(rounds):
        delta.apply_to_graph(reference_graph)
        if index in checked:
            failed += _spot_check(reference_graph, round_samples, per_round)
    return failed


WORKLOADS = {
    "cold-sweep": run_cold,
    "hot-tower": run_hot,
    "mutate-mix": run_mix,
}
