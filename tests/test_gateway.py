"""Property/fuzz and fault-path tests for the asyncio serving gateway.

Two contracts under test:

* **identity** — connectors returned through
  :meth:`AsyncGateway.asolve` are bit-identical to one-shot
  ``wiener_steiner`` for randomized concurrent submission orders, any
  window configuration (``max_batch`` 1 vs 64, zero vs real wait), over a
  single :class:`ConnectorService` and over a 2-shard
  :class:`ShardedConnectorService`, including after ``aclose()``/reopen;
* **scheduling semantics** — cross-arrival coalescing shares one solve
  between identical in-flight requests, a failing window fails only its
  own futures, ``aclose()`` resolves everything it drained, and a full
  admission queue sheds ``try_solve`` callers (counted) instead of
  growing without bound.

The scheduling tests run against a deterministic stub service whose
``solve_many`` can be held open or poisoned on cue — timing enters only
through generous safety timeouts, never through sleeps the assertions
depend on.
"""

import asyncio
import random
import threading

import pytest

from helpers import (
    assert_connector_identical,
    assert_no_orphan_processes,
    random_connected_graph,
    random_query_batch,
)
from repro.core.gateway import (
    AsyncGateway,
    GatewayClosedError,
    GatewayOverloadedError,
    GatewayStats,
)
from repro.core.options import SolveOptions
from repro.core.service import ConnectorService
from repro.core.sharded import ShardedConnectorService
from repro.core.wiener_steiner import wiener_steiner

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: (max_batch, max_wait_ms) — degenerate windows of one, wide windows.
WINDOW_CONFIGS = ((1, 0.0), (64, 5.0), (4, 1.0))

#: Gateways deliberately orphaned on a closed loop by the cross-loop
#: misuse test; kept alive so their pending batchers are never GC'd
#: mid-session (see test_reuse_across_loops_without_aclose_fails_clearly).
_CROSS_LOOP_ORPHANS: list = []


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=60))


class StubService:
    """A deterministic backing service for scheduling tests.

    ``solve_many`` records each batch, optionally blocks on a
    :class:`threading.Event` (so a test can hold a window "in flight" at
    will — it runs on the gateway's executor thread, never the loop), and
    raises for poisoned queries.  Results are plain tuples: the gateway
    treats them as opaque.
    """

    options = SolveOptions()

    def __init__(self, gate: threading.Event | None = None, poison=None) -> None:
        self.gate = gate
        self.poison = poison
        self.calls: list[list[frozenset]] = []

    def solve_many(self, queries, options=None):
        batch = [frozenset(query) for query in queries]
        self.calls.append(batch)
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.poison is not None and self.poison in batch:
            raise RuntimeError(f"poisoned query {sorted(self.poison)}")
        return [("solved", query, options) for query in batch]

    def stats(self):
        return ("stub-stats", len(self.calls))


class TestGatewayIdentity:
    """The bit-identity fuzz of the acceptance criteria."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("max_batch,max_wait_ms", WINDOW_CONFIGS)
    def test_concurrent_submission_matches_one_shot(
        self, seed, max_batch, max_wait_ms
    ):
        rng = random.Random(seed)
        graph = random_connected_graph(36, 0.12, seed=seed + 7)
        queries = random_query_batch(graph, rng, 10)
        queries += [queries[rng.randrange(len(queries))] for _ in range(4)]
        rng.shuffle(queries)
        references = [wiener_steiner(graph, query) for query in queries]

        async def submit():
            service = ConnectorService(graph)
            async with AsyncGateway(
                service, max_batch=max_batch, max_wait_ms=max_wait_ms
            ) as gateway:
                return await asyncio.gather(
                    *(gateway.asolve(query) for query in queries)
                )

        results = run(submit())
        for result, reference in zip(results, references):
            assert_connector_identical(result, reference)

    @pytest.mark.parametrize("max_batch,max_wait_ms", WINDOW_CONFIGS)
    def test_gateway_over_shards_matches_one_shot(self, max_batch, max_wait_ms):
        rng = random.Random(99)
        graph = random_connected_graph(30, 0.15, seed=3)
        queries = random_query_batch(graph, rng, 8)
        queries += queries[:3]  # in-flight duplicates
        rng.shuffle(queries)
        references = [wiener_steiner(graph, query) for query in queries]

        async def submit(service):
            async with AsyncGateway(
                service, max_batch=max_batch, max_wait_ms=max_wait_ms
            ) as gateway:
                return await asyncio.gather(
                    *(gateway.asolve(query) for query in queries)
                )

        with ShardedConnectorService(graph, n_shards=2) as service:
            results = run(submit(service))
        for result, reference in zip(results, references):
            assert_connector_identical(result, reference)
        assert_no_orphan_processes()

    def test_aclose_then_reopen_stays_identical(self):
        rng = random.Random(5)
        graph = random_connected_graph(28, 0.15, seed=11)
        queries = random_query_batch(graph, rng, 6)
        references = [wiener_steiner(graph, query) for query in queries]

        async def two_runs():
            service = ConnectorService(graph)
            gateway = AsyncGateway(service, max_batch=3, max_wait_ms=1.0)
            first = await asyncio.gather(
                *(gateway.asolve(query) for query in queries)
            )
            await gateway.aclose()
            # Reopen: the same gateway object serves again (warm service).
            second = await asyncio.gather(
                *(gateway.asolve(query) for query in reversed(queries))
            )
            await gateway.aclose()
            return first, list(reversed(second))

        first, second = run(two_runs())
        for result, reference in zip(first, references):
            assert_connector_identical(result, reference)
        for result, reference in zip(second, references):
            assert_connector_identical(result, reference)

    def test_per_request_options_are_honored(self):
        graph = random_connected_graph(24, 0.18, seed=21)
        query = sorted(graph.nodes())[:4]
        exact = SolveOptions(selection="wiener")
        reference = wiener_steiner(graph, query, selection="wiener")

        async def submit():
            async with AsyncGateway(ConnectorService(graph)) as gateway:
                # Mixed options in one window must split into per-options
                # solve_many calls, not collapse onto one request's opts.
                default_result, exact_result = await asyncio.gather(
                    gateway.asolve(query), gateway.asolve(query, exact)
                )
                return default_result, exact_result

        default_result, exact_result = run(submit())
        assert_connector_identical(exact_result, reference)
        assert_connector_identical(default_result, wiener_steiner(graph, query))


class TestGatewayScheduling:
    """Batching/coalescing semantics against the deterministic stub."""

    def test_coalesces_identical_requests_across_arrival_time(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=1, max_wait_ms=0.0)
            first = asyncio.ensure_future(gateway.asolve([1, 2]))
            # Wait until the first window is actually dispatched (held
            # open by the gate), so later arrivals coalesce onto a key
            # that is in flight, not merely queued.
            while gateway.stats().windows_dispatched == 0:
                await asyncio.sleep(0.005)
            duplicate_a = asyncio.ensure_future(gateway.asolve([2, 1]))
            duplicate_b = asyncio.ensure_future(gateway.asolve([1, 2]))
            other = asyncio.ensure_future(gateway.asolve([3, 4]))
            await asyncio.sleep(0.02)  # let the duplicates reach admission
            gate.set()
            results = await asyncio.gather(
                first, duplicate_a, duplicate_b, other
            )
            stats = gateway.stats()
            await gateway.aclose()
            return results, stats

        results, stats = run(scenario())
        assert results[0] is results[1] is results[2]
        assert results[3] is not results[0]
        assert stats.coalesced == 2
        # The duplicates never reached the service: one call for [1, 2],
        # one for [3, 4].
        assert [sorted(map(sorted, call)) for call in service.calls] == [
            [[1, 2]],
            [[3, 4]],
        ]

    def test_equal_queries_with_other_options_never_coalesce(self):
        """The coalescing key holds the options: the same query under
        another method, in flight together, gets its own answer."""
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=1, max_wait_ms=0.0)
            first = asyncio.ensure_future(gateway.asolve([1, 2]))
            while gateway.stats().windows_dispatched == 0:
                await asyncio.sleep(0.005)
            other = asyncio.ensure_future(
                gateway.asolve([1, 2], SolveOptions(method="st"))
            )
            await asyncio.sleep(0.02)  # let the second reach admission
            gate.set()
            results = await asyncio.gather(first, other)
            stats = gateway.stats()
            await gateway.aclose()
            return results, stats

        (ws, st), stats = run(scenario())
        assert ws[2].method == "ws-q" and st[2].method == "st"
        assert stats.coalesced == 0
        assert len(service.calls) == 2

    def test_windows_close_on_max_batch(self):
        service = StubService()

        async def scenario():
            # A long wait window: only the size bound can close it.
            async with AsyncGateway(
                service, max_batch=3, max_wait_ms=10_000.0
            ) as gateway:
                await asyncio.gather(
                    *(gateway.asolve([i, i + 1]) for i in range(6))
                )
                return gateway.stats()

        stats = run(scenario())
        assert stats.windows_dispatched == 2
        assert stats.window_sizes == (3, 3)
        assert stats.mean_window_size == 3.0

    def test_failing_request_fails_only_itself_in_a_shared_window(self):
        service = StubService(poison=frozenset([666]))

        async def scenario():
            gateway = AsyncGateway(service, max_batch=4, max_wait_ms=5.0)
            good = asyncio.ensure_future(gateway.asolve([1, 2]))
            bad = asyncio.ensure_future(gateway.asolve([666]))
            with pytest.raises(RuntimeError, match="poisoned"):
                await asyncio.shield(bad)
            # Same window, same solve_many group — the group is re-solved
            # per request, so the valid window-mate still succeeds...
            good_result = await asyncio.shield(good)
            # ...and the gateway survives: the next request solves fine.
            after = await gateway.asolve([7, 8])
            stats = gateway.stats()
            await gateway.aclose()
            return good_result, after, stats

        good_result, after, stats = run(scenario())
        assert good_result[1] == frozenset([1, 2])
        assert after[0] == "solved" and after[1] == frozenset([7, 8])
        assert stats.failures == 1
        assert stats.results_served == 2

    def test_failure_is_isolated_per_options_group(self):
        service = StubService(poison=frozenset([666]))
        other_options = SolveOptions(beta=2.0)

        async def scenario():
            async with AsyncGateway(
                service, max_batch=4, max_wait_ms=5.0
            ) as gateway:
                good = asyncio.ensure_future(
                    gateway.asolve([1, 2], other_options)
                )
                bad = asyncio.ensure_future(gateway.asolve([666]))
                with pytest.raises(RuntimeError, match="poisoned"):
                    await asyncio.shield(bad)
                # Different options ⇒ different solve_many group in the
                # same window ⇒ unaffected by the poisoned group.
                return await good

        result = run(scenario())
        assert result[1] == frozenset([1, 2])
        assert result[2] == other_options

    def test_aclose_during_pending_windows_resolves_every_future(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=2, max_wait_ms=0.0)
            futures = [
                asyncio.ensure_future(gateway.asolve([i, i + 1]))
                for i in range(8)
            ]
            await asyncio.sleep(0.02)  # some windows dispatched, some queued
            closer = asyncio.ensure_future(gateway.aclose())
            await asyncio.sleep(0.02)
            gate.set()
            await closer
            return await asyncio.gather(*futures), gateway.stats()

        results, stats = run(scenario())
        assert len(results) == 8
        assert {result[1] for result in results} == {
            frozenset([i, i + 1]) for i in range(8)
        }
        assert stats.results_served == 8
        assert stats.in_flight == 0 and stats.queued == 0

    def test_asolve_while_draining_is_refused(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=1, max_wait_ms=0.0)
            pending = asyncio.ensure_future(gateway.asolve([1, 2]))
            await asyncio.sleep(0.01)
            closer = asyncio.ensure_future(gateway.aclose())
            await asyncio.sleep(0.01)
            with pytest.raises(GatewayClosedError):
                await gateway.asolve([3, 4])
            gate.set()
            await closer
            await pending

        run(scenario())

    def test_full_queue_sheds_try_solve_and_counts_it(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(
                service,
                max_batch=1,
                max_wait_ms=0.0,
                max_queue=1,
                max_pending_windows=1,
            )
            admitted = [asyncio.ensure_future(gateway.asolve([0, 1]))]
            # Fill the pipeline: one window in flight (held by the gate),
            # one staged in the batcher, one in the queue.
            for base in (2, 4):
                while gateway.stats().queued > 0:
                    await asyncio.sleep(0.005)
                admitted.append(
                    asyncio.ensure_future(gateway.asolve([base, base + 1]))
                )
            await asyncio.sleep(0.02)
            assert gateway.stats().queued == 1
            with pytest.raises(GatewayOverloadedError):
                gateway.try_solve([6, 7])
            shed_stats = gateway.stats()
            gate.set()
            results = await asyncio.gather(*admitted)
            await gateway.aclose()
            return results, shed_stats, gateway.stats()

        results, shed_stats, final_stats = run(scenario())
        assert shed_stats.shed == 1
        assert len(results) == 3
        # The shed request never reached the service…
        assert frozenset([6, 7]) not in {
            query for call in service.calls for query in call
        }
        # …and did not leave a stale in-flight key behind.
        assert final_stats.in_flight == 0

    def test_try_solve_coalesces_onto_inflight_future(self):
        service = StubService()

        async def scenario():
            async with AsyncGateway(
                service, max_batch=8, max_wait_ms=50.0
            ) as gateway:
                first = gateway.try_solve([1, 2])
                second = gateway.try_solve([2, 1])
                return await first, await second, gateway.stats()

        result, coalesced_result, stats = run(scenario())
        assert result is coalesced_result  # one solve, shared result
        assert result[1] == frozenset([1, 2])
        assert stats.coalesced == 1 and stats.admitted == 1

    def test_cancelling_try_solve_awaiter_spares_coalescers(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=8, max_wait_ms=50.0)
            shared = asyncio.ensure_future(gateway.asolve([1, 2]))
            await asyncio.sleep(0.01)
            impatient = gateway.try_solve([2, 1])
            with pytest.raises(asyncio.TimeoutError):
                # The timeout cancels only the shield wrapper try_solve
                # returned, never the coalesced solve underneath it.
                await asyncio.wait_for(impatient, timeout=0.05)
            gate.set()
            result = await shared
            await gateway.aclose()
            return result

        result = run(scenario())
        assert result[1] == frozenset([1, 2])

    def test_crashed_batcher_fails_stranded_futures_on_reopen(self):
        """A batcher cancelled out from under the gateway (framework scope
        teardown) must not strand queued futures: the next request fails
        them loudly and the gateway rebuilds."""
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(
                service, max_batch=1, max_wait_ms=0.0, max_pending_windows=1
            )
            dispatched = asyncio.ensure_future(gateway.asolve([0, 1]))
            staged = asyncio.ensure_future(gateway.asolve([2, 3]))
            queued = asyncio.ensure_future(gateway.asolve([4, 5]))
            await asyncio.sleep(0.02)
            gateway._batcher.cancel()  # the crash
            await asyncio.sleep(0.01)
            gate.set()
            # The already-dispatched window still resolves...
            first = await dispatched
            # ...and the next request sweeps the stranded futures before
            # rebuilding, instead of letting them (and any future
            # coalescers) hang forever.
            reopened = await gateway.asolve([9, 9])
            with pytest.raises(GatewayClosedError, match="abandoned"):
                await asyncio.shield(staged)
            with pytest.raises(GatewayClosedError, match="abandoned"):
                await asyncio.shield(queued)
            await gateway.aclose()
            return first, reopened

        first, reopened = run(scenario())
        assert first[1] == frozenset([0, 1])
        assert reopened[1] == frozenset([9, 9])

    def test_aclose_after_batcher_crash_resolves_everything(self):
        """aclose() on an externally-cancelled batcher must not re-raise
        into the (non-cancelled) caller, and must still sweep stranded
        futures and shut the executor down."""
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(
                service, max_batch=1, max_wait_ms=0.0, max_pending_windows=1
            )
            dispatched = asyncio.ensure_future(gateway.asolve([0, 1]))
            staged = asyncio.ensure_future(gateway.asolve([2, 3]))
            queued = asyncio.ensure_future(gateway.asolve([4, 5]))
            await asyncio.sleep(0.02)
            gateway._batcher.cancel()  # the crash
            await asyncio.sleep(0.01)
            gate.set()
            first = await dispatched  # in-flight window still resolves
            await gateway.aclose()  # must not raise CancelledError
            with pytest.raises(GatewayClosedError):
                await asyncio.shield(staged)
            with pytest.raises(GatewayClosedError):
                await asyncio.shield(queued)
            reopened = await gateway.asolve([9, 9])
            await gateway.aclose()
            return first, reopened

        first, reopened = run(scenario())
        assert first[1] == frozenset([0, 1])
        assert reopened[1] == frozenset([9, 9])

    def test_concurrent_aclose_calls_are_safe(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=1, max_wait_ms=0.0)
            pending = asyncio.ensure_future(gateway.asolve([1, 2]))
            await asyncio.sleep(0.01)
            closers = [
                asyncio.ensure_future(gateway.aclose()) for _ in range(3)
            ]
            await asyncio.sleep(0.02)
            gate.set()
            await asyncio.gather(*closers)  # must not crash on nulled state
            result = await pending
            # And the gateway still reopens cleanly afterwards.
            reopened = await gateway.asolve([3, 4])
            await gateway.aclose()
            return result, reopened

        result, reopened = run(scenario())
        assert result[1] == frozenset([1, 2])
        assert reopened[1] == frozenset([3, 4])

    def test_cancelled_backpressured_caller_does_not_cancel_coalescers(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(
                service,
                max_batch=1,
                max_wait_ms=0.0,
                max_queue=1,
                max_pending_windows=1,
            )
            earlier = [asyncio.ensure_future(gateway.asolve([0, 1]))]
            for base in (2, 4):
                while gateway.stats().queued > 0:
                    await asyncio.sleep(0.005)
                earlier.append(
                    asyncio.ensure_future(gateway.asolve([base, base + 1]))
                )
            await asyncio.sleep(0.02)
            assert gateway.stats().queued == 1  # pipeline saturated
            # Creator blocks in queue.put backpressure; a second caller
            # coalesces onto its future before it is cancelled.
            creator = asyncio.ensure_future(gateway.asolve([6, 7]))
            await asyncio.sleep(0.01)
            coalescer = asyncio.ensure_future(gateway.asolve([7, 6]))
            await asyncio.sleep(0.01)
            creator.cancel()
            # The coalescer must resolve deterministically — either the
            # handed-off solve or a clean overload error, never a hang or
            # a CancelledError it did not cause.
            try:
                outcome = await asyncio.wait_for(coalescer, timeout=10)
            except GatewayOverloadedError:
                outcome = "shed"
            gate.set()
            await asyncio.gather(*earlier)
            await gateway.aclose()
            return outcome

        outcome = run(scenario())
        assert outcome == "shed" or outcome[1] == frozenset([6, 7])

    def test_aservice_stats_serializes_with_windows(self):
        gate = threading.Event()
        service = StubService(gate=gate)

        async def scenario():
            gateway = AsyncGateway(service, max_batch=1, max_wait_ms=0.0)
            pending = asyncio.ensure_future(gateway.asolve([1, 2]))
            while gateway.stats().windows_dispatched == 0:
                await asyncio.sleep(0.005)
            # The window is mid-solve on the executor thread: a service
            # snapshot must queue behind it, not run concurrently.
            snapshot = asyncio.ensure_future(gateway.aservice_stats())
            await asyncio.sleep(0.02)
            assert not snapshot.done()
            gate.set()
            stats = await asyncio.wait_for(snapshot, timeout=10)
            await pending
            await gateway.aclose()
            # Idle gateway: the direct-call path.
            idle_stats = await gateway.aservice_stats()
            return stats, idle_stats

        stats, idle_stats = run(scenario())
        assert stats[0] == "stub-stats"
        assert idle_stats[0] == "stub-stats"

    def test_window_size_history_is_bounded(self):
        service = StubService()

        async def scenario():
            async with AsyncGateway(
                service, max_batch=1, max_wait_ms=0.0
            ) as gateway:
                for start in range(0, 600, 2):
                    await gateway.asolve([start, start + 1])
                return gateway.stats()

        stats = run(scenario())
        assert stats.windows_dispatched == 300
        assert stats.window_size_sum == 300
        assert len(stats.window_sizes) <= 256  # recent sample, not history
        assert stats.mean_window_size == 1.0

    @pytest.mark.filterwarnings(
        # The simulated misuse inherently leaves the old loop's batcher
        # coroutine to be GC'd un-awaited; that warning is the scenario,
        # not a defect of the test.
        "ignore::pytest.PytestUnraisableExceptionWarning"
    )
    def test_reuse_across_loops_without_aclose_fails_clearly(self):
        service = StubService()
        gateway = AsyncGateway(service, max_batch=4, max_wait_ms=1.0)

        async def first():
            return await gateway.asolve([1, 2])

        async def second():
            with pytest.raises(GatewayClosedError, match="another event loop"):
                await gateway.asolve([3, 4])

        # run_until_complete + close, without cancelling pending tasks —
        # asyncio.run would cancel the batcher (making it look crashed,
        # which reopen handles); this leaves it *live* on a dead loop.
        loop = asyncio.new_event_loop()
        try:
            result = loop.run_until_complete(first())
        finally:
            loop.close()
        assert result[1] == frozenset([1, 2])
        assert not gateway._batcher.done()  # still bound to the dead loop
        try:
            asyncio.run(asyncio.wait_for(second(), timeout=60))
        finally:
            # The misused gateway's batcher is forever pending on its dead
            # loop and cannot be cancelled or closed from here; keep the
            # object alive for the session so its GC-time unraisable
            # warning is not attributed to some arbitrary later test.
            _CROSS_LOOP_ORPHANS.append(gateway)

    def test_reuse_after_cancelling_run_recovers(self):
        """asyncio.run cancels pending tasks at teardown; the next run on
        a fresh loop must rebuild via the crashed-batcher path."""
        service = StubService()
        gateway = AsyncGateway(service, max_batch=4, max_wait_ms=1.0)

        async def solve_once(query):
            return await gateway.asolve(query)

        first = asyncio.run(asyncio.wait_for(solve_once([1, 2]), timeout=60))
        second = asyncio.run(asyncio.wait_for(solve_once([3, 4]), timeout=60))
        assert first[1] == frozenset([1, 2])
        assert second[1] == frozenset([3, 4])

    def test_gateway_level_default_options(self):
        service = StubService()
        defaults = SolveOptions(beta=3.0)

        async def scenario():
            async with AsyncGateway(
                service, defaults, max_batch=4, max_wait_ms=1.0
            ) as gateway:
                return await gateway.asolve([1, 2])

        result = run(scenario())
        assert result[2] == defaults  # the stub echoes the options it saw

    def test_constructor_validation(self):
        service = StubService()
        with pytest.raises(ValueError):
            AsyncGateway(service, max_batch=0)
        with pytest.raises(ValueError):
            AsyncGateway(service, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            AsyncGateway(service, max_queue=0)
        with pytest.raises(ValueError):
            AsyncGateway(service, max_pending_windows=0)

        async def bad_options():
            gateway = AsyncGateway(service)
            with pytest.raises(TypeError):
                await gateway.asolve([1], options={"beta": 1.0})
            # Validation happens before the machinery spins up: a failed
            # admission must not leave a batcher task/executor running
            # with nobody responsible for closing them.
            assert gateway._batcher is None and gateway._executor is None

        run(bad_options())

    def test_stats_snapshot_shape(self):
        stats = GatewayStats(
            queued=0,
            in_flight=0,
            admitted=0,
            coalesced=0,
            shed=0,
            windows_dispatched=0,
            window_sizes=(),
            window_size_sum=0,
            results_served=0,
            failures=0,
        )
        assert stats.mean_window_size == 0.0
