"""Load drivers over one ``AsyncConnectorClient`` connection.

Every request is timed from when it was *due*, not from when the driver
got round to sending it: if the event loop stalls, the requests queued
behind the stall carry the wait in their latency, and the driver reports
how late it ran (``lag``).  An open loop's requests are due at their
scheduled arrival; a closed window's requests are all due when the
window opens.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import NamedTuple


class Sample(NamedTuple):
    query: tuple
    latency: float | None  # seconds from due to reply; None on error
    answer: tuple | None  # see answer_key; None on error
    error: str | None = None


def answer_key(nodes, metadata) -> tuple:
    """What makes two answers bit-identical: vertex set, root, λ, candidates.

    Samples are flat tuples of numbers, not reply documents: such tuples
    are not tracked by the garbage collector, so thousands of stored
    samples neither trigger nor lengthen the collections that pause the
    gateway sharing this process.
    """
    return (
        tuple(nodes), metadata.get("root"), metadata.get("lambda"),
        metadata.get("candidates"),
    )


@dataclass
class DriverReport:
    samples: list[Sample] = field(default_factory=list)
    lag_max: float = 0.0
    elapsed: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [s.latency for s in self.samples if s.latency is not None]

    @property
    def errors(self) -> int:
        return sum(1 for s in self.samples if s.error is not None)


async def _timed(client, query: tuple, due: float) -> Sample:
    loop = asyncio.get_running_loop()
    try:
        reply = await client.solve(list(query))
    except Exception as exc:  # noqa: BLE001 - counted as a failed request
        return Sample(query, None, None, f"{type(exc).__name__}: {exc}")
    latency = loop.time() - due
    return Sample(query, latency, answer_key(reply["nodes"], reply["metadata"]))


async def open_loop(client, schedule: list[tuple[float, tuple]]) -> DriverReport:
    """Send ``(offset, query)`` arrivals on schedule, never waiting on replies.

    A finished request leaves only its sample behind: holding thousands
    of done tasks until the end would grow the garbage collector's old
    generation and, with it, the pauses the gateway sees.
    """
    loop = asyncio.get_running_loop()
    report = DriverReport()
    in_flight: set[asyncio.Task] = set()

    def finished(task: asyncio.Task) -> None:
        in_flight.discard(task)
        report.samples.append(task.result())

    start = loop.time()
    for offset, query in schedule:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        report.lag_max = max(report.lag_max, loop.time() - due)
        task = loop.create_task(_timed(client, query, due))
        in_flight.add(task)
        task.add_done_callback(finished)
    while in_flight:
        await asyncio.wait(tuple(in_flight))
    report.elapsed = loop.time() - start
    return report


async def window(client, queries: list[tuple], report: DriverReport) -> None:
    """One closed-loop window: all ``queries`` due now, sent concurrently."""
    loop = asyncio.get_running_loop()
    due = loop.time()
    tasks = []
    for query in queries:
        report.lag_max = max(report.lag_max, loop.time() - due)
        tasks.append(loop.create_task(_timed(client, query, due)))
    report.samples.extend(await asyncio.gather(*tasks))
