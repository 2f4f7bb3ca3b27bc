"""Self-checks for the benchmark's own code, on tiny instances.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import driver
from perfbench.metrics import END_TO_END, PER_LAYER, percentile, result_line
from perfbench.trace import Tracer, summarize, union_seconds
from perfbench.workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {name: row[:2] for name, row in PER_LAYER.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    started = time.monotonic()
    outcome = WORKLOADS[name](11, 1.0, False, scale=TINY, out_dir=tmp_path)
    assert time.monotonic() - started < 60
    line = result_line(
        outcome.metrics, END_TO_END, outcome.attempted, outcome.failed, outcome.correct
    )
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    for metric, (unit, _better) in END_TO_END.items():
        assert line["metrics"][metric]["unit"] == unit
        assert line["metrics"][metric]["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    outcome = WORKLOADS[name](11, 1.0, True, scale=TINY, out_dir=tmp_path)
    line = result_line(
        outcome.metrics, PER_LAYER, outcome.attempted, outcome.failed, outcome.correct
    )
    assert line["correct"] is True and line["failed"] == 0
    assert line["metrics"]["trace.spans"]["value"] == len(outcome.spans) > 0
    if name in ("cold-sweep", "mutate-mix"):
        # Sweeps ran: the named stages must account for nearly all of them.
        assert line["metrics"]["fastpath.dijkstra_calls"]["value"] > 0
        assert line["metrics"]["trace.stage_coverage"]["value"] >= 0.9
    if name != "cold-sweep":
        assert line["metrics"]["gateway.windows"]["value"] > 0
        assert line["metrics"]["protocol.reply_bytes"]["value"] > 0
    assert not list(tmp_path.glob("shard-*.json"))  # every dump was collected


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_open_loop_times_requests_from_when_they_were_due():
    class StallingClient:
        """Replies at once, but the first call blocks the event loop."""

        calls = 0

        async def solve(self, query):
            StallingClient.calls += 1
            if StallingClient.calls == 1:
                time.sleep(0.2)
            return {"nodes": list(query), "metadata": {}}

    schedule = [(0.0, (1,)), (0.05, (2,)), (0.1, (3,))]
    report = asyncio.run(driver.open_loop(StallingClient(), schedule))
    # The stall is charged to the requests queued behind it, and the
    # driver admits it ran late.
    assert report.lag_max >= 0.09
    assert min(report.latencies[1:]) >= 0.09
    assert report.errors == 0


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            self.inner()
            time.sleep(0.02)

        def inner(self):
            time.sleep(0.03)

    original = Layer.outer
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    tracer.install()
    Layer().outer()
    tracer.uninstall()
    assert Layer.outer is original
    table = summarize(tracer.spans)
    assert table["outer"]["total"] >= 0.05
    assert 0.015 <= table["outer"]["self"] < table["outer"]["total"] - 0.025


def test_helpers():
    assert percentile([4, 1, 3, 2], 0.5) == 2
    assert percentile(range(1, 101), 0.99) == 99
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_seconds([(0, 2), (1, 3)], within=[(2.5, 10)]) == 0.5
