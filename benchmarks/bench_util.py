"""Helpers shared by the benchmark files (kept out of conftest so the
module name never collides with tests/conftest.py when both trees are
collected in one pytest invocation)."""

from __future__ import annotations


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark ``function`` with one warm round (experiment-scale)."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)

