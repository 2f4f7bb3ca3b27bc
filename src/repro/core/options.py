"""Uniform solve configuration: :class:`SolveOptions` and the :class:`Method` protocol.

Before the serving redesign every entry point grew its own keyword soup —
``wiener_steiner(beta, roots, selection, adjust, lambda_values)`` — and the
baseline registry used a second, positional-only convention.  This module
collapses both into two small contracts:

* :class:`SolveOptions` — a frozen (hence hashable, hence cacheable)
  dataclass carrying every tunable of a connector solve.  It is the cache
  key unit of :class:`repro.core.service.ConnectorService` and the only
  payload besides the graph arrays that shard replicas receive.
* :class:`Method` — the protocol every connector method implements:
  ``solve(graph, query, options)`` plus a ``name`` tag.  The paper's
  algorithm (``ws-q``) and all four baselines (``st``, ``ppr``, ``cps``,
  ``ctp``) satisfy it, so the experiment harness and the CLI dispatch
  through one registry without per-method signatures.

``SolveOptions`` validates eagerly: a typo'd ``selection`` or a negative
``beta`` fails at construction, not halfway through a λ×root sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections.abc import Iterable
from typing import Protocol, runtime_checkable

from repro.core.result import ConnectorResult
from repro.graphs.graph import Graph, Node

def stable_repr(value) -> str:
    """A repr whose equality tracks *value* equality for digest purposes.

    Plain ``repr`` distinguishes ``1`` from ``1.0`` even though Python
    (and every cache in this package) treats them as one key; numbers are
    therefore canonicalized through ``float`` and tuples recurse.  Used by
    :meth:`SolveOptions.stable_digest` and the sharded router's query
    hashing so equal keys never land on different shards.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, (int, float)):
        return repr(float(value))
    if isinstance(value, tuple):
        return "(" + ",".join(stable_repr(v) for v in value) + ")"
    return repr(value)


#: Valid candidate-scoring policies (see :data:`SolveOptions.selection`).
SELECTIONS = ("a", "wiener", "auto", "sampled")


@dataclasses.dataclass(frozen=True)
class SolveOptions:
    """Every tunable of a connector solve, in one hashable value.

    Attributes
    ----------
    method:
        Method tag dispatched through :data:`repro.baselines.METHODS` —
        ``"ws-q"`` (default, the paper's algorithm), ``"st"``, ``"ppr"``,
        ``"cps"`` or ``"ctp"``.
    beta:
        λ-grid resolution of Algorithm 1 (the paper suggests ``β = 1``;
        smaller β tries more λ values); must be positive.
    roots:
        Candidate roots; ``None`` (default) means the query set itself
        (Lemma 5).  Normalized to a tuple so options stay hashable.
    selection:
        Candidate scoring policy: ``"a"`` always uses the proxy
        ``A(H, r)``; ``"wiener"`` always scores exactly; ``"auto"``
        (default) scores exactly up to ``exact_threshold`` vertices and by
        the proxy beyond; ``"sampled"`` scores exactly up to
        ``exact_threshold`` and by the Remark-1 sampled Wiener estimator
        (``sample_sources`` BFS sources, deterministically seeded with
        ``sample_seed``) beyond — the approximate-scoring path for huge
        candidates.
    adjust:
        Apply the Lemma-2 ``AdjustDistances`` rebalancing (default on;
        turning it off is an ablation).
    lambda_values:
        Explicit λ grid overriding the geometric sweep; normalized to a
        tuple.  Every value must be finite and positive (Lemma 4 divides
        by λ).
    exact_threshold:
        Largest candidate scored exactly under ``"auto"``/``"sampled"``.
    sample_sources:
        BFS source budget of the ``"sampled"`` estimator.
    sample_seed:
        Seed of the ``"sampled"`` estimator's source choice — fixed so
        repeated scoring of one candidate is deterministic (and therefore
        cacheable).
    """

    method: str = "ws-q"
    beta: float = 1.0
    roots: tuple[Node, ...] | None = None
    selection: str = "auto"
    adjust: bool = True
    lambda_values: tuple[float, ...] | None = None
    exact_threshold: int = 600
    sample_sources: int = 64
    sample_seed: int = 0

    def __post_init__(self) -> None:
        # Normalize iterable fields to tuples so the options value is
        # hashable (it is used directly as a cache key).
        if self.roots is not None and not isinstance(self.roots, tuple):
            object.__setattr__(self, "roots", tuple(self.roots))
        if self.lambda_values is not None and not isinstance(
            self.lambda_values, tuple
        ):
            object.__setattr__(self, "lambda_values", tuple(self.lambda_values))
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"method must be a non-empty string, got {self.method!r}")
        if not self.beta > 0:  # NaN fails too
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.selection not in SELECTIONS:
            raise ValueError(
                f"unknown selection policy {self.selection!r}; "
                f"choose from {SELECTIONS}"
            )
        if self.lambda_values is not None and not self.lambda_values:
            raise ValueError(
                "lambda_values must be non-empty when given (omit it or "
                "pass None for the geometric grid)"
            )
        if self.lambda_values is not None and not all(
            math.isfinite(lam) and lam > 0 for lam in self.lambda_values
        ):
            raise ValueError(
                "every lambda value must be finite and positive, got "
                f"{self.lambda_values}"
            )
        if self.exact_threshold < 0:
            raise ValueError(
                f"exact_threshold must be non-negative, got {self.exact_threshold}"
            )
        if self.sample_sources < 1:
            raise ValueError(
                f"sample_sources must be at least 1, got {self.sample_sources}"
            )

    def replace(self, **changes) -> "SolveOptions":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def stable_digest(self) -> bytes:
        """A process-stable 20-byte digest of this options value.

        ``hash()`` is salted per interpreter (``PYTHONHASHSEED``), so it
        cannot place keys on a consistent-hash ring that must agree across
        router restarts and shard processes.  This digest is derived from
        the :func:`stable_repr` of every field instead: equal options
        (``beta=1`` and ``beta=1.0`` included) have equal digests in every
        process, forever — the property the
        :class:`repro.core.sharded.ShardedConnectorService` router keys on.
        """
        fields = []
        for f in dataclasses.fields(self):
            fields.append((f.name, stable_repr(getattr(self, f.name))))
            if f.name == "lambda_values":
                # The retired engine-backend field's default, kept in its
                # old slot so every key keeps its shard on the ring.
                fields.append(("backend", "'auto'"))
        return hashlib.sha1(repr(tuple(fields)).encode("utf-8")).digest()


@runtime_checkable
class Method(Protocol):
    """The uniform contract of every connector method.

    ``METHODS[tag]`` values satisfy this protocol; they additionally stay
    *callable* with the legacy ``(graph, query, **kwargs)`` convention so
    pre-redesign call sites keep working unchanged.
    """

    name: str

    def solve(
        self,
        graph: Graph,
        query: Iterable[Node],
        options: SolveOptions | None = None,
    ) -> ConnectorResult:
        """Solve one query on ``graph`` under ``options``."""
        ...  # pragma: no cover - protocol definition


class FunctionMethod:
    """Adapt a plain ``(graph, query, **kwargs) -> ConnectorResult`` callable.

    The baselines predate :class:`SolveOptions` and take no Algorithm-1
    tunables, so their adapter simply ignores the options value; it exists
    to give them the same ``solve``/``name`` surface as ``ws-q``.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn) -> None:
        self.name = name
        self._fn = fn

    def solve(
        self,
        graph: Graph,
        query: Iterable[Node],
        options: SolveOptions | None = None,
    ) -> ConnectorResult:
        return self._fn(graph, query)

    def __call__(self, graph: Graph, query: Iterable[Node], *args, **kwargs):
        return self._fn(graph, query, *args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}({self.name!r})"


__all__ = ["SELECTIONS", "FunctionMethod", "Method", "SolveOptions", "stable_repr"]
