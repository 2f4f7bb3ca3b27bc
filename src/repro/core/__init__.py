"""The paper's core contribution: the WienerSteiner approximation algorithm,
its objective-function chain, exact algorithms, and the one Mehlhorn
Steiner kernel (:func:`mehlhorn_steiner_csr`: ws-q runs it on every
``G_{r,λ}``, and :func:`steiner_tree_unweighted`, the ``st`` baseline,
runs it with unit weights) — plus the serving layers:
:class:`ConnectorService` / :class:`SolveOptions` amortize one graph index
across many queries,
:class:`ShardedConnectorService` partitions that cache state across
persistent shard processes behind a consistent-hash router, and
:class:`AsyncGateway` micro-batches concurrently-arriving asyncio
requests into ``solve_many`` windows over either of them.
"""

from repro.core.adjust import ALPHA, adjust_distances, verify_lemma2
from repro.core.exact import (
    brute_force,
    exact_pair,
    exact_pivot,
    optimal_wiener_index,
)
from repro.core.fastpath import (
    CSRWienerSteinerEngine,
    mehlhorn_steiner_csr,
    steiner_tree_from_voronoi,
)
from repro.core.gateway import (
    AsyncGateway,
    GatewayClosedError,
    GatewayOverloadedError,
    GatewayStats,
)
from repro.core.objectives import (
    a_objective,
    b_objective,
    best_rooted_a,
    optimal_lambda,
    verify_lemma1,
    weak_a_objective,
    wiener_of_nodes,
)
from repro.core.options import FunctionMethod, Method, SolveOptions
from repro.core.result import ConnectorResult
from repro.core.service import ConnectorService, ServiceStats, SweepOutcome
from repro.core.sharded import ShardedConnectorService, ShardedStats
from repro.core.steiner import steiner_tree_unweighted
from repro.core.wiener_steiner import (
    EXACT_SCORING_THRESHOLD,
    minimum_wiener_connector,
    wiener_steiner,
)

__all__ = [
    "ALPHA",
    "AsyncGateway",
    "GatewayClosedError",
    "GatewayOverloadedError",
    "GatewayStats",
    "ConnectorService",
    "ShardedConnectorService",
    "ShardedStats",
    "SweepOutcome",
    "FunctionMethod",
    "Method",
    "ServiceStats",
    "SolveOptions",
    "adjust_distances",
    "verify_lemma2",
    "brute_force",
    "exact_pair",
    "exact_pivot",
    "optimal_wiener_index",
    "a_objective",
    "b_objective",
    "best_rooted_a",
    "optimal_lambda",
    "verify_lemma1",
    "weak_a_objective",
    "wiener_of_nodes",
    "ConnectorResult",
    "CSRWienerSteinerEngine",
    "mehlhorn_steiner_csr",
    "steiner_tree_from_voronoi",
    "steiner_tree_unweighted",
    "EXACT_SCORING_THRESHOLD",
    "minimum_wiener_connector",
    "wiener_steiner",
]
