"""Tests for the ConnectorResult container."""

import math

import pytest

from repro.core.result import ConnectorResult
from repro.graphs.generators import star_graph


class TestConnectorResult:
    def make(self, nodes, query=(1, 2)):
        g = star_graph(5)
        return ConnectorResult(
            host=g, nodes=frozenset(nodes), query=frozenset(query), method="t"
        )

    def test_basic_properties(self):
        result = self.make([0, 1, 2])
        assert result.size == 3
        assert result.num_added == 1
        assert result.added_nodes == frozenset([0])
        assert result.wiener_index == 1 + 1 + 2
        assert result.density == pytest.approx(2 / 3)

    def test_query_must_be_subset(self):
        with pytest.raises(ValueError):
            self.make([1, 2], query=(1, 2, 3))

    def test_subgraph_cached_and_induced(self):
        result = self.make([0, 1, 2])
        assert result.subgraph is result.subgraph
        assert result.subgraph.num_edges == 2

    def test_disconnected_infinite_wiener(self):
        result = self.make([1, 2])  # two leaves without the hub
        assert result.wiener_index == math.inf
        assert "inf" in result.summary()

    def test_summary_contains_method_and_sizes(self):
        result = self.make([0, 1, 2])
        text = result.summary()
        assert "t:" in text
        assert "|V(H)|=3" in text
        assert "|Q|=2" in text

    def test_metadata_not_compared(self):
        a = self.make([0, 1, 2])
        b = self.make([0, 1, 2])
        b.metadata["x"] = 1
        assert a == b


class TestPickleRoundTrip:
    """A result is a plain frozen dataclass: a pickle round trip (by
    library users; no wire of the tower carries pickles) preserves
    equality and every derived value."""

    def make(self):
        g = star_graph(5)
        return ConnectorResult(
            host=g,
            nodes=frozenset([0, 1, 2]),
            query=frozenset([1, 2]),
            method="ws-q",
            metadata={"root": 1, "lambda": 0.7},
        )

    def test_round_trip_equality(self):
        import pickle

        original = self.make()
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        assert clone.nodes == original.nodes
        assert clone.query == original.query
        assert clone.method == original.method
        assert clone.metadata == original.metadata
        assert clone.host == original.host

    def test_derived_values_recompute_identically(self):
        import pickle

        original = self.make()
        # populate every cached derivation before pickling
        expected = (original.wiener_index, original.density,
                    original.subgraph.num_edges)
        clone = pickle.loads(pickle.dumps(original))
        assert (clone.wiener_index, clone.density,
                clone.subgraph.num_edges) == expected
