"""Tests for edge-list and SteinLib .stp I/O."""

import pytest

from repro.errors import ParseError
from repro.graphs.graph import Graph, WeightedGraph
from repro.graphs.io import (
    SteinerInstance,
    read_edge_list,
    read_stp,
    write_edge_list,
    write_stp,
)


class TestEdgeList:
    def test_roundtrip(self, tmp_path, two_triangles_bridge):
        path = tmp_path / "g.edges"
        write_edge_list(two_triangles_bridge, path)
        loaded = read_edge_list(path)
        assert loaded == two_triangles_bridge

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n\n1 2\n2 3  extra-ignored\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_string_nodes(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("alice bob\nbob carol\n")
        g = read_edge_list(path, node_type=str)
        assert g.has_edge("alice", "bob")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1\n")
        with pytest.raises(ParseError):
            read_edge_list(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b\n")
        with pytest.raises(ParseError):
            read_edge_list(path)

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 1\n1 2\n")
        assert read_edge_list(path).num_edges == 1


class TestStp:
    def make_instance(self) -> SteinerInstance:
        graph = WeightedGraph([(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0)])
        return SteinerInstance(name="tiny", graph=graph, terminals={1, 3})

    def test_roundtrip(self, tmp_path):
        instance = self.make_instance()
        path = tmp_path / "tiny.stp"
        write_stp(instance, path)
        loaded = read_stp(path)
        assert loaded.name == "tiny"
        assert loaded.num_nodes == 3
        assert loaded.num_edges == 3
        assert loaded.terminals == {1, 3}
        assert loaded.graph.weight(2, 3) == 2.0

    def test_unweighted_view(self):
        instance = self.make_instance()
        graph, terminals = instance.unweighted()
        assert isinstance(graph, Graph)
        assert graph.num_edges == 3
        assert terminals == {1, 3}

    def test_parse_reference_format(self, tmp_path):
        path = tmp_path / "ref.stp"
        path.write_text(
            "33D32945 STP File, STP Format Version 1.0\n"
            "SECTION Comment\n"
            'Name    "example"\n'
            "END\n"
            "SECTION Graph\n"
            "Nodes 4\n"
            "Edges 3\n"
            "E 1 2 1\n"
            "E 2 3 1\n"
            "E 3 4 2\n"
            "END\n"
            "SECTION Terminals\n"
            "Terminals 2\n"
            "T 1\n"
            "T 4\n"
            "END\n"
            "EOF\n"
        )
        instance = read_stp(path)
        assert instance.name == "example"
        assert instance.num_nodes == 4
        assert instance.terminals == {1, 4}

    def test_isolated_declared_nodes_kept(self, tmp_path):
        path = tmp_path / "iso.stp"
        path.write_text(
            "SECTION Graph\nNodes 5\nEdges 1\nE 1 2 1\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 1\nEND\nEOF\n"
        )
        instance = read_stp(path)
        assert instance.num_nodes == 5

    def test_bad_edge_line(self, tmp_path):
        path = tmp_path / "bad.stp"
        path.write_text("SECTION Graph\nE 1 2\nEND\nEOF\n")
        with pytest.raises(ParseError):
            read_stp(path)

    @pytest.mark.parametrize(
        "text, line_number",
        [
            ("SECTION Graph\nNodes abc\nEND\nEOF\n", 2),
            ("SECTION Graph\nNodes\nEND\nEOF\n", 2),
            ("SECTION Graph\nNodes 2\nE 1 2 -1\nEND\nEOF\n", 3),
            ("SECTION Graph\nNodes 2\nEND\nSECTION Terminals\nT x\nEND\nEOF\n", 5),
        ],
        ids=["nodes-not-int", "nodes-no-count", "negative-weight", "terminal-not-int"],
    )
    def test_bad_number_raises_parse_error(self, tmp_path, text, line_number):
        path = tmp_path / "bad.stp"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            read_stp(path)
        assert excinfo.value.line_number == line_number

    def test_unknown_graph_line(self, tmp_path):
        path = tmp_path / "bad.stp"
        path.write_text("SECTION Graph\nFROBNICATE 1\nEND\nEOF\n")
        with pytest.raises(ParseError):
            read_stp(path)

    def test_terminal_outside_nodes(self, tmp_path):
        path = tmp_path / "bad.stp"
        path.write_text(
            "SECTION Graph\nNodes 2\nEdges 1\nE 1 2 1\nEND\n"
            "SECTION Terminals\nTerminals 1\nT 9\nEND\nEOF\n"
        )
        with pytest.raises(ParseError):
            read_stp(path)

    def test_generated_suites_roundtrip(self, tmp_path):
        from repro.datasets.steinlib import puc_like, vienna_like

        for instance in (puc_like(0), vienna_like(0)):
            path = tmp_path / f"{instance.name}.stp"
            write_stp(instance, path)
            loaded = read_stp(path)
            assert loaded.num_nodes == instance.num_nodes
            assert loaded.num_edges == instance.num_edges
            assert len(loaded.terminals) == len(instance.terminals)
