"""Graph serialization: whitespace edge lists and SteinLib ``.stp`` files.

The ``.stp`` format is the interchange format of the SteinLib benchmark
collection (http://steinlib.zib.de/) whose ``puc`` and ``vienna`` suites the
paper uses in §6.5.  We implement enough of the format to round-trip our
generated look-alike instances: the ``Comment``, ``Graph`` and ``Terminals``
sections.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import GraphError, ParseError
from repro.graphs.graph import Graph, Node, WeightedGraph


# ----------------------------------------------------------------------
# Edge lists
# ----------------------------------------------------------------------

def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    """Write one ``u v`` line per undirected edge."""
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_edge_list(path: str | os.PathLike, node_type: type = int) -> Graph:
    """Read a whitespace edge list; ``#`` starts a comment line.

    Parameters
    ----------
    node_type:
        Callable applied to each endpoint token (default ``int``; pass
        ``str`` for labelled graphs).
    """
    graph = Graph()
    with open(path, encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"expected 'u v', got {line!r}", line_number)
            try:
                u = node_type(parts[0])
                v = node_type(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line_number) from exc
            if u != v:
                graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# SteinLib .stp
# ----------------------------------------------------------------------

@dataclass
class SteinerInstance:
    """A Steiner-tree problem instance: weighted graph plus terminal set.

    ``name`` carries the benchmark identity (e.g. ``puc-like-08``); nodes
    are 1-based ints as in SteinLib.
    """

    name: str
    graph: WeightedGraph
    terminals: set[Node] = field(default_factory=set)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def unweighted(self) -> tuple[Graph, set[Node]]:
        """Return the unweighted view ``(graph, terminals)`` used by the
        connector algorithms (the paper's graphs are unweighted)."""
        return self.graph.unweighted(), set(self.terminals)


def write_stp(instance: SteinerInstance, path: str | os.PathLike) -> None:
    """Write a SteinLib ``.stp`` file (sections: Comment, Graph, Terminals)."""
    node_index = {node: i + 1 for i, node in enumerate(instance.graph.nodes())}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("33D32945 STP File, STP Format Version 1.0\n\n")
        handle.write("SECTION Comment\n")
        handle.write(f'Name    "{instance.name}"\n')
        handle.write('Creator "repro"\n')
        handle.write("END\n\n")
        handle.write("SECTION Graph\n")
        handle.write(f"Nodes {instance.graph.num_nodes}\n")
        handle.write(f"Edges {instance.graph.num_edges}\n")
        for u, v, w in instance.graph.edges():
            weight = int(w) if float(w).is_integer() else w
            handle.write(f"E {node_index[u]} {node_index[v]} {weight}\n")
        handle.write("END\n\n")
        handle.write("SECTION Terminals\n")
        handle.write(f"Terminals {len(instance.terminals)}\n")
        for terminal in instance.terminals:
            handle.write(f"T {node_index[terminal]}\n")
        handle.write("END\n\nEOF\n")


def read_stp(path: str | os.PathLike) -> SteinerInstance:
    """Parse a SteinLib ``.stp`` file into a :class:`SteinerInstance`.

    Raises
    ------
    ParseError
        On malformed section structure, edge lines, or terminal lines.
    """
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    graph = WeightedGraph()
    terminals: set[Node] = set()
    declared_nodes = 0
    section: str | None = None
    with open(path, encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            upper = line.upper()
            if upper.startswith("SECTION"):
                parts = line.split()
                if len(parts) < 2:
                    raise ParseError("SECTION without a name", line_number)
                section = parts[1].lower()
                continue
            if upper == "END":
                section = None
                continue
            if upper == "EOF":
                break
            if section == "comment":
                if upper.startswith("NAME"):
                    quoted = line.split('"')
                    if len(quoted) >= 2 and quoted[1]:
                        name = quoted[1]
                continue
            if section == "graph":
                _parse_graph_line(line, line_number, graph)
                if upper.startswith("NODES"):
                    declared_nodes = _int_after_tag(line, line_number)
                continue
            if section == "terminals":
                if line.split()[0].upper() == "T":
                    terminals.add(_int_after_tag(line, line_number))
                continue
    # SteinLib numbers nodes 1..N even when some are isolated.
    for node in range(1, declared_nodes + 1):
        graph.add_node(node)
    missing = terminals - set(graph.nodes())
    if missing:
        raise ParseError(f"terminals {sorted(missing)} not among declared nodes")
    return SteinerInstance(name=name, graph=graph, terminals=terminals)


def _parse_graph_line(line: str, line_number: int, graph: WeightedGraph) -> None:
    parts = line.split()
    tag = parts[0].upper()
    if tag in ("NODES", "EDGES", "ARCS"):
        return
    if tag in ("E", "A"):
        if len(parts) < 4:
            raise ParseError(f"edge line needs 'E u v w', got {line!r}", line_number)
        try:
            u, v = int(parts[1]), int(parts[2])
            weight = float(parts[3])
        except ValueError as exc:
            raise ParseError(str(exc), line_number) from exc
        if u != v:
            try:
                graph.add_edge(u, v, weight)
            except GraphError as exc:
                raise ParseError(str(exc), line_number) from exc
        return
    raise ParseError(f"unrecognized graph-section line {line!r}", line_number)


def _int_after_tag(line: str, line_number: int) -> int:
    """The integer after a ``Nodes`` or ``T`` tag."""
    parts = line.split()
    try:
        return int(parts[1])
    except (IndexError, ValueError):
        raise ParseError(
            f"{parts[0]!r} line needs an integer, got {line!r}", line_number
        ) from None
