"""Line-graph transformation with provenance back to the original edges.

The line graph L(G) has one node per edge of G, with two nodes adjacent iff
the originating edges share an endpoint. Each original node of degree d
therefore becomes a d-clique, which is what makes line graphs useful as
denser, more surface-like stand-ins for the original network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError


@dataclass(frozen=True)
class LineGraphResult:
    """A line graph plus the map from its node ids to the original edges."""

    graph: Graph
    node_origin: dict


def line_graph(g: Graph) -> LineGraphResult:
    """Build L(G). New node ids follow the lexicographic order of g.edges.

    The node_origin map records new id -> originating (u, v) pair, and the
    returned graph's original_labels carry "u-v" strings (using the parent's
    labels when it has any). Construction is quadratic in the largest degree,
    which is accepted: each degree-d node emits its d-choose-2 clique edges.
    """
    if g.num_edges == 0:
        raise GraphError("line graph of an edgeless graph is undefined here")
    # edge id of every CSR slot; along a row the ids ascend with the neighbor
    rows = np.repeat(np.arange(g.num_nodes), g.degrees)
    slot_edge = g.edge_rows(np.column_stack((rows, g.indices)))

    # clique pairs per node: slot s pairs with every later slot of its row
    later = g.indptr[rows + 1] - 1 - np.arange(len(rows))
    first = np.repeat(np.arange(len(rows)), later)
    run_start = np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + np.arange(len(first)) - run_start
    new_edges = np.column_stack((slot_edge[first], slot_edge[second]))

    parent = g.original_labels or {}
    names = [parent.get(v, str(v)) for v in g.nodes]
    origin = dict(enumerate(g.edges))
    labels = {i: f"{names[u]}-{names[v]}" for i, (u, v) in origin.items()}
    lg = Graph(g.num_edges, new_edges, original_labels=labels)
    return LineGraphResult(graph=lg, node_origin=origin)


def edge_pair_count(g: Graph) -> int:
    """Number of adjacent edge pairs, sum over nodes of C(deg, 2).

    This is |E(L(G))|, kept as an independent size oracle for line_graph.
    """
    return sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in g.nodes)
