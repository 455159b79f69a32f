"""Line-graph transformation.

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
    """A line graph; node i of ``graph`` is row i of the parent's ``edge_array``."""

    graph: Graph


def line_graph(g: Graph) -> LineGraphResult:
    """Build L(G), whose node i is the edge ``g.edge_array[i]`` (``g.edges[i]``).

    New node ids therefore follow the lexicographic order of g.edges.
    Construction is quadratic in the largest degree, which is accepted: each
    degree-d node emits its d-choose-2 clique edges.
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
    return LineGraphResult(graph=Graph(g.num_edges, new_edges))


def edge_pair_count(g: Graph) -> int:
    """Number of adjacent edge pairs, sum over nodes of C(deg, 2).

    This is |E(L(G))|, kept as an independent size oracle for line_graph.
    """
    d = g.degrees
    return int((d * (d - 1) // 2).sum())
