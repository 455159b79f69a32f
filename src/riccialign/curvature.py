"""Forman-Ricci curvature on edges and nodes, in exact integers.

The curvature of an edge {v1, v2} is 2 - deg(v1) - deg(v2), and a node's
curvature is the sum over its incident edges; this is the form RMC uses.
With L = D - A the Laplacian and s_i the labeled signature vector of node i
(s_l = deg_l for l a neighbour of i, deg_i otherwise), every node satisfies

    Ric(v_i) - (L s_i^T)_i = 2 deg_i (1 - deg_i),

which `curvature_laplacian_holds` checks on a whole graph at once. All
functions are pure, so evaluating them concurrently on one graph is safe.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .graph import Graph


def edge_curvatures(g: Graph) -> np.ndarray:
    """int64 curvature 2 - deg(v1) - deg(v2) of every edge, in ``g.edge_array`` order."""
    u, v = g.edge_array.T
    return 2 - g.degrees[u] - g.degrees[v]


def _row_sums(g: Graph, slot_values: np.ndarray) -> np.ndarray:
    """Every node's sum of `slot_values`, one per CSR slot, over its row, in
    their dtype (integer sums wrap as it does): one `np.add.reduceat` over the
    nonempty rows' starts, since it gives an empty row its start element and
    rejects a start at the array's end; an empty row sums to 0."""
    starts = g.indptr[:-1]
    full = starts < g.indptr[1:]
    sums = np.zeros(g.num_nodes, dtype=slot_values.dtype)
    sums[full] = np.add.reduceat(slot_values, starts[full])
    return sums


def node_curvature_array(g: Graph) -> np.ndarray:
    """int64 curvature of every node, indexed by node id.

    Summing 2 - d - d_u over the d neighbours u of a node gives
    Ric(v) = 2d - d^2 - (sum of the neighbours' degrees), read from the CSR
    arrays alone.
    """
    deg = g.degrees
    return deg * (2 - deg) - _row_sums(g, deg[g.indices])


def node_curvatures(g: Graph) -> list:
    """Curvatures of all nodes as Python ints, indexed by node id."""
    return node_curvature_array(g).tolist()


def curvature_laplacian_residuals(g: Graph) -> np.ndarray:
    """int64 Ric(v_i) - (L s_i^T)_i of every node i; each equals 2 deg_i (1 - deg_i).

    Ric sums ``edge_curvatures`` over each node's CSR slots by their edge
    ids, apart from the degree form `node_curvature_array` uses, so the check
    tests the curvatures. Row i of L = D - A is zero outside i's closed
    neighbourhood, where s_i equals the degree vector, so
    (L s_i^T)_i = (L deg)_i = deg_i^2 minus the sum of i's neighbours'
    degrees. Both are row sums over the CSR slots (`_row_sums`).
    """
    ric = _row_sums(g, edge_curvatures(g)[g._slot_edges()])
    deg = g.degrees
    return ric - (deg * deg - _row_sums(g, deg[g.indices]))


def curvature_laplacian_holds(g: Graph) -> bool:
    """Whether the curvature-Laplacian identity holds at every node of g."""
    d = g.degrees
    return np.array_equal(curvature_laplacian_residuals(g), 2 * d * (1 - d))


def curvature_distribution(g: Graph) -> list[tuple]:
    """Node-curvature histogram as (value, count) pairs, value ascending."""
    return sorted(Counter(node_curvatures(g)).items())
