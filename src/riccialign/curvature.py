"""Forman-Ricci curvature on edges and nodes.

The curvature of an edge {v1, v2} is 2 - deg(v1) - deg(v2), and a node's
curvature is the sum over its incident edges; this is the form RMC uses.
`curvature_map` alone also takes optional positive node and edge weights
(absent ones are 1) and evaluates Forman's weighted form

    Ric(e) = w_e * (w_v1/w_e + w_v2/w_e
                    - sum_{f ~ v1} w_v1 / sqrt(w_e * w_f)
                    - sum_{f ~ v2} w_v2 / sqrt(w_e * w_f))

with the incident-edge sums ranging over ALL edges at each endpoint,
including e itself, so that unit weights give the unweighted values. All
functions are pure; evaluating them concurrently over an immutable graph is
safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, GraphError


def _weights(weights: dict) -> np.ndarray:
    """The values of a weight dict as float64; each must be finite and > 0."""
    try:
        w = np.array(list(weights.values()), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"weights must be numbers: {exc}") from exc
    bad = ~(np.isfinite(w) & (w > 0))
    if bad.any():
        key = list(weights)[bad.argmax()]
        raise GraphError(f"weight {w[bad.argmax()]} at {key} is not finite and positive")
    return w


def _edge_curvatures(g: Graph, node_weights=None, edge_weights=None) -> np.ndarray:
    """Curvature of every edge, in ``g.edge_array`` order.

    int64 2 - deg(v1) - deg(v2) without weights. With weights (node id ->
    weight, (u, v) in either orientation but not both -> weight), the
    formula above rearranged as
    w_v1 + w_v2 - sqrt(w_e) * (w_v1 * S_v1 + w_v2 * S_v2), with S_x the sum
    of 1 / sqrt(w_f) over all edges f at x.
    """
    n, ends = g.num_nodes, g.edge_array
    u, v = ends.T
    if not node_weights and not edge_weights:
        return 2 - g.degrees[u] - g.degrees[v]
    w_node, w_edge = np.ones(n), np.ones(len(ends))
    if node_weights:
        w_node[g.node_ids(node_weights.keys())] = _weights(node_weights)
    if edge_weights:
        rows = g.edge_rows(edge_weights.keys())
        named, counts = np.unique(rows, return_counts=True)
        if (counts > 1).any():  # (u, v) and (v, u) name one edge
            edge = tuple(ends[named[counts.argmax()]].tolist())
            raise GraphError(f"edge {edge} is given more than one weight")
        w_edge[rows] = _weights(edge_weights)
    s = np.bincount(ends.ravel(), np.repeat(1 / np.sqrt(w_edge), 2), minlength=n)
    return w_node[u] + w_node[v] - np.sqrt(w_edge) * (w_node[u] * s[u] + w_node[v] * s[v])


def _node_sums(g: Graph, edge_c: np.ndarray) -> np.ndarray:
    """Sum of edge_c over each node's incident edges, in edge order."""
    out = np.zeros(g.num_nodes, dtype=edge_c.dtype)
    np.add.at(out, g.edge_array.ravel(), np.repeat(edge_c, 2))
    return out


def edge_curvature_unweighted(g: Graph, e) -> int:
    """Curvature 2 - deg(v1) - deg(v2) of an existing edge (one O(E) pass)."""
    (row,) = g.edge_rows([e])
    return int(_edge_curvatures(g)[row])


def node_curvature(g: Graph, v: int):
    """Sum of v's incident-edge curvatures, an int (one O(E) pass)."""
    (v,) = g.node_ids([v])
    return node_curvatures(g)[v]


def node_curvatures(g: Graph) -> list:
    """Curvatures of all nodes, indexed by node id (one O(E) pass)."""
    return _node_sums(g, _edge_curvatures(g)).tolist()


@dataclass(frozen=True)
class CurvatureMap:
    """Per-edge and per-node Forman-Ricci curvature of one graph."""

    edge_curvature: dict
    node_curvature: dict


def curvature_map(g: Graph, node_weights=None, edge_weights=None) -> CurvatureMap:
    """Compute every edge and node curvature of g (one O(E) pass).

    Without weights the values are ints. `node_weights` maps node ids and
    `edge_weights` maps edges, given as (u, v) in either orientation, to
    finite positive weights; any weight given makes every value a float of
    the weighted form, with absent weights 1. Bad keys or weights, and an
    edge given in both orientations, raise GraphError.
    """
    edge_c = _edge_curvatures(g, node_weights, edge_weights)
    return CurvatureMap(edge_curvature=dict(zip(g.edges, edge_c.tolist())),
                        node_curvature=dict(enumerate(_node_sums(g, edge_c).tolist())))


def curvature_distribution(g: Graph) -> list[tuple]:
    """Node-curvature histogram as (value, count) pairs, value ascending."""
    return sorted(Counter(node_curvatures(g)).items())


def write_distribution_csv(distribution, path) -> None:
    """Write a (value, count) histogram as `value,count` lines."""
    with Path(path).open("w") as fh:
        fh.write("value,count\n")
        for value, count in distribution:
            fh.write(f"{value},{count}\n")
