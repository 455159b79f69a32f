"""Forman-Ricci curvature on edges and nodes, weighted and unweighted.

For an unweighted graph the curvature of an edge {v1, v2} is
2 - deg(v1) - deg(v2), and a node's curvature is the sum over its incident
edges. The weighted form

    Ric(e) = w_e * (w_v1/w_e + w_v2/w_e
                    - sum_{f ~ v1} w_v1 / sqrt(w_e * w_f)
                    - sum_{f ~ v2} w_v2 / sqrt(w_e * w_f))

is evaluated with the incident-edge sums ranging over ALL edges at each
endpoint, including e itself, so that unit weights degenerate exactly to the
unweighted formula. All functions are pure; evaluating them concurrently
over an immutable graph is safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, GraphError


def _edge_curvatures(g: Graph) -> np.ndarray:
    """Curvature of every edge, in ``g.edge_array`` order.

    int64 2 - deg(v1) - deg(v2) when unweighted; otherwise the formula above
    rearranged as w_v1 + w_v2 - sqrt(w_e) * (w_v1 * S_v1 + w_v2 * S_v2), with
    S_x the sum of 1 / sqrt(w_f) over all edges f at x.
    """
    n, ends = g.num_nodes, g.edge_array
    u, v = ends.T
    if g.is_unweighted:
        return 2 - g.degrees[u] - g.degrees[v]
    w_node, w_edge = np.ones(n), np.ones(len(ends))
    if g.node_weights:
        w_node[list(g.node_weights)] = list(g.node_weights.values())
    if g.edge_weights:
        w_edge[g.edge_rows(g.edge_weights.keys())] = list(g.edge_weights.values())
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
    if not g.is_unweighted:
        raise GraphError("graph has non-unit weights; use edge_curvature_weighted")
    return int(_edge_curvatures(g)[row])


def edge_curvature_weighted(g: Graph, e) -> float:
    """Weighted Forman-Ricci curvature of an existing edge (one O(E) pass).

    Requires strictly positive weights (enforced at graph construction).
    Equals edge_curvature_unweighted when every weight is 1.
    """
    (row,) = g.edge_rows([e])
    return float(_edge_curvatures(g)[row])


def node_curvature(g: Graph, v: int):
    """Sum of v's incident-edge curvatures (one O(E) pass); int when unweighted."""
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


def curvature_map(g: Graph) -> CurvatureMap:
    """Compute every edge and node curvature of g (one O(E) pass)."""
    edge_c = _edge_curvatures(g)
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
