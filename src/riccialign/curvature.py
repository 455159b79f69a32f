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

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, GraphError, canonical_pair


def edge_curvature_unweighted(g: Graph, e) -> int:
    """Curvature 2 - deg(v1) - deg(v2) of an existing edge."""
    u, v = canonical_pair(*e)
    if not g.has_edge(u, v):
        raise GraphError(f"no edge {(u, v)}")
    if not g.is_unweighted:
        raise GraphError("graph has non-unit weights; use edge_curvature_weighted")
    return 2 - g.degree(u) - g.degree(v)


def edge_curvature_weighted(g: Graph, e) -> float:
    """Weighted Forman-Ricci curvature of an existing edge.

    Requires strictly positive weights (enforced at graph construction).
    Equals edge_curvature_unweighted when every weight is 1.
    """
    u, v = canonical_pair(*e)
    if not g.has_edge(u, v):
        raise GraphError(f"no edge {(u, v)}")
    w_e = g.edge_weight(u, v)
    w_u, w_v = g.node_weight(u), g.node_weight(v)
    sum_u = sum(w_u / math.sqrt(w_e * g.edge_weight(u, x)) for x in g.neighbors(u))
    sum_v = sum(w_v / math.sqrt(w_e * g.edge_weight(v, x)) for x in g.neighbors(v))
    return w_e * (w_u / w_e + w_v / w_e - sum_u - sum_v)


def node_curvature(g: Graph, v: int):
    """Sum of incident-edge curvatures (0 for an isolated node).

    Integer for unweighted graphs, float otherwise.
    """
    if g.is_unweighted:
        d = g.degree(v)
        return d * (2 - d) - sum(g.degree(w) for w in g.neighbors(v))
    return sum(edge_curvature_weighted(g, (v, w)) for w in g.neighbors(v))


def node_curvatures(g: Graph) -> list:
    """Curvatures of all nodes, indexed by node id."""
    if g.is_unweighted:
        # d * (2 - d) - A @ d, with A @ d as integer sums over the CSR rows
        deg = g.degrees
        sums = np.concatenate(([0], np.cumsum(deg[g.indices])))
        return (deg * (2 - deg) - (sums[g.indptr[1:]] - sums[g.indptr[:-1]])).tolist()
    edge_c = {e: edge_curvature_weighted(g, e) for e in g.edges}
    out = [0.0] * g.num_nodes
    for (u, v), c in edge_c.items():
        out[u] += c
        out[v] += c
    return out


@dataclass(frozen=True)
class CurvatureMap:
    """Per-edge and per-node Forman-Ricci curvature of one graph."""

    edge_curvature: dict
    node_curvature: dict


def curvature_map(g: Graph) -> CurvatureMap:
    """Compute every edge and node curvature of g."""
    if g.is_unweighted:
        edge_c = {e: 2 - g.degree(e[0]) - g.degree(e[1]) for e in g.edges}
    else:
        edge_c = {e: edge_curvature_weighted(g, e) for e in g.edges}
    node_c = dict(enumerate(node_curvatures(g)))
    return CurvatureMap(edge_curvature=edge_c, node_curvature=node_c)


def curvature_distribution(g: Graph) -> list[tuple]:
    """Node-curvature histogram as (value, count) pairs, value ascending."""
    counts: dict = {}
    for c in node_curvatures(g):
        counts[c] = counts.get(c, 0) + 1
    return sorted(counts.items())


def write_distribution_csv(distribution, path) -> None:
    """Write a (value, count) histogram as `value,count` lines."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("value,count\n")
        for value, count in distribution:
            fh.write(f"{value},{count}\n")
