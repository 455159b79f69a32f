"""Forman-Ricci curvature on edges and nodes, in exact integers.

The curvature of an edge {v1, v2} is 2 - deg(v1) - deg(v2), and a node's
curvature is the sum over its incident edges; this is the form RMC uses.
All functions are pure; evaluating them concurrently over an immutable graph
is safe.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from .graph import Graph


def edge_curvatures(g: Graph) -> np.ndarray:
    """int64 curvature 2 - deg(v1) - deg(v2) of every edge, in ``g.edge_array`` order."""
    u, v = g.edge_array.T
    return 2 - g.degrees[u] - g.degrees[v]


def node_curvatures(g: Graph) -> list:
    """Curvatures of all nodes, indexed by node id (one O(E) pass)."""
    out = np.zeros(g.num_nodes, dtype=np.int64)
    np.add.at(out, g.edge_array.ravel(), np.repeat(edge_curvatures(g), 2))
    return out.tolist()


def curvature_distribution(g: Graph) -> list[tuple]:
    """Node-curvature histogram as (value, count) pairs, value ascending."""
    return sorted(Counter(node_curvatures(g)).items())


def write_distribution_csv(distribution, path) -> None:
    """Write a (value, count) histogram as `value,count` lines."""
    with Path(path).open("w") as fh:
        fh.write("value,count\n")
        for value, count in distribution:
            fh.write(f"{value},{count}\n")
