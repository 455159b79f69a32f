"""Graph Laplacian, labeled signature vectors, and the curvature identity.

Everything here stays in exact integer arithmetic: for every node i,

    Ric(v_i) - (L s^T)_i = 2 deg(v_i) (1 - deg(v_i))

holds with equality, where L = D - A and s is the labeled signature vector
of v_i. That residual is the module's main export.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .curvature import node_curvatures


def laplacian(g: Graph) -> np.ndarray:
    """Dense integer Laplacian L = D - A (degree diagonal minus adjacency)."""
    n = g.num_nodes
    lap = np.zeros((n, n), dtype=np.int64)
    lap[np.repeat(np.arange(n), g.degrees), g.indices] = -1
    lap[np.arange(n), np.arange(n)] = g.degrees
    return lap


def labeled_signature_vector(g: Graph, i: int) -> np.ndarray:
    """Length-N vector s with s_l = deg(v_l) for neighbors of i, deg(v_i) otherwise.

    The self slot l = i takes the "otherwise" branch, i.e. deg(v_i).
    """
    (i,) = g.node_ids([i])
    s = np.full(g.num_nodes, g.degrees[i], dtype=np.int64)
    nbrs = g.indices[g.indptr[i]:g.indptr[i + 1]]
    s[nbrs] = g.degrees[nbrs]
    return s


def _ls_product(g: Graph, i: int) -> int:
    """(L s^T)_i from row i of L = D - A alone; the dense L is never built."""
    s = labeled_signature_vector(g, i)  # checks the id before i indexes anything
    row = np.zeros(g.num_nodes, dtype=np.int64)
    row[g.indices[g.indptr[i]:g.indptr[i + 1]]] = -1
    row[i] = g.degrees[i]
    return int(row @ s)


def curvature_laplacian_residual(g: Graph, i: int) -> int:
    """Ric(v_i) - (L s^T)_i, computed with the actual matrix product.

    This equals 2 deg(v_i) (1 - deg(v_i)) exactly.
    """
    ls = _ls_product(g, i)
    return node_curvatures(g)[i] - ls


def curvature_laplacian_holds(g: Graph) -> bool:
    """Check the identity at every node of g."""
    ric = node_curvatures(g)
    return all(ric[i] - _ls_product(g, i) == 2 * d * (1 - d)
               for i, d in enumerate(g.degrees.tolist()))
