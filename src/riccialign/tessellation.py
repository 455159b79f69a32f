"""The paper's triangular ring and its 3D lift.

The triangular ring is a fixed 18-node instance (a hexagonal ring of
equilateral triangles). ``lift_to_3d`` duplicates a flat ring and joins
corresponding nodes, which is the torus used throughout the alignment
experiments.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

# Hexagonal ring of triangles: inner hexagon 0..5, outer ring 6..17
# (ids are the manual construction's 1..18 shifted down by one).
TRIANGULAR_RING_EDGES: tuple[tuple[int, int], ...] = tuple(sorted(
    (u - 1, v - 1) if u < v else (v - 1, u - 1)
    for u, v in [
        (1, 2), (1, 6), (1, 7), (1, 8), (1, 9),
        (2, 9), (2, 10), (2, 11), (2, 3),
        (3, 11), (3, 12), (3, 13), (3, 4),
        (4, 13), (4, 14), (4, 15), (4, 5),
        (5, 15), (5, 16), (5, 17), (5, 6),
        (6, 17), (6, 18), (6, 7), (7, 8),
        (7, 18), (8, 9), (9, 10), (10, 11),
        (11, 12), (12, 13), (13, 14), (14, 15),
        (15, 16), (16, 17), (17, 18),
    ]
))


def triangular_ring_2d() -> Graph:
    """The 18-node, 36-edge triangulated hexagonal ring."""
    return Graph(18, TRIANGULAR_RING_EDGES)


def lift_to_3d(g2d: Graph) -> Graph:
    """Two copies of g2d joined by one vertical edge per node.

    Node v of the flat graph becomes v (bottom) and v + N (top), so
    N' = 2N and |E'| = 2|E| + N.
    """
    n = g2d.num_nodes
    ea, ids = g2d.edge_array, np.arange(n)
    return Graph(2 * n, np.concatenate((ea, ea + n, np.column_stack((ids, ids + n)))))
