"""Generators for regularly tiled rings and their lifted 3D tori.

The triangular ring is a fixed 18-node instance (a hexagonal ring of
equilateral triangles); the square frame and the mixed hexagon/square/triangle
tiling are the other flat one-hole shapes. ``lift_to_3d`` duplicates a flat
ring and joins corresponding nodes, which is the torus used throughout the
alignment experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, GraphError

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


def square_frame_2d(side: int) -> Graph:
    """Boundary cycle of a side x side node grid (a square frame with one hole).

    side >= 3 so a hole exists; the result is the cycle on 4*(side-1) nodes,
    numbered in row-major grid order.
    """
    if side < 3:
        raise GraphError(f"side must be >= 3 to enclose a hole, got {side}")
    boundary = [(r, c) for r in range(side) for c in range(side)
                if r in (0, side - 1) or c in (0, side - 1)]
    index = {p: i for i, p in enumerate(boundary)}
    edges = []
    for r, c in boundary:
        for q in ((r, c + 1), (r + 1, c)):
            if q in index:
                edges.append((index[(r, c)], index[q]))
    return Graph(len(boundary), edges)


def mixed_tiling_2d() -> Graph:
    """Hexagon ringed by six squares, with six triangles filling the gaps.

    Nodes 0..5 are the central hexagon; square i on hexagon edge (i, i+1)
    adds outer corners 6+2i (above vertex i) and 7+2i (above vertex i+1).
    The 60-degree gap at each hexagon vertex is closed by one triangle edge
    between the adjacent squares' outer corners. 18 nodes, 30 edges.
    """
    edges = []
    for i in range(6):
        j = (i + 1) % 6
        a_i, b_i = 6 + 2 * i, 7 + 2 * i
        edges.append((i, j))            # hexagon boundary
        edges.append((i, a_i))          # square sides
        edges.append((j, b_i))
        edges.append((a_i, b_i))        # square outer side
        b_prev = 7 + 2 * ((i - 1) % 6)
        edges.append((b_prev, a_i))     # gap triangle's outer edge
    return Graph(18, edges)


def lift_to_3d(g2d: Graph) -> Graph:
    """Two copies of g2d joined by one vertical edge per node.

    Node v of the flat graph becomes v (bottom) and v + N (top), so
    N' = 2N and |E'| = 2|E| + N. Labels carry over to both copies, the top
    one suffixed "+top".
    """
    n = g2d.num_nodes
    edges = list(g2d.edges)
    edges += [(u + n, v + n) for u, v in g2d.edges]
    edges += [(v, v + n) for v in range(n)]
    labels = None
    if g2d.original_labels is not None:
        labels = dict(g2d.original_labels)
        labels.update({v + n: lab + "+top" for v, lab in g2d.original_labels.items()})
    return Graph(2 * n, edges, original_labels=labels)


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All 3-cliques of g, each as an ascending triple, lexicographically sorted."""
    out = []
    for u, v in g.edges:
        for w in g.neighbors(u):
            if w > v and g.has_edge(v, w):
                out.append((u, v, w))
    return sorted(out)


def triangulate_prisms(g: Graph, prisms) -> Graph:
    """Split each prism of a lifted triangular tiling into tetrahedra.

    Every prism is a (bottom, top) pair of corresponding node triples: both
    triples must be triangles of g and bottom[i] must be joined to top[i].
    Three diagonals bottom[i] -> top[(i+1) % 3] are added per prism; a
    diagonal that already exists (a shared face triangulated twice the same
    way) is simply not duplicated.
    """
    new_edges = list(g.edges)
    for bottom, top in prisms:
        bottom, top = tuple(bottom), tuple(top)
        if len(bottom) != 3 or len(top) != 3:
            raise GraphError(f"prism faces must be node triples: {bottom}, {top}")
        for tri in (bottom, top):
            for a, b in combinations(tri, 2):
                if not g.has_edge(a, b):
                    raise GraphError(f"{tri} is not a triangle of the graph")
        for i in range(3):
            if not g.has_edge(bottom[i], top[i]):
                raise GraphError(
                    f"prism faces {bottom}/{top} do not correspond: "
                    f"no vertical edge ({bottom[i]}, {top[i]})")
        new_edges += [(bottom[i], top[(i + 1) % 3]) for i in range(3)]
    return Graph(g.num_nodes, new_edges, original_labels=g.original_labels)


@dataclass(frozen=True)
class TorusSpec:
    """Recipe for a tiled ring or torus.

    prism_triangulated requires a lifted triangular tiling.
    """

    tiling: str = "triangular"
    lifted: bool = False
    prism_triangulated: bool = False

    def __post_init__(self):
        if self.tiling not in ("triangular", "square", "mixed"):
            raise GraphError(f"unknown tiling {self.tiling!r}")
        if self.prism_triangulated and not (self.tiling == "triangular" and self.lifted):
            raise GraphError("prism triangulation requires a lifted triangular tiling")


def build_torus(spec: TorusSpec, square_side: int = 4) -> Graph:
    """Materialize a TorusSpec; `square_side` only applies to square tiling."""
    if spec.tiling == "triangular":
        flat = triangular_ring_2d()
    elif spec.tiling == "square":
        flat = square_frame_2d(square_side)
    else:
        flat = mixed_tiling_2d()
    if not spec.lifted:
        return flat
    lifted = lift_to_3d(flat)
    if not spec.prism_triangulated:
        return lifted
    n = flat.num_nodes
    prisms = [(tri, tuple(v + n for v in tri)) for tri in triangles(flat)]
    return triangulate_prisms(lifted, prisms)
