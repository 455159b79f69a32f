from collections import Counter

import pytest

from riccialign import (
    GraphError,
    TorusSpec,
    build_torus,
    from_edge_list,
    lift_to_3d,
    mixed_tiling_2d,
    node_curvatures,
    square_frame_2d,
    triangular_ring_2d,
    triangulate_prisms,
)
from riccialign.tessellation import triangles

from conftest import random_connected_graph


def test_triangular_ring_counts():
    g = triangular_ring_2d()
    assert g.num_nodes == 18
    assert g.num_edges == 36


def test_triangular_ring_degree_classes():
    g = triangular_ring_2d()
    assert [g.degree(v) for v in range(6)] == [5] * 6
    # outer ring alternates between touching two inner nodes and one
    assert [g.degree(v) for v in range(6, 18)] == [4, 3] * 6


def test_square_frame_smallest():
    g = square_frame_2d(3)
    assert g.num_nodes == 8
    assert g.num_edges == 8


def test_square_frame_side_four():
    g = square_frame_2d(4)
    assert g.num_nodes == 12
    assert g.num_edges == 12


def test_square_frame_single_hole():
    for side in range(3, 9):
        g = square_frame_2d(side)
        assert g.is_connected()
        assert g.num_edges - g.num_nodes + 1 == 1
        assert all(g.degree(v) == 2 for v in g.nodes)


def test_square_frame_rejects_small_side():
    with pytest.raises(GraphError):
        square_frame_2d(2)


def test_mixed_tiling_counts():
    g = mixed_tiling_2d()
    assert g.num_nodes == 18
    # the central hexagon is the cycle 0..5
    for i in range(6):
        assert g.has_edge(i, (i + 1) % 6)
    degrees = Counter(g.degree(v) for v in g.nodes)
    assert degrees == {4: 6, 3: 12}
    assert len(degrees) >= 2


def test_lift_torus_counts(lifted_torus):
    assert lifted_torus.num_nodes == 36
    assert lifted_torus.num_edges == 90
    assert lifted_torus.degree(0) == 6  # inner hexagon: 5 in-plane plus vertical


def test_lift_k2_is_four_cycle():
    lifted = lift_to_3d(from_edge_list([(0, 1)]))
    assert lifted.num_nodes == 4
    assert lifted.num_edges == 4
    assert all(lifted.degree(v) == 2 for v in lifted.nodes)
    assert lifted.is_connected()


def test_lift_increments_every_degree():
    g = random_connected_graph(15, seed=4)
    lifted = lift_to_3d(g)
    for v in g.nodes:
        assert lifted.degree(v) == g.degree(v) + 1
        assert lifted.degree(v + g.num_nodes) == g.degree(v) + 1


def test_lift_preserves_connectivity():
    for seed in range(5):
        g = random_connected_graph(12, seed)
        assert lift_to_3d(g).is_connected()


def test_torus_curvature_classes_locate_the_hole(lifted_torus):
    curv = node_curvatures(lifted_torus)
    lowest = min(curv)
    hole_nodes = {v for v in lifted_torus.nodes if curv[v] == lowest}
    # inner hexagon of both layers
    assert hole_nodes == set(range(6)) | set(range(18, 24))


def test_torus_row_forms(lifted_torus):
    from riccialign import ricci_matrix

    rows = ricci_matrix(lifted_torus, 6).rows
    forms = {tuple(int(x) for x in row) for row in rows}
    assert forms == {
        (-56, -56, -56, -40, -40, -28),
        (-56, -56, -40, -28, -28, 0),
        (-56, -40, -40, -28, 0, 0),
    }


def test_ring_triangle_enumeration():
    assert len(triangles(triangular_ring_2d())) == 18
    assert triangles(from_edge_list([(0, 1), (1, 2)])) == []


def test_triangulate_single_prism():
    prism = from_edge_list(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    out = triangulate_prisms(prism, [((0, 1, 2), (3, 4, 5))])
    assert out.num_edges == 12
    assert out.has_edge(0, 4) and out.has_edge(1, 5) and out.has_edge(2, 3)


def _two_prisms():
    # prisms (0,1,2)/(3,4,5) and (1,2,6)/(4,5,7) glued on the rectangle 1-2-5-4
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5),
             (1, 6), (2, 6), (4, 7), (5, 7), (6, 7)]
    return from_edge_list(edges)


def test_triangulate_shared_face_coincident_diagonals():
    g = _two_prisms()
    assert g.num_edges == 14
    out = triangulate_prisms(g, [((0, 1, 2), (3, 4, 5)), ((1, 2, 6), (4, 5, 7))])
    # both prisms put the same diagonal (1,5) on the shared face
    assert out.num_edges == 19


def test_triangulate_shared_face_crossing_diagonals():
    g = _two_prisms()
    out = triangulate_prisms(g, [((0, 1, 2), (3, 4, 5)), ((2, 1, 6), (5, 4, 7))])
    # reversed order flips the second prism's diagonal to (2,4); both kept
    assert out.num_edges == 20
    assert out.has_edge(1, 5) and out.has_edge(2, 4)


def test_triangulate_empty_prism_list_is_identity(lifted_torus):
    assert triangulate_prisms(lifted_torus, []) == lifted_torus


def test_triangulate_rejects_non_triangle():
    prism = from_edge_list(
        [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(GraphError):
        triangulate_prisms(prism, [((0, 1, 2), (3, 4, 5))])


def test_triangulate_rejects_non_corresponding_faces():
    prism = from_edge_list(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 4), (1, 3), (2, 5)])
    with pytest.raises(GraphError):
        triangulate_prisms(prism, [((0, 1, 2), (3, 4, 5))])


def test_torus_spec_validation():
    with pytest.raises(GraphError):
        TorusSpec(tiling="square", lifted=True, prism_triangulated=True)
    with pytest.raises(GraphError):
        TorusSpec(tiling="triangular", lifted=False, prism_triangulated=True)
    with pytest.raises(GraphError):
        TorusSpec(tiling="penrose")


def test_build_torus_dispatch():
    assert build_torus(TorusSpec("triangular")).num_nodes == 18
    assert build_torus(TorusSpec("square"), square_side=5).num_nodes == 16
    assert build_torus(TorusSpec("mixed")).num_nodes == 18
    lifted = build_torus(TorusSpec("triangular", lifted=True))
    assert (lifted.num_nodes, lifted.num_edges) == (36, 90)
    full = build_torus(TorusSpec("triangular", lifted=True, prism_triangulated=True))
    # 18 prisms, 3 diagonals each, no shared-face collisions with this orientation
    assert full.num_nodes == 36
    assert full.num_edges > 90
