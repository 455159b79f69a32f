import numpy as np

from riccialign import Graph, from_edge_list, lift_to_3d, node_curvatures, triangular_ring_2d

from conftest import is_connected, random_connected_graph


def test_triangular_ring_counts():
    g = triangular_ring_2d()
    assert g.num_nodes == 18
    assert g.num_edges == 36


def test_triangular_ring_degree_classes():
    g = triangular_ring_2d()
    assert g.degrees[:6].tolist() == [5] * 6
    # outer ring alternates between touching two inner nodes and one
    assert g.degrees[6:].tolist() == [4, 3] * 6


def test_lift_torus_counts(lifted_torus):
    assert lifted_torus.num_nodes == 36
    assert lifted_torus.num_edges == 90
    assert lifted_torus.degrees[0] == 6  # inner hexagon: 5 in-plane plus vertical


def test_lift_k2_is_four_cycle():
    lifted = lift_to_3d(from_edge_list([(0, 1)]))
    assert lifted.num_nodes == 4
    assert lifted.num_edges == 4
    assert lifted.degrees.tolist() == [2] * 4
    assert is_connected(lifted)


def test_lift_increments_every_degree():
    g = random_connected_graph(15, seed=4)
    lifted = lift_to_3d(g)
    n = g.num_nodes
    assert np.array_equal(lifted.degrees[:n], g.degrees + 1)
    assert np.array_equal(lifted.degrees[n:], g.degrees + 1)


def pair_list_lift(g):
    """The lift built from Python pairs: the reference for `lift_to_3d`."""
    n = g.num_nodes
    edges = list(map(tuple, g.edge_array.tolist()))
    edges += [(u + n, v + n) for u, v in edges]
    edges += [(v, v + n) for v in range(n)]
    return Graph(2 * n, edges)


def test_lift_matches_the_pair_list_construction():
    for g in [triangular_ring_2d()] + [random_connected_graph(20, seed) for seed in range(3)]:
        assert np.array_equal(lift_to_3d(g).edge_array, pair_list_lift(g).edge_array)


def test_lift_preserves_connectivity():
    for seed in range(5):
        g = random_connected_graph(12, seed)
        assert is_connected(lift_to_3d(g))


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
