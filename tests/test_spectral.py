import random

import numpy as np
import pytest

from riccialign import (
    GraphError,
    curvature_laplacian_holds,
    curvature_laplacian_residual,
    from_edge_list,
    labeled_signature_vector,
    laplacian,
    line_graph,
)

from conftest import random_connected_graph, random_graph


def test_laplacian_k2():
    assert laplacian(from_edge_list([(0, 1)])).tolist() == [[1, -1], [-1, 1]]


def test_laplacian_p3():
    expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert laplacian(from_edge_list([(0, 1), (1, 2)])).tolist() == expected


def test_laplacian_rows_sum_to_zero():
    for seed in range(8):
        g = random_graph(20, 0.25, seed)
        assert (laplacian(g).sum(axis=1) == 0).all()


def test_laplacian_is_positive_semidefinite():
    rng = random.Random(11)
    for seed in range(5):
        g = random_graph(15, 0.3, seed)
        lap = laplacian(g)
        for _ in range(20):
            x = np.array([rng.randint(-9, 9) for _ in g.nodes], dtype=np.int64)
            assert x @ lap @ x >= 0


def test_signature_vector_p3():
    p3 = from_edge_list([(0, 1), (1, 2)])
    assert labeled_signature_vector(p3, 1).tolist() == [1, 2, 1]
    # non-neighbor slots (including the node's own) hold the owner's degree
    assert labeled_signature_vector(p3, 0).tolist() == [1, 2, 1]


def test_signature_vector_k3():
    k3 = from_edge_list([(0, 1), (0, 2), (1, 2)])
    for v in k3.nodes:
        assert labeled_signature_vector(k3, v).tolist() == [2, 2, 2]


def test_signature_vector_unknown_node():
    with pytest.raises(GraphError):
        labeled_signature_vector(from_edge_list([(0, 1)]), 7)


def test_residual_k2():
    k2 = from_edge_list([(0, 1)])
    assert curvature_laplacian_residual(k2, 0) == 0
    assert curvature_laplacian_residual(k2, 1) == 0


def test_residual_p3_middle_node():
    p3 = from_edge_list([(0, 1), (1, 2)])
    assert curvature_laplacian_residual(p3, 1) == 2 * 2 * (1 - 2) == -4


def test_identity_on_random_connected_graphs():
    for seed in range(100):
        n = random.Random(seed).randint(2, 30)
        g = random_connected_graph(n, seed)
        for v, d in enumerate(g.degrees.tolist()):
            assert curvature_laplacian_residual(g, v) == 2 * d * (1 - d)


def test_identity_on_torus_and_line_graphs(lifted_torus):
    assert curvature_laplacian_holds(lifted_torus)
    assert curvature_laplacian_holds(line_graph(from_edge_list([(0, 1), (0, 2), (1, 2)])).graph)
    assert curvature_laplacian_holds(line_graph(from_edge_list([(0, 1), (0, 2), (0, 3)])).graph)


def test_laplacian_action_matches_neighbor_degree_differences():
    # (L s^T)_i recomputed as sum over neighbors of (deg_i - deg_l)
    for seed in range(10):
        g = random_graph(18, 0.3, seed)
        lap = laplacian(g)
        for v in g.nodes:
            s = labeled_signature_vector(g, v)
            nbrs = g.indices[g.indptr[v]:g.indptr[v + 1]]
            direct = int((g.degrees[v] - g.degrees[nbrs]).sum())
            assert int(lap[v] @ s) == direct
