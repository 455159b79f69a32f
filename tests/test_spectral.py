"""The curvature-Laplacian identity and the dense reference that checks it.

`conftest.dense_laplacian` and `conftest.labeled_signature_vector` build
L = D - A and the per-node signature vectors s_i as the paper defines them.
The package computes every residual Ric(v_i) - (L s_i^T)_i at once, with
neither (`curvature_laplacian_residuals`).
"""

import random

import numpy as np
import pytest

from riccialign import (
    GraphError,
    cli,
    curvature,
    curvature_laplacian_holds,
    curvature_laplacian_residuals,
    from_edge_list,
    line_graph,
)

from conftest import (dense_laplacian, edge_array_reads, labeled_signature_vector,
                      random_connected_graph, random_graph)


def test_laplacian_k2():
    assert dense_laplacian(from_edge_list([(0, 1)])).tolist() == [[1, -1], [-1, 1]]


def test_laplacian_p3():
    expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert dense_laplacian(from_edge_list([(0, 1), (1, 2)])).tolist() == expected


def test_laplacian_rows_sum_to_zero():
    for seed in range(8):
        g = random_graph(20, 0.25, seed)
        assert (dense_laplacian(g).sum(axis=1) == 0).all()


def test_laplacian_is_positive_semidefinite():
    rng = random.Random(11)
    for seed in range(5):
        g = random_graph(15, 0.3, seed)
        lap = dense_laplacian(g)
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
    assert curvature_laplacian_residuals(from_edge_list([(0, 1)])).tolist() == [0, 0]


def test_residual_p3_middle_node():
    p3 = from_edge_list([(0, 1), (1, 2)])
    assert curvature_laplacian_residuals(p3).tolist() == [0, 2 * 2 * (1 - 2), 0] == [0, -4, 0]


def test_identity_on_random_connected_graphs():
    for seed in range(100):
        n = random.Random(seed).randint(2, 30)
        g = random_connected_graph(n, seed)
        d = g.degrees
        assert curvature_laplacian_residuals(g).tolist() == (2 * d * (1 - d)).tolist()


def test_identity_on_torus_and_line_graphs(lifted_torus):
    assert curvature_laplacian_holds(lifted_torus)
    assert curvature_laplacian_holds(line_graph(from_edge_list([(0, 1), (0, 2), (1, 2)])).graph)
    assert curvature_laplacian_holds(line_graph(from_edge_list([(0, 1), (0, 2), (0, 3)])).graph)


def test_identity_check_reads_the_edge_list_once(lifted_torus):
    # Ric is summed over the CSR slots by edge id: edge_curvatures makes the one read
    with edge_array_reads() as reads:
        assert curvature_laplacian_holds(lifted_torus)
    assert len(reads) == 1 and reads[0] is lifted_torus


def test_laplacian_action_matches_neighbor_degree_differences():
    # (L s_i^T)_i = (L deg)_i = sum over neighbors l of (deg_i - deg_l): the
    # step that lets the package skip s_i
    for seed in range(10):
        g = random_graph(18, 0.3, seed)
        lap = dense_laplacian(g)
        l_deg = lap @ g.degrees
        for v in g.nodes:
            nbrs = g.indices[g.indptr[v]:g.indptr[v + 1]]
            direct = int((g.degrees[v] - g.degrees[nbrs]).sum())
            assert int(lap[v] @ labeled_signature_vector(g, v)) == l_deg[v] == direct


def test_identity_check_fails_on_a_wrong_curvature(monkeypatch, capsys, lifted_torus):
    edge_curvatures = curvature.edge_curvatures

    def off_by_one_at_edge_0(g):
        curv = edge_curvatures(g)
        curv[0] += 1
        return curv

    monkeypatch.setattr(curvature, "edge_curvatures", off_by_one_at_edge_0)
    assert not curvature_laplacian_holds(lifted_torus)
    assert cli.main(["verify-cle", "--random-graphs", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL  lifted triangular torus"
    assert lines[-1] == "0/5 graphs satisfy the identity"
