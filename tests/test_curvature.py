import numpy as np
import pytest

from riccialign import (
    Graph,
    curvature_distribution,
    edge_curvatures,
    from_edge_list,
    node_curvatures,
)

from conftest import random_graph, random_connected_graph

K2 = [(0, 1)]
P3 = [(0, 1), (1, 2)]
K3 = [(0, 1), (0, 2), (1, 2)]


def test_unweighted_edge_curvature_small_graphs():
    assert edge_curvatures(from_edge_list(K2)).tolist() == [0]
    assert edge_curvatures(from_edge_list(P3)).tolist() == [-1, -1]


def test_unweighted_edge_curvature_worked_example(example_graph):
    # hub-to-leaf edge: 2 - deg(leaf) - deg(hub) = 2 - 1 - 3
    row = tuple(example_graph.edges).index((0, 1))
    assert edge_curvatures(example_graph)[row] == -2


def test_node_curvature_worked_example(example_graph):
    assert node_curvatures(example_graph)[2] == -20
    assert node_curvatures(example_graph)[3] == -27


def test_node_curvature_k2_and_isolated():
    assert node_curvatures(from_edge_list(K2)) == [0, 0]
    assert node_curvatures(from_edge_list([], n=2)) == [0, 0]


@pytest.mark.parametrize("n, edges", [
    (5, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    (6, [(0, 1), (1, 4), (0, 4), (4, 5)]),
    (5, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    (4, []),
    (0, []),
], ids=["isolated-first", "isolated-middle", "isolated-last", "edgeless", "no-nodes"])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_row_sums_match_per_row_python_sums(n, edges, dtype):
    from riccialign.curvature import _row_sums

    g = Graph(n, edges)
    # values over the dtype's whole range, so that row sums wrap
    info = np.iinfo(dtype)
    values = np.random.default_rng(n).integers(info.min, info.max, size=len(g.indices),
                                               dtype=dtype, endpoint=True)
    sums = _row_sums(g, values)
    assert sums.dtype == dtype and sums.shape == (n,)
    ptr = g.indptr.tolist()
    expected = [sum(values[ptr[v]:ptr[v + 1]].tolist()) % 2 ** 64 for v in range(n)]
    if dtype == np.int64:
        expected = [s - 2 ** 64 if s >= 2 ** 63 else s for s in expected]
    assert sums.tolist() == expected


def test_node_curvature_is_integer_when_unweighted():
    g = random_graph(15, 0.3, seed=2)
    assert all(isinstance(c, int) for c in node_curvatures(g))
    assert edge_curvatures(g).dtype == np.int64


def test_node_curvature_equals_incident_edge_sum():
    for seed in range(5):
        g = random_graph(14, 0.3, seed)
        edge_c = dict(zip(g.edges, edge_curvatures(g).tolist()))
        node_c = node_curvatures(g)
        for v in g.nodes:
            assert node_c[v] == sum(c for e, c in edge_c.items() if v in e)


def test_node_sum_is_twice_edge_sum():
    for seed in range(5):
        g = random_graph(16, 0.25, seed)
        assert sum(node_curvatures(g)) == 2 * int(edge_curvatures(g).sum())


def test_connected_graph_edges_at_most_minus_one():
    for seed in range(5):
        g = random_connected_graph(12, seed)
        assert (edge_curvatures(g) <= -1).all()


def test_distribution_lifted_torus(lifted_torus):
    assert curvature_distribution(lifted_torus) == [(-56, 12), (-40, 12), (-28, 12)]


def test_distribution_torus_class_gaps(lifted_torus):
    values = [v for v, _ in curvature_distribution(lifted_torus)]
    a, b, c = values
    assert abs(b - c) < abs(a - b)


def test_distribution_small_graphs():
    assert curvature_distribution(from_edge_list(K3)) == [(-4, 3)]
    assert curvature_distribution(from_edge_list(P3)) == [(-2, 1), (-1, 2)]
