import math
import random

import pytest

from riccialign import (
    Graph,
    GraphError,
    curvature_distribution,
    curvature_map,
    edge_curvature_unweighted,
    from_edge_list,
    node_curvature,
    node_curvatures,
    write_distribution_csv,
)

from conftest import random_graph, random_connected_graph

K2 = [(0, 1)]
P3 = [(0, 1), (1, 2)]
K3 = [(0, 1), (0, 2), (1, 2)]


def test_unweighted_edge_curvature_small_graphs():
    assert edge_curvature_unweighted(from_edge_list(K2), (0, 1)) == 0
    assert edge_curvature_unweighted(from_edge_list(P3), (0, 1)) == -1


def test_unweighted_edge_curvature_worked_example(example_graph):
    # hub-to-leaf edge: 2 - deg(leaf) - deg(hub) = 2 - 1 - 3
    assert edge_curvature_unweighted(example_graph, (0, 1)) == -2


def test_unweighted_edge_curvature_missing_edge():
    with pytest.raises(GraphError):
        edge_curvature_unweighted(from_edge_list(P3), (0, 2))


def test_weighted_matches_unweighted_at_unit_weights():
    for seed in range(5):
        g = random_graph(12, 0.3, seed)
        unit = curvature_map(g, node_weights={v: 1.0 for v in g.nodes},
                             edge_weights={e: 1.0 for e in g.edges})
        for e in g.edges:
            assert unit.edge_curvature[e] == edge_curvature_unweighted(g, e)


def test_weighted_k2_is_zero():
    cm = curvature_map(Graph(2, K2), node_weights={0: 1.0, 1: 1.0},
                       edge_weights={(0, 1): 1.0})
    assert cm.edge_curvature[(0, 1)] == 0.0


def _substituted_curvature(edge_weights, node_weights, e):
    # direct formula evaluation, independent of the library path
    (v1, v2), w_e = e, edge_weights[e]
    inc1 = [f for f in edge_weights if v1 in f]
    inc2 = [f for f in edge_weights if v2 in f]
    s1 = sum(node_weights[v1] / math.sqrt(w_e * edge_weights[f]) for f in inc1)
    s2 = sum(node_weights[v2] / math.sqrt(w_e * edge_weights[f]) for f in inc2)
    return w_e * (node_weights[v1] / w_e + node_weights[v2] / w_e - s1 - s2)


def test_weighted_p3_against_substitution_oracle():
    widths = {(0, 1): 4.0, (1, 2): 1.0}
    edge_c = curvature_map(Graph(3, P3), edge_weights=widths).edge_curvature
    node_w = {0: 1.0, 1: 1.0, 2: 1.0}
    assert edge_c[(0, 1)] == pytest.approx(_substituted_curvature(widths, node_w, (0, 1)))
    assert edge_c[(1, 2)] == pytest.approx(_substituted_curvature(widths, node_w, (1, 2)))
    assert edge_c[(0, 1)] == pytest.approx(-2.0)
    assert edge_c[(1, 2)] == pytest.approx(-0.5)


def test_node_curvature_worked_example(example_graph):
    assert node_curvature(example_graph, 2) == -20
    assert node_curvature(example_graph, 3) == -27


def test_node_curvature_k2_and_isolated():
    assert node_curvature(from_edge_list(K2), 0) == 0
    assert node_curvature(from_edge_list([], n=2), 1) == 0
    with pytest.raises(GraphError):
        node_curvature(from_edge_list(K2), 5)


def test_node_curvature_is_integer_when_unweighted():
    g = random_graph(15, 0.3, seed=2)
    assert all(isinstance(c, int) for c in node_curvatures(g))


def test_curvature_map_node_equals_incident_edge_sum():
    for seed in range(5):
        g = random_graph(14, 0.3, seed)
        cm = curvature_map(g)
        for v in g.nodes:
            incident = sum(c for e, c in cm.edge_curvature.items() if v in e)
            assert cm.node_curvature[v] == incident


def test_node_sum_is_twice_edge_sum():
    for seed in range(5):
        g = random_graph(16, 0.25, seed)
        cm = curvature_map(g)
        assert sum(cm.node_curvature.values()) == 2 * sum(cm.edge_curvature.values())


def test_connected_graph_edges_at_most_minus_one():
    for seed in range(5):
        g = random_connected_graph(12, seed)
        for e in g.edges:
            assert edge_curvature_unweighted(g, e) <= -1


def test_distribution_lifted_torus(lifted_torus):
    assert curvature_distribution(lifted_torus) == [(-56, 12), (-40, 12), (-28, 12)]


def test_distribution_torus_class_gaps(lifted_torus):
    values = [v for v, _ in curvature_distribution(lifted_torus)]
    a, b, c = values
    assert abs(b - c) < abs(a - b)


def test_distribution_small_graphs():
    assert curvature_distribution(from_edge_list(K3)) == [(-4, 3)]
    assert curvature_distribution(from_edge_list(P3)) == [(-2, 1), (-1, 2)]


def test_distribution_csv(tmp_path):
    path = tmp_path / "hist.csv"
    write_distribution_csv(curvature_distribution(from_edge_list(P3)), path)
    assert path.read_text() == "value,count\n-2,1\n-1,2\n"


@pytest.mark.parametrize("seed", range(5))
def test_weighted_node_curvature_is_incident_edge_sum(seed):
    rng = random.Random(seed)
    g = random_graph(14, 0.3, seed)
    node_w = {v: rng.uniform(0.2, 5.0) for v in g.nodes}
    edge_w = {e: rng.uniform(0.2, 5.0) for e in g.edges}
    expected = [sum(_substituted_curvature(edge_w, node_w, e)
                    for e in g.edges if v in e) for v in g.nodes]
    cm = curvature_map(g, node_weights=node_w, edge_weights=edge_w)
    for v in g.nodes:
        want = pytest.approx(expected[v], rel=1e-12)
        assert cm.node_curvature[v] == want
    assert sum(cm.node_curvature.values()) == pytest.approx(
        2 * sum(cm.edge_curvature.values()), rel=1e-12)
