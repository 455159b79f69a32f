import numpy as np
import pytest

from riccialign import (
    Graph,
    RngHandle,
    align,
    delete_edges_randomly,
    from_edge_list,
    line_graph,
    linegraph,
    random_walk_sample,
)

from conftest import (edge_array_reads, edge_pair_count, is_connected, random_connected_graph,
                      random_graph, traced_peak)

K3 = [(0, 1), (0, 2), (1, 2)]
CLAW = [(0, 1), (0, 2), (0, 3)]


def test_line_graph_of_path_is_single_edge():
    result = line_graph(from_edge_list([(0, 1), (1, 2)]))
    assert result.graph.num_nodes == 2
    assert result.graph.edges == ((0, 1),)


def _is_k3(g: Graph) -> bool:
    return g.num_nodes == 3 and g.num_edges == 3


def test_triangle_and_claw_share_their_line_graph():
    lk3 = line_graph(from_edge_list(K3)).graph
    lclaw = line_graph(from_edge_list(CLAW)).graph
    assert _is_k3(lk3) and _is_k3(lclaw)
    assert sorted(lk3.degrees.tolist()) == sorted(lclaw.degrees.tolist())


def test_line_graph_of_k4():
    k4 = from_edge_list([(i, j) for i in range(4) for j in range(i + 1, 4)])
    result = line_graph(k4)
    assert result.graph.num_nodes == 6
    assert result.graph.num_edges == 12


def test_line_graph_of_an_edgeless_graph_is_empty():
    for n in (0, 4):
        assert line_graph(Graph(n, [])).graph == Graph(0, [])


def test_node_count_equals_original_edge_count():
    for seed in range(10):
        g = random_graph(15, 0.3, seed)
        if g.num_edges == 0:
            continue
        assert line_graph(g).graph.num_nodes == g.num_edges


def test_edge_count_matches_pair_count_oracle():
    for seed in range(10):
        g = random_graph(15, 0.3, seed)
        if g.num_edges == 0:
            continue
        assert line_graph(g).graph.num_edges == edge_pair_count(g)


def test_edge_pair_count_small_cases():
    assert edge_pair_count(from_edge_list([(0, 1), (1, 2)])) == 1
    assert edge_pair_count(from_edge_list(CLAW)) == 3
    assert edge_pair_count(from_edge_list([], n=2)) == 0


def test_origin_order_is_lexicographic():
    g = from_edge_list([(2, 3), (0, 5), (0, 1)])
    result = line_graph(g)
    # node i is g.edges[i]: only the two edges at node 0 touch
    assert [g.edges[i] for i in range(3)] == [(0, 1), (0, 5), (2, 3)]
    assert result.graph.edges == ((0, 1),)


def test_connectivity_is_preserved():
    for seed in range(8):
        g = random_connected_graph(12, seed)
        assert is_connected(line_graph(g).graph)


def test_incident_edges_become_cliques():
    for seed in range(5):
        g = random_graph(12, 0.3, seed)
        if g.num_edges == 0:
            continue
        result = line_graph(g)
        index = {e: i for i, e in enumerate(g.edges)}
        line_edges = set(result.graph.edges)
        for v in g.nodes:
            nbrs = g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
            ids = [index[(min(v, w), max(v, w))] for w in nbrs]
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    assert (min(ids[a], ids[b]), max(ids[a], ids[b])) in line_edges


def test_line_graph_peak_memory_is_about_the_output():
    # the result plus one chunk: no sort of all of L(G)'s entries next to it
    pairs = np.random.default_rng(0).integers(0, 1000, size=(15000, 2))
    g = Graph(1000, pairs[pairs[:, 0] != pairs[:, 1]])
    with edge_array_reads() as reads:
        lg, peak = traced_peak(lambda: line_graph(g).graph)
    assert lg.indices.size >= 8 * linegraph._CHUNK_ENTRIES
    assert len(reads) == 1 and reads[0] is g  # the parent's edges, and no edge list of L(G)
    assert peak <= 1.5 * (lg.indptr.nbytes + lg.indices.nbytes)


def test_a_round_builds_no_edge_list_for_the_universe_or_g2():
    # the walk, induced_subgraph, the deletion and the curvature rows read
    # only the CSR arrays
    parent = random_connected_graph(60, seed=4)
    with edge_array_reads() as reads:
        universe = line_graph(parent).graph
        rng = RngHandle(5)
        g1 = random_walk_sample(universe, 40, rng)
        g2 = delete_edges_randomly(g1, 0.2, rng)
        assert g2.num_edges < g1.num_edges
        align(g1, g2)
    assert len(reads) == 1 and reads[0] is parent  # only line_graph reads its input's edges
