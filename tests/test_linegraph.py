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
    assert tuple(result.graph.edges) == ((0, 1),)


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
    # node i is g.edge_array[i]: only the two edges at node 0 touch
    assert g.edge_array.tolist() == [[0, 1], [0, 5], [2, 3]]
    assert tuple(result.graph.edges) == ((0, 1),)


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


@pytest.mark.parametrize("chunk", [1, 7, 2**20])
def test_line_graph_does_not_depend_on_the_chunk_size(monkeypatch, lifted_torus, chunk):
    # a chunk is at least one row: 1 gives each row its own chunk, 7 a few short
    # rows, and 2**20 the whole graph
    graphs = [random_graph(120, 0.1, seed=6), lifted_torus]
    expected = [line_graph(g).graph for g in graphs]
    monkeypatch.setattr(linegraph, "_CHUNK_ENTRIES", chunk)
    for g, want in zip(graphs, expected):
        got = line_graph(g).graph
        assert got == want
        # int32 ids and int64 offsets, holding the constructor's values
        assert got.indptr.dtype == np.int64 and got.indices.dtype == np.int32
        ref = Graph(got.num_nodes, got.edge_array)
        assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)


def test_line_graph_ids_are_int32_up_to_the_bound(monkeypatch, lifted_torus):
    # L(G) has one node per edge of G: at the bound its ids are int32, one
    # node above it int64; either way the values and the hash are the same
    n = lifted_torus.num_edges
    narrow = line_graph(lifted_torus).graph
    for bound, dtype in ((n, np.int32), (n - 1, np.int64)):
        monkeypatch.setattr(linegraph, "_INT32_NODES", bound)
        got = line_graph(lifted_torus).graph
        assert got.indptr.dtype == np.int64 and got.indices.dtype == dtype
        assert not got.indices.flags.writeable
        assert got == narrow and hash(got) == hash(narrow)
        assert np.array_equal(got.indices, Graph(n, got.edge_array).indices)


def test_a_walk_on_int32_ids_samples_what_it_samples_on_int64_ids():
    # the round's G1 gets int64 ids from either universe, and the same walk
    universe = line_graph(random_connected_graph(60, seed=4)).graph
    wide = Graph(universe.num_nodes, universe.edge_array)
    assert universe.indices.dtype == np.int32 and wide.indices.dtype == np.int64
    for seed in range(5):
        got = random_walk_sample(universe, 40, RngHandle(seed))
        want = random_walk_sample(wide, 40, RngHandle(seed))
        for name in ("indptr", "indices"):
            assert getattr(got, name).dtype == getattr(want, name).dtype == np.int64
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_edges_kept_from_a_line_graph_keep_its_int32_ids():
    universe = line_graph(random_connected_graph(60, seed=4)).graph
    kept = delete_edges_randomly(universe, 0.3, RngHandle(1))
    assert 0 < kept.num_edges < universe.num_edges
    assert kept.indptr.dtype == np.int64 and kept.indices.dtype == np.int32
    assert kept == Graph(kept.num_nodes, kept.edge_array)


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
