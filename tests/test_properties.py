"""Property tests: the array-backed Graph and its layers against pure-Python references.

Each reference is the plain loop over tuples and sets that the vectorised
code replaces. The integer results must agree exactly, and the seeded
sampling functions must make the same draws. `align()` is checked against
`hungarian` and against what a zero-cost optimum must satisfy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccialign import (
    Graph,
    GraphError,
    RngHandle,
    align,
    cost_matrix,
    curvature_laplacian_residual,
    degree_matrix,
    delete_edges_randomly,
    edge_pair_count,
    hungarian,
    labeled_signature_vector,
    laplacian,
    line_graph,
    node_curvature,
    node_curvatures,
    random_walk_sample,
    ricci_matrix,
)

# small graphs; no deadline, since first calls pay numpy's warm-up
property_test = settings(deadline=None, max_examples=60)


@st.composite
def edge_lists(draw, max_nodes=12, min_nodes=2):
    """(n, pairs): pairs may repeat and come in either orientation."""
    n = draw(st.integers(min_nodes, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, [(u, v) for u, v in pairs if u != v]


class Reference:
    """Tuple-and-set graph: canonical sorted edges and sorted adjacency lists."""

    def __init__(self, n, pairs):
        self.n = n
        self.edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        self.adj = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.adj = [sorted(a) for a in self.adj]

    def degree(self, v):
        return len(self.adj[v])

    def curvature(self, v):
        d = self.degree(v)
        return d * (2 - d) - sum(self.degree(w) for w in self.adj[v])


def reference_walk(ref, size, rng, max_iter=100):
    """The walk over neighbor tuples, as before the CSR Graph."""
    all_nodes = list(range(ref.n))
    current = rng.choice(all_nodes)
    visited, visited_set, stagnant = [current], {current}, 0
    while len(visited) < size:
        nbrs = tuple(ref.adj[current])
        nxt = rng.choice(nbrs) if nbrs else rng.choice(all_nodes)
        if nxt not in visited_set:
            visited.append(nxt)
            visited_set.add(nxt)
            stagnant = 0
        else:
            stagnant += 1
        if stagnant >= max_iter:
            potential = sorted(set(all_nodes) - visited_set)
            if not potential:
                break
            nxt = rng.choice(potential)
            stagnant = 0
        current = nxt
    return visited


def reference_subgraph_edges(ref, keep):
    index = {v: i for i, v in enumerate(sorted(set(keep)))}
    return tuple((index[u], index[v]) for u, v in ref.edges if u in index and v in index)


@property_test
@given(edge_lists())
def test_accessors_match_reference(data):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    assert g.edges == tuple(ref.edges)
    assert g.num_edges == len(ref.edges)
    assert g == Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    edge_set = set(ref.edges)
    for v in range(n):
        assert g.neighbors(v) == tuple(ref.adj[v])
        assert g.degree(v) == ref.degree(v)
        for w in range(n):
            assert g.has_edge(v, w) == ((min(v, w), max(v, w)) in edge_set)
    assert g.max_degree() == max(ref.degree(v) for v in range(n))


@property_test
@given(edge_lists())
def test_edge_rows_match_reference(data):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    for i, (u, v) in enumerate(ref.edges):
        assert g.edge_rows([(u, v), (v, u)]).tolist() == [i, i]
    flipped = np.array(ref.edges, dtype=np.int32).reshape(-1, 2)[:, ::-1]
    assert g.edge_rows(flipped).tolist() == list(range(len(ref.edges)))
    edge_set = set(ref.edges)
    for u in range(n):
        for v in range(n):
            if (min(u, v), max(u, v)) not in edge_set:  # self-pairs included
                with pytest.raises(GraphError):
                    g.edge_rows([(u, v)])


@property_test
@given(edge_lists(), st.data())
def test_induced_subgraph_matches_reference(data, draw):
    n, pairs = data
    keep = draw.draw(st.sets(st.integers(0, n - 1), min_size=1))
    g, ref = Graph(n, pairs), Reference(n, pairs)
    sub = g.induced_subgraph(keep)
    assert sub.num_nodes == len(keep)
    assert sub.edges == reference_subgraph_edges(ref, keep)
    assert sub.original_labels == {i: str(v) for i, v in enumerate(sorted(keep))}


@property_test
@given(edge_lists())
def test_line_graph_matches_reference(data):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    if not ref.edges:
        return
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ref.edges):
        incident[u].append(i)
        incident[v].append(i)
    expected = sorted((ids[a], ids[b]) for ids in incident
                      for a in range(len(ids)) for b in range(a + 1, len(ids)))
    result = line_graph(g)
    assert result.graph.edges == tuple(expected)
    assert result.graph.num_edges == edge_pair_count(g)
    assert result.node_origin == dict(enumerate(ref.edges))


@property_test
@given(edge_lists())
def test_curvatures_and_signature_rows_match_reference(data):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    curv = [ref.curvature(v) for v in range(n)]
    assert node_curvatures(g) == curv
    m = g.max_degree() + 1
    for matrix, feature in ((degree_matrix(g, m), ref.degree),
                            (ricci_matrix(g, m), curv.__getitem__)):
        for v in range(n):
            row = sorted(feature(w) for w in ref.adj[v])
            assert matrix.rows[v].tolist() == row + [0] * (m - len(row))


@property_test
@given(edge_lists(), st.integers(0, 2**32), st.floats(0.0, 1.0))
def test_walk_and_deletion_draw_like_the_tuple_reference(data, seed, p):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    size = 1 + seed % n
    rng, ref_rng = RngHandle(seed), RngHandle(seed)
    sample = random_walk_sample(g, size, rng)
    visited = reference_walk(ref, size, ref_rng)
    assert sample.edges == reference_subgraph_edges(ref, visited)
    kept = delete_edges_randomly(sample, p, rng)
    assert kept.edges == tuple(e for e in sample.edges if ref_rng.random() >= p)


@property_test
@given(edge_lists())
def test_curvature_laplacian_identity_on_random_graphs(data):
    n, pairs = data
    g = Graph(n, pairs)
    lap = laplacian(g)
    for v in range(n):
        d = g.degree(v)
        residual = curvature_laplacian_residual(g, v)
        assert residual == 2 * d * (1 - d)
        assert residual == node_curvature(g, v) - lap[v] @ labeled_signature_vector(g, v)


MODES = st.sampled_from(["degree", "ricci"])


def signature_rows(g, m, mode):
    return (degree_matrix if mode == "degree" else ricci_matrix)(g, m).rows


@property_test
@given(edge_lists(), st.randoms(use_true_random=False), MODES)
def test_align_relabelled_copy_pairs_equal_rows_at_zero_cost(data, rnd, mode):
    n, pairs = data
    perm = list(range(n))
    rnd.shuffle(perm)
    g = Graph(n, pairs)
    h = Graph(n, [(perm[u], perm[v]) for u, v in pairs])
    result = align(g, h, mode=mode)
    assert sorted(result.mapping) == list(range(n))
    assert sorted(result.mapping.values()) == list(range(n))
    m = g.max_degree()
    rows_g, rows_h = signature_rows(g, m, mode), signature_rows(h, m, mode)
    for v, w in result.mapping.items():
        assert rows_g[v].tolist() == rows_h[w].tolist()
    assert result.total_cost == 0.0


@property_test
@given(edge_lists(), MODES)
def test_align_graph_with_itself_is_the_identity(data, mode):
    n, pairs = data
    g = Graph(n, pairs)
    assert align(g, g, mode=mode).mapping == {v: v for v in range(n)}


@property_test
@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(edge_lists(n, min_nodes=n), edge_lists(n, min_nodes=n))), MODES)
def test_align_is_hungarian_unless_the_row_multisets_match(data, mode):
    (n, pairs1), (_, pairs2) = data
    g1, g2 = Graph(n, pairs1), Graph(n, pairs2)
    result = align(g1, g2, mode=mode)
    m = max(g1.max_degree(), g2.max_degree())
    build = degree_matrix if mode == "degree" else ricci_matrix
    solved = hungarian(cost_matrix(build(g1, m), build(g2, m)))
    rows1, rows2 = signature_rows(g1, m, mode), signature_rows(g2, m, mode)
    if sorted(map(tuple, rows1.tolist())) != sorted(map(tuple, rows2.tolist())):
        assert result.mapping == solved.mapping
        assert result.total_cost.hex() == solved.total_cost.hex()
    else:
        assert solved.total_cost == result.total_cost == 0.0
        assert all(rows1[v].tolist() == rows2[w].tolist() for v, w in result.mapping.items())
