"""Property tests: the array-backed Graph and its layers against pure-Python references.

Each reference is the plain loop over tuples and sets that the vectorised
code replaces. The integer results must agree exactly, and the seeded
sampling functions must make the same draws. `align()` is checked against
`hungarian`, against the dense rows' void-key pairing on relabelled copies,
against what a zero-cost optimum must satisfy, and for a total cost that
does not depend on G2's node ids.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccialign import (
    Graph,
    GraphError,
    RngHandle,
    align,
    cost_matrix,
    curvature_laplacian_residuals,
    degree_matrix,
    delete_edges_randomly,
    edge_curvatures,
    hungarian,
    lift_to_3d,
    line_graph,
    linegraph,
    node_curvatures,
    random_walk_sample,
    ricci_matrix,
    triangular_ring_2d,
)
from riccialign.alignment import _signature_rows

from conftest import (Reference, dense_laplacian, edge_array_reads, edge_pair_count,
                      labeled_signature_vector, reference_subgraph_edges, reference_walk,
                      void_key_pairing)

# small graphs; no deadline, since first calls pay numpy's warm-up
property_test = settings(deadline=None, max_examples=60)


@st.composite
def edge_lists(draw, max_nodes=12, min_nodes=2):
    """(n, pairs): pairs may repeat and come in either orientation."""
    n = draw(st.integers(min_nodes, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, [(u, v) for u, v in pairs if u != v]


@property_test
@given(edge_lists())
def test_accessors_match_reference(data):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    assert tuple(g.edges) == tuple(ref.edges)
    assert g.num_edges == len(ref.edges)
    assert g == Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert g.degrees.tolist() == [ref.degree(v) for v in range(n)]
    for v in range(n):
        assert g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() == ref.adj[v]
    assert g.max_degree() == max(ref.degree(v) for v in range(n))


@property_test
@given(edge_lists(min_nodes=1))
@example((3, []))
def test_edge_array_is_built_from_the_csr_arrays(data):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    with edge_array_reads() as reads:  # comparing and hashing read the CSR arrays only
        assert g == Graph(n, pairs) and hash(g) == hash(Graph(n, pairs))
        if ref.edges:
            assert g != Graph(n, ref.edges[1:])
    assert reads == []
    edge_array = g.edge_array
    assert edge_array.dtype == np.int64 and not edge_array.flags.writeable
    assert edge_array.shape == (len(ref.edges), 2)
    assert edge_array.tolist() == [list(e) for e in ref.edges]


@property_test
@given(edge_lists(min_nodes=1))
@example((3, []))
def test_edges_iterate_the_edge_array_once_as_pairs_of_plain_ints(data):
    # on the constructor's int64 ids and on a line graph's int32 ids
    g = Graph(*data)
    for h in (g, line_graph(g).graph):
        edges = h.edges
        assert iter(edges) is edges and h.edges is not edges  # a new iterator per read
        pairs = list(edges)
        assert list(edges) == []  # one pass
        assert [list(e) for e in pairs] == h.edge_array.tolist()
        assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int for e in pairs)


def shares_one_int_per_node(pairs) -> bool:
    node = {}
    return all(node.setdefault(v, v) is v for e in pairs for v in e)


def test_edges_share_one_int_object_per_node():
    # ids above CPython's cached small ints (up to 256), on the int64 ids of a
    # 400-node path and on the int32 ids of its line graph
    path = Graph(400, [(v, v + 1) for v in range(399)])
    for h in (path, line_graph(path).graph):
        assert shares_one_int_per_node(h.edges)
        assert not shares_one_int_per_node(h.edge_array.tolist())  # one int per endpoint


@property_test
@given(edge_lists(min_nodes=1))
def test_equal_graphs_hash_alike_across_id_dtypes(data):
    # a line graph's int32 ids against the int64 ids the constructor stores
    lg = line_graph(Graph(*data)).graph
    wide = Graph(lg.num_nodes, lg.edges)
    assert lg.indices.dtype == np.int32 and wide.indices.dtype == np.int64
    assert lg == wide and hash(lg) == hash(wide)


@property_test
@given(edge_lists(min_nodes=1))
@example((3, []))
def test_slot_edges_name_the_edge_each_slot_holds(data):
    n, pairs = data
    g = Graph(n, pairs)
    ids, edge_array = g._slot_edges(), g.edge_array
    assert ids.dtype == np.int64 and ids.shape == g.indices.shape
    for r in g.nodes:
        for s in range(g.indptr[r], g.indptr[r + 1]):
            c = g.indices[s]
            assert edge_array[ids[s]].tolist() == [min(r, c), max(r, c)]
    assert (np.bincount(ids, minlength=g.num_edges) == 2).all()


@property_test
@given(edge_lists(), st.data())
def test_induced_subgraph_matches_reference(data, draw):
    n, pairs = data
    keep = draw.draw(st.sets(st.integers(0, n - 1), min_size=1))
    g, ref = Graph(n, pairs), Reference(n, pairs)
    sub = g.induced_subgraph(keep)
    assert sub.num_nodes == len(keep)
    assert tuple(sub.edges) == reference_subgraph_edges(ref, keep)


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
    assert tuple(result.graph.edges) == tuple(expected)
    assert result.graph.num_edges == edge_pair_count(g)
    assert result.graph.num_nodes == len(ref.edges)
    assert tuple(g.edges) == tuple(ref.edges)  # node i of the line graph is edge i


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
@given(edge_lists(), st.randoms(use_true_random=False))
def test_curvatures_and_signature_rows_move_with_a_relabelling(data, rnd):
    n, pairs = data
    perm = list(range(n))
    rnd.shuffle(perm)  # node v of g is node perm[v] of h
    g = Graph(n, pairs)
    h = Graph(n, [(perm[u], perm[v]) for u, v in pairs])
    index = {e: i for i, e in enumerate(h.edges)}
    moved = [index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in g.edges]
    assert edge_curvatures(h)[moved].tolist() == edge_curvatures(g).tolist()
    node_h = node_curvatures(h)
    assert [node_h[w] for w in perm] == node_curvatures(g)
    m = g.max_degree() + 1
    for build in (ricci_matrix, degree_matrix):
        assert np.array_equal(build(h, m).rows[perm], build(g, m).rows)


@property_test
@given(edge_lists(), st.data())
def test_signature_rows_sort_any_integer_features(data, draw):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    features = draw.draw(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n))
    m = g.max_degree() + draw.draw(st.integers(0, 2))
    rows = _signature_rows(g, m, features)
    for v in range(n):
        row = sorted(features[w] for w in ref.adj[v])
        assert rows[v].tolist() == row + [0] * (m - len(row))


def test_signature_rows_guard_the_sort_key_range():
    g = Graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        _signature_rows(g, 1, [2**62, -2**62])
    # the widest range that still fits: 2 * (2^62 - 1) keys
    assert _signature_rows(g, 1, [0, 2**62 - 2]).tolist() == [[2**62 - 2], [0]]


# n * span around 2^31 on K4 (2^31 - 1 is prime): every key is below n * span,
# and the largest key here fits int32, equals 2^31 - 1, or overflows int32
@pytest.mark.parametrize("span", [2**29 - 1, 2**29, 2**29 + 1])
def test_signature_rows_are_exact_on_both_sides_of_int32_sort_keys(span):
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    low = -7
    features = [low + span - 1, low, low + span // 3, low + span // 2]
    rows = _signature_rows(g, 3, features)
    assert rows.tolist() == [sorted(features[:v] + features[v + 1:]) for v in range(4)]


def assert_stored_like_the_constructor(g):
    """g's arrays equal those Graph() builds from g's own edges."""
    ref = Graph(g.num_nodes, g.edge_array)
    for name in ("indptr", "indices", "edge_array"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.shape == want.shape and np.array_equal(got, want)


@property_test
@given(edge_lists(), st.data(), st.integers(0, 2**32), st.floats(0.0, 1.0))
def test_derived_graphs_store_what_the_constructor_would(data, draw, seed, p):
    n, pairs = data
    g = Graph(n, pairs)
    assert_stored_like_the_constructor(
        g.induced_subgraph(draw.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    assert_stored_like_the_constructor(delete_edges_randomly(g, p, RngHandle(seed)))


@pytest.mark.parametrize("keep", [
    [0, 1, 2, 4, 5], [3], [1, 2, 3, 4, 5, 6], [0, 3, 6], [0, 3, 4], [6, 2, 0, 2, 3, 6],
], ids=["isolated-last", "single-node", "all-but-one", "first-without-kept-neighbour",
        "no-kept-edges", "repeats-unsorted"])
def test_induced_subgraph_edge_cases_store_what_the_constructor_would(keep):
    pairs = [(0, 1), (1, 2), (0, 2), (3, 6)]
    sub = Graph(7, pairs).induced_subgraph(keep)
    assert_stored_like_the_constructor(sub)
    assert tuple(sub.edges) == reference_subgraph_edges(Reference(7, pairs), keep)


@pytest.mark.parametrize("p, kept", [(0.0, 4), (1.0, 0)])
def test_deletion_edge_cases_store_what_the_constructor_would(p, kept):
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 5)])
    out = delete_edges_randomly(g, p, RngHandle(2))
    assert_stored_like_the_constructor(out)
    assert out.num_edges == kept


def clique_pairs(g):
    """Every pair of edge ids that share an endpoint, by a loop over nodes."""
    index = {e: i for i, e in enumerate(g.edges)}
    ref = Reference(g.num_nodes, g.edges)
    return [pair for v in range(g.num_nodes)
            for pair in combinations([index[min(v, w), max(v, w)] for w in ref.adj[v]], 2)]


def assert_line_graph_like_the_constructor(g, chunk):
    """L(g) holds the values the constructor stores for g's clique pairs, with
    int32 ids and an int64 indptr and edge_array."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linegraph, "_CHUNK_ENTRIES", chunk)
        lg = line_graph(g).graph
    ref = Graph(g.num_edges, clique_pairs(g))
    for name, dtype in (("indptr", np.int64), ("indices", np.int32), ("edge_array", np.int64)):
        got, want = getattr(lg, name), getattr(ref, name)
        assert got.dtype == dtype and not got.flags.writeable
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [1, 3, 7])
@property_test
@given(edge_lists())
def test_line_graph_chunks_store_what_the_constructor_would(chunk, data):
    n, pairs = data
    g = Graph(n, pairs)
    if g.num_edges:
        assert_line_graph_like_the_constructor(g, chunk)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_line_graph_chunks_hold_empty_and_overlong_rows(chunk):
    # a 9-leaf star, whose rows gather 10 ids, then two lone edges and a path
    g = Graph(18, [(0, v) for v in range(1, 10)] + [(10, 11), (12, 13), (14, 15), (15, 16)])
    lg = line_graph(g).graph
    assert lg.degrees.tolist() == [8] * 9 + [0, 0, 1, 1]
    assert_line_graph_like_the_constructor(g, chunk)


@property_test
@given(edge_lists(), st.integers(0, 2**32), st.floats(0.0, 1.0))
def test_walk_and_deletion_draw_like_the_tuple_reference(data, seed, p):
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    size = 1 + seed % n
    rng, ref_rng = RngHandle(seed), RngHandle(seed)
    sample = random_walk_sample(g, size, rng)
    visited = reference_walk(ref, size, ref_rng)
    assert sample.num_nodes == size == len(visited)
    assert tuple(sample.edges) == reference_subgraph_edges(ref, visited)
    kept = delete_edges_randomly(sample, p, rng)
    assert tuple(kept.edges) == tuple(e for e in sample.edges if ref_rng.random() >= p)


@property_test
@given(edge_lists())
def test_curvature_laplacian_identity_on_random_graphs(data):
    # the dense reference: the paper's L = D - A and s_i, one node at a time
    n, pairs = data
    g, ref = Graph(n, pairs), Reference(n, pairs)
    lap = dense_laplacian(g)
    expected = [ref.curvature(v) - lap[v] @ labeled_signature_vector(g, v) for v in range(n)]
    assert curvature_laplacian_residuals(g).tolist() == expected
    assert expected == [2 * d * (1 - d) for d in map(ref.degree, range(n))]


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
@given(edge_lists(), st.integers(0, 2**32), st.floats(0.0, 1.0),
       st.randoms(use_true_random=False), MODES)
def test_align_total_cost_does_not_change_when_g2_is_relabelled(data, seed, p, rnd, mode):
    n, pairs = data
    g1 = Graph(n, pairs)
    g2 = delete_edges_randomly(g1, p, RngHandle(seed))
    perm = list(range(n))
    rnd.shuffle(perm)
    h = Graph(n, [(perm[u], perm[v]) for u, v in g2.edges])
    plain = align(g1, g2, mode=mode).total_cost
    relabelled = align(g1, h, mode=mode).total_cost
    # hungarian's total is the correctly rounded sum of its row costs, which
    # no relabelling reorders (equal on 20,000 examples; column-order sums
    # differed in the last bits on about 1%)
    assert relabelled == plain


@property_test
@given(edge_lists(), MODES)
def test_align_graph_with_itself_is_the_identity(data, mode):
    n, pairs = data
    g = Graph(n, pairs)
    assert align(g, g, mode=mode).mapping == {v: v for v in range(n)}


@st.composite
def equal_multiset_graphs(draw):
    """Random graphs, the lifted torus, cycles, circulant regular graphs,
    edgeless graphs and the empty graph."""
    kind = draw(st.sampled_from(["random", "torus", "cycle", "regular", "edgeless", "empty"]))
    if kind == "random":
        return Graph(*draw(edge_lists()))
    if kind == "torus":
        return lift_to_3d(triangular_ring_2d())
    if kind == "cycle":
        n = draw(st.integers(3, 12))
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "regular":  # node i joined to i +- 1..k: 2k-regular
        n = draw(st.integers(5, 14))
        k = draw(st.integers(1, (n - 1) // 2))
        return Graph(n, [(i, (i + j) % n) for i in range(n) for j in range(1, k + 1)])
    return Graph(draw(st.integers(1, 8)) if kind == "edgeless" else 0, [])


@property_test
@given(equal_multiset_graphs(), st.randoms(use_true_random=False), MODES)
@example(Graph(5, [(0, 1), (2, 3)]), random.Random(1), "ricci")
def test_align_on_a_relabelling_is_the_dense_void_key_pairing(g, rnd, mode):
    n = g.num_nodes
    perm = list(range(n))
    rnd.shuffle(perm)
    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    m = g.max_degree()
    expected = void_key_pairing(signature_rows(g, m, mode), signature_rows(h, m, mode))
    result = align(g, h, mode=mode)
    assert result.mapping == expected.mapping
    assert result.total_cost.hex() == expected.total_cost.hex() == (0.0).hex()
    assert result.row_costs == expected.row_costs


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
