import os
import sys

import numpy as np
import pytest

from riccialign import (
    DirectedGraphError,
    Graph,
    GraphError,
    GraphMLError,
    RngHandle,
    delete_edges_randomly,
    from_edge_list,
    line_graph,
    load_graphml,
    random_walk_sample,
    read_edge_list,
)
from riccialign.tessellation import TRIANGULAR_RING_EDGES

from conftest import (
    is_connected,
    load_graphml_reference,
    preferential_attachment_graph,
    random_graph,
    traced_peak,
    write_edge_list,
    write_graphml,
)


def test_from_edge_list_path_graph():
    g = from_edge_list([(0, 1), (1, 2)])
    assert g.num_nodes == 3
    assert g.degrees.tolist() == [1, 2, 1]


def test_from_edge_list_ring_instance():
    g = from_edge_list(TRIANGULAR_RING_EDGES)
    assert g.num_nodes == 18
    assert g.num_edges == 36


def test_from_edge_list_isolated_nodes():
    g = from_edge_list([], n=3)
    assert g.num_nodes == 3
    assert g.num_edges == 0


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(GraphError):
        from_edge_list([(0, 0)])


def test_from_edge_list_rejects_small_n():
    with pytest.raises(GraphError):
        from_edge_list([(0, 5)], n=3)


@pytest.mark.parametrize("pairs", [[], [(0, 5)]], ids=["empty", "edge"])
def test_negative_node_count_is_reported_as_negative(tmp_path, pairs):
    with pytest.raises(GraphError, match="^negative node count -1$"):
        from_edge_list(pairs, n=-1)
    path = tmp_path / "neg.edges"
    path.write_text("n=-1\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    with pytest.raises(GraphError, match="^negative node count -1$"):
        read_edge_list(path)


@pytest.mark.parametrize("n", ["3", 2.5, True])
def test_from_edge_list_rejects_non_integer_n(n):
    with pytest.raises(GraphError):
        from_edge_list([(0, 1)], n=n)


def test_duplicate_and_reversed_edges_collapse():
    g = from_edge_list([(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.num_edges == 2
    assert tuple(g.edges) == ((0, 1), (1, 2))


def test_edge_endpoint_out_of_range():
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])


@pytest.mark.parametrize("edges", [
    [(0.5, 1)],        # non-integral id
    [(True, 2)],       # bool id
    [(0, 1, 2)],       # three endpoints
    [(0,)],            # one endpoint
    [("a", 1)],        # string id
], ids=["float", "bool", "triple", "single", "string"])
def test_malformed_edges_raise_graph_error(edges):
    with pytest.raises(GraphError):
        Graph(3, edges)


@pytest.mark.parametrize("num_nodes", [-1, 2.5, True, "3", None],
                         ids=["negative", "float", "bool", "string", "none"])
def test_bad_node_count_raises_graph_error(num_nodes):
    with pytest.raises(GraphError):
        Graph(num_nodes, [])


def test_numpy_integer_node_count():
    g = Graph(np.int32(3), [(0, 1)])
    assert g.num_nodes == 3
    assert type(g.num_nodes) is int


def test_degree_and_neighbors():
    g = from_edge_list([(0, 1), (0, 2), (0, 3)])
    assert g.degrees.tolist() == [3, 1, 1, 1]
    assert g.indices[g.indptr[0]:g.indptr[1]].tolist() == [1, 2, 3]
    assert g.indices[g.indptr[1]:g.indptr[2]].tolist() == [0]


def test_isolated_node_degree():
    g = from_edge_list([(0, 1)], n=3)
    assert g.degrees[2] == 0
    assert g.indptr[3] == g.indptr[2]


def _path3():
    return Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("call", [
    lambda: _path3().induced_subgraph([1.7]),
    lambda: _path3().induced_subgraph([True, 2]),
], ids=["subgraph-float", "subgraph-bool"])
def test_non_integer_node_id_raises_graph_error(call):
    with pytest.raises(GraphError):
        call()


def test_node_ids():
    g = _path3()
    ids = g.node_ids(np.array([2, 0], dtype=np.int32))
    assert ids.dtype == np.int64 and ids.tolist() == [2, 0]
    assert g.node_ids(range(3)).tolist() == [0, 1, 2]
    assert g.node_ids([]).tolist() == []
    for bad in ([3], [-1], [[0, 1]], [0, "1"], [None]):
        with pytest.raises(GraphError):
            g.node_ids(bad)


def test_is_connected():
    assert is_connected(from_edge_list([(0, 1), (1, 2)]))
    assert not is_connected(from_edge_list([(0, 1), (2, 3)]))
    assert not is_connected(from_edge_list([(0, 1)], n=3))


def test_lifted_torus_is_connected():
    from riccialign import lift_to_3d, triangular_ring_2d

    torus = lift_to_3d(triangular_ring_2d())
    # independent breadth-first sweep
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w in torus.indices[torus.indptr[v]:torus.indptr[v + 1]].tolist():
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == 36
    assert is_connected(torus)


def test_degree_sum_is_twice_edge_count():
    for seed in range(10):
        g = random_graph(25, 0.2, seed)
        assert g.degrees.sum() == 2 * g.num_edges


def test_induced_subgraph_single_edge():
    g = from_edge_list([(0, 1), (1, 2)])
    sub = g.induced_subgraph({0, 1})
    assert sub.num_nodes == 2
    assert tuple(sub.edges) == ((0, 1),)


def test_induced_subgraph_keep_all_is_isomorphic_copy():
    g = random_graph(20, 0.3, seed=3)
    sub = g.induced_subgraph(g.nodes)
    assert np.array_equal(sub.degrees, g.degrees)
    assert tuple(sub.edges) == tuple(g.edges)


def test_induced_subgraph_of_triangle():
    k3 = from_edge_list([(0, 1), (0, 2), (1, 2)])
    sub = k3.induced_subgraph({0, 2})
    assert sub.num_nodes == 2
    assert sub.num_edges == 1


def test_induced_subgraph_rejects_foreign_id():
    with pytest.raises(GraphError):
        from_edge_list([(0, 1)]).induced_subgraph({0, 9})


@pytest.mark.parametrize("call, big", [
    (lambda: Graph(3, np.array([[0, 2**64 - 1]], dtype=np.uint64)), 2**64 - 1),
    (lambda: _path3().induced_subgraph(np.array([2**63], dtype=np.uint64)), 2**63),
    (lambda: _path3().induced_subgraph([2**63]), 2**63),
    # numpy reads such a list as float64
    (lambda: from_edge_list([(0, 1)]).induced_subgraph([1, 2**63]), 2**63),
    (lambda: Graph(3, [(0, 1), (1, 2**63)]), 2**63),
], ids=["uint64-edges", "uint64-keep", "int-list-keep", "mixed-list-keep", "mixed-list-edges"])
def test_ids_beyond_int64_are_named_not_wrapped(call, big):
    # an int64 cast would read them as negative ids
    with pytest.raises(GraphError, match=f"^integer {big} does not fit in int64$"):
        call()


@pytest.mark.parametrize("make", [Graph, lambda n, pairs: from_edge_list(pairs, n=n)],
                         ids=["graph", "from-edge-list"])
@pytest.mark.parametrize("n", [2**63, np.uint64(2**63), 2**64], ids=["2**63", "uint64", "2**64"])
def test_node_counts_beyond_int64_are_named(make, n):
    with pytest.raises(GraphError, match=f"^node count {int(n)} does not fit in int64$"):
        make(n, [])


@pytest.mark.parametrize("n", [2**50, 2**62, 2**63 - 1], ids=["2**50", "2**62", "int64-max"])
def test_node_counts_numpy_refuses_are_named(n):
    # numpy refuses the two largest sizes before it allocates; 2**50 int64s,
    # 8 PiB, lie beyond a process's default address space, so the allocation
    # fails at once. A count from 2**33 to about 2**44 would really allocate,
    # so none is tested
    with pytest.raises(GraphError, match=f"^node count {n} is too large for an array$"):
        Graph(n, [])


@pytest.mark.parametrize("n", [2**50, 3_037_000_500], ids=["2**50", "least-wrapping"])
def test_node_counts_whose_edge_keys_overflow_int64_are_named(n):
    # the key row * n + col reaches n * n - 2, which wraps from n = 3_037_000_500,
    # the least n with n * n > 2**63; the guard runs before any n-sized array
    with pytest.raises(GraphError, match=f"^node count {n} is too large for int64 edge keys$"):
        Graph(n, [(0, 1)])


def assert_induced_subgraph_peak_is_about_two_gathered_arrays(ids):
    """A walk's subgraph gathers its nodes' whole parent rows and keeps about
    a third of the entries: at most the gathered ids and their new ids are
    alive at once, in int64, with no row array or counts beside them."""
    pairs = np.random.default_rng(0).integers(0, 3000, size=(100_000, 2))
    g = Graph(3000, pairs[pairs[:, 0] != pairs[:, 1]])
    g = Graph.__new__(Graph)._set_csr(3000, g.indptr, g.indices.astype(ids))
    keep = np.random.default_rng(1).permutation(3000)[:1000]
    gathered = g.degrees[keep].sum()
    sub, peak = traced_peak(lambda: g.induced_subgraph(keep))
    assert sub.indices.dtype == np.int64
    assert 3 * sub.indices.size < 1.2 * gathered
    assert peak < 3 * 8 * gathered


def test_induced_subgraph_peak_memory_is_about_two_gathered_arrays():
    assert_induced_subgraph_peak_is_about_two_gathered_arrays(np.int64)


def test_induced_subgraph_of_int32_ids_widens_them_in_the_slot_buffer():
    # a line graph's int32 ids are copied into the gathered slots' own int64
    # buffer, so the peak is the int64 parent's
    assert_induced_subgraph_peak_is_about_two_gathered_arrays(np.int32)


def test_edges_of_a_round_g2_cost_about_one_pair_tuple_per_edge(ppi_graphml):
    # a 2,000-node round's G2 from the paper's universe, as a benchmark round
    # builds it; its edges are read once per round to relabel it. A pair tuple
    # and its slot take 64 B; a list of two new ints per edge took about 200 B
    universe = line_graph(random_walk_sample(load_graphml(ppi_graphml), 1000,
                                             RngHandle(0))).graph
    rng = RngHandle(1)
    g2 = delete_edges_randomly(random_walk_sample(universe, 2000, rng), 0.01, rng)
    edges, peak = traced_peak(lambda: g2.edges)
    assert sum(1 for _ in edges) == g2.num_edges > 20_000
    assert peak / g2.num_edges < 128
    # the relabelling loop: besides the list of pairs it keeps, only the two id
    # columns and a list of the node ids are alive, not a tuple of every pair
    perm = list(np.random.default_rng(2).permutation(g2.num_nodes))
    pairs, peak = traced_peak(lambda: [(perm[u], perm[v]) for u, v in g2.edges])
    kept = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs))
    assert (peak - kept) / g2.num_edges < 32


def key_sorted_slot_edges(g: Graph) -> np.ndarray:
    """Every CSR slot's edge id by an argsort of the backward slots' keys
    c * N + r, the rule `_slot_edges` used before it sorted columns alone."""
    rows, forward = g._edge_slots()
    back = np.flatnonzero(~forward)
    order = np.arange(len(back))
    ids = np.empty(len(g.indices), dtype=np.int64)
    ids[forward] = order
    ids[back[np.argsort(g.indices[back] * g.num_nodes + rows[back])]] = order
    return ids


@pytest.mark.parametrize("n, pairs, seed", [
    (40, 200, 0), (500, 4000, 1), (2**15, 60_000, 2), (2**15 + 1, 60_000, 3),
], ids=["small", "n500", "int16-columns", "just-above-int16"])
def test_slot_edges_match_the_key_argsort(n, pairs, seed):
    # int16 columns hold every id below 2^15; one node more takes int64 columns
    ends = np.random.default_rng(seed).integers(0, n, size=(pairs, 2))
    ends[:50, 0] = n - 1  # the largest id, in rows and in columns
    g = Graph(n, ends[ends[:, 0] != ends[:, 1]])
    ids = g._slot_edges()
    assert ids.dtype == np.int64
    assert np.array_equal(ids, key_sorted_slot_edges(g))


# -- GraphML ----------------------------------------------------------------

MINIMAL_GRAPHML = """<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="undirected">
    <node id="alpha"/>
    <node id="beta"/>
    <edge source="alpha" target="beta"/>
  </graph>
</graphml>
"""


def test_load_graphml_minimal(tmp_path):
    path = tmp_path / "two.graphml"
    path.write_text(MINIMAL_GRAPHML)
    g = load_graphml(path)
    assert g.num_nodes == 2
    assert tuple(g.edges) == ((0, 1),)


def test_load_graphml_numbers_nodes_in_document_order(tmp_path):
    path = tmp_path / "order.graphml"
    path.write_text("""<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <graph edgedefault="undirected">
        <node id="z"/><node id="a"/><node id="m"/>
        <edge source="m" target="a"/>
      </graph>
    </graphml>""")
    assert tuple(load_graphml(path).edges) == ((1, 2),)


def test_load_graphml_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_graphml(tmp_path / "nope.graphml")


def test_load_graphml_malformed(tmp_path):
    path = tmp_path / "broken.graphml"
    path.write_text("<graphml><graph>")
    with pytest.raises(GraphMLError):
        load_graphml(path)


def test_load_graphml_no_graph_element(tmp_path):
    path = tmp_path / "empty.graphml"
    path.write_text("<graphml></graphml>")
    with pytest.raises(GraphMLError):
        load_graphml(path)


def test_load_graphml_rejects_directed_default(tmp_path):
    path = tmp_path / "directed.graphml"
    path.write_text(MINIMAL_GRAPHML.replace("undirected", "directed"))
    with pytest.raises(DirectedGraphError):
        load_graphml(path)


def test_load_graphml_rejects_directed_edge(tmp_path):
    path = tmp_path / "mixed.graphml"
    path.write_text(MINIMAL_GRAPHML.replace(
        '<edge source="alpha" target="beta"/>',
        '<edge source="alpha" target="beta" directed="true"/>'))
    with pytest.raises(DirectedGraphError):
        load_graphml(path)


def test_load_graphml_unknown_endpoint(tmp_path):
    path = tmp_path / "dangling.graphml"
    path.write_text(MINIMAL_GRAPHML.replace('target="beta"', 'target="gamma"'))
    with pytest.raises(GraphMLError):
        load_graphml(path)


def test_load_graphml_node_without_id(tmp_path):
    path = tmp_path / "anonymous.graphml"
    path.write_text(MINIMAL_GRAPHML.replace('<node id="beta"/>', '<node/>'))
    with pytest.raises(GraphMLError, match="without id"):
        load_graphml(path)


def test_load_graphml_edge_without_endpoint(tmp_path):
    path = tmp_path / "loose.graphml"
    path.write_text(MINIMAL_GRAPHML.replace(' target="beta"', ''))
    with pytest.raises(GraphMLError, match="without source/target"):
        load_graphml(path)


def test_load_graphml_accepts_forward_edge_references(tmp_path):
    path = tmp_path / "forward.graphml"
    path.write_text("""<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <graph edgedefault="undirected">
        <edge source="a" target="b"/>
        <node id="a"/><node id="b"/>
      </graph>
    </graphml>""")
    g = load_graphml(path)
    assert g.num_nodes == 2
    assert g.num_edges == 1


def test_load_graphml_merges_a_repeated_node_id_into_its_first_node(tmp_path):
    # not an error: the second <node id="a"> names the node the first made
    path = tmp_path / "repeated.graphml"
    path.write_text("""<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <graph edgedefault="undirected">
        <node id="a"/><node id="b"/><node id="a"/><node id="c"/>
        <edge source="a" target="c"/>
      </graph>
    </graphml>""")
    g = load_graphml(path)
    assert g.num_nodes == 3
    assert tuple(g.edges) == ((0, 2),)


def test_load_graphml_drops_self_loops_and_duplicates(tmp_path):
    path = tmp_path / "messy.graphml"
    path.write_text("""<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <graph edgedefault="undirected">
        <node id="a"/><node id="b"/>
        <edge source="a" target="a"/>
        <edge source="a" target="b"/>
        <edge source="b" target="a"/>
      </graph>
    </graphml>""")
    g = load_graphml(path)
    assert g.num_nodes == 2
    assert g.num_edges == 1


def test_graphml_roundtrip_preserves_counts(tmp_path):
    g = random_graph(30, 0.2, seed=5)
    path = tmp_path / "g.graphml"
    write_graphml(g, path)
    loaded = load_graphml(path)
    assert loaded.num_nodes == g.num_nodes
    assert loaded.num_edges == g.num_edges
    # the writer lists nodes in id order, so document order gives back the ids
    assert loaded == g


def test_load_graphml_numbers_nested_graph_nodes_in_document_order(tmp_path):
    path = tmp_path / "nested.graphml"
    path.write_text("""<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <graph edgedefault="undirected">
        <node id="a">
          <graph id="inner"><node id="x"/><node id="y"/><edge source="x" target="y"/></graph>
        </node>
        <node id="b"/>
        <edge source="a" target="b"/>
      </graph>
    </graphml>""")
    g = load_graphml(path)
    assert g.num_nodes == 4  # a, x, y, b
    assert tuple(g.edges) == ((0, 3), (1, 2))


def test_load_graphml_ignores_a_second_top_level_graph(tmp_path):
    path = tmp_path / "two-graphs.graphml"
    path.write_text(MINIMAL_GRAPHML.replace("</graphml>", """<graph edgedefault="directed">
        <node id="gamma"/><edge source="gamma" target="alpha" directed="true"/>
      </graph>
    </graphml>"""))
    g = load_graphml(path)
    assert g.num_nodes == 2
    assert tuple(g.edges) == ((0, 1),)


@pytest.mark.parametrize("open_tag, prefix", [
    ("<graphml>", ""),
    ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">', ""),
    ('<g:graphml xmlns:g="http://graphml.graphdrawing.org/xmlns">', "g:"),
], ids=["no-namespace", "default-namespace", "prefixed-namespace"])
def test_load_graphml_matches_tags_by_local_name(tmp_path, open_tag, prefix):
    path = tmp_path / "ns.graphml"
    path.write_text(f"""{open_tag}
      <{prefix}graph edgedefault="undirected">
        <{prefix}node id="a"/><{prefix}node id="b"/><{prefix}node id="c"/>
        <{prefix}edge source="c" target="a"/>
      </{prefix}graph>
    </{prefix}graphml>""")
    g = load_graphml(path)
    assert g.num_nodes == 3
    assert tuple(g.edges) == ((0, 2),)


def test_load_graphml_reports_a_node_without_id_before_any_edge(tmp_path):
    path = tmp_path / "late-anonymous.graphml"
    path.write_text(MINIMAL_GRAPHML.replace(
        '<edge source="alpha" target="beta"/>',
        '<edge source="alpha" target="beta" directed="true"/><node/>'))
    with pytest.raises(GraphMLError, match="without id"):
        load_graphml(path)


@pytest.mark.parametrize("edges, error", [
    ('<edge source="alpha" target="gamma"/><edge source="alpha" target="beta" directed="true"/>',
     GraphMLError),
    ('<edge source="alpha" target="beta" directed="true"/><edge source="alpha" target="gamma"/>',
     DirectedGraphError),
    ('<edge source="alpha" target="gamma" directed="true"/>', DirectedGraphError),
], ids=["unknown-id-first", "directed-first", "directed-and-unknown-id"])
def test_load_graphml_reports_the_first_bad_edge(tmp_path, edges, error):
    path = tmp_path / "bad-edges.graphml"
    path.write_text(MINIMAL_GRAPHML.replace('<edge source="alpha" target="beta"/>', edges))
    with pytest.raises(GraphMLError) as caught:
        load_graphml(path)
    assert caught.type is error


def test_load_graphml_resolves_digit_string_forward_references(tmp_path):
    # "2" and "1" are raw ids until their nodes are met: they are numbered 0
    # and 1 by document order, never read as the integers 2 and 1
    path = tmp_path / "digits.graphml"
    path.write_text("""<graphml><graph edgedefault="undirected">
        <edge source="2" target="1"/><node id="2"/><node id="1"/>
      </graph></graphml>""")
    g = load_graphml(path)
    assert g.num_nodes == 2
    assert tuple(g.edges) == ((0, 1),)


def test_load_graphml_loads_an_explicitly_undirected_edge(tmp_path):
    path = tmp_path / "undirected-edge.graphml"
    path.write_text(MINIMAL_GRAPHML.replace('target="beta"/>', 'target="beta" directed="false"/>'))
    assert tuple(load_graphml(path).edges) == ((0, 1),)


@pytest.mark.parametrize("edges, message", [
    ('<edge source="alpha" target="gamma"/>', "unknown node id 'alpha' or 'gamma'"),
    ('<edge source="gamma" target="late"/><node id="late"/>', "unknown node id 'gamma' or 'late'"),
    ('<edge source="alpha" target="gamma"/><edge source="alpha"/>',
     "unknown node id 'alpha' or 'gamma'"),
    ('<edge source="alpha" target="gamma"/><edge source="beta" target="late" directed="TRUE"/>'
     '<node id="late"/>', "unknown node id 'alpha' or 'gamma'"),
    ('<edge source="alpha"/><edge source="alpha" target="gamma"/>', "without source/target"),
], ids=["numbered-then-unknown", "unknown-then-forward", "missing-endpoint-after",
        "directed-after", "missing-endpoint-first"])
def test_load_graphml_names_the_raw_ids_of_the_first_bad_edge(tmp_path, edges, message):
    # an endpoint numbered during the parse, or after it, is still named by
    # its raw id, and an odd edge after an unresolved one is not reached
    path = tmp_path / "bad-edges.graphml"
    path.write_text(MINIMAL_GRAPHML.replace('<edge source="alpha" target="beta"/>', edges))
    with pytest.raises(GraphMLError, match=message) as caught:
        load_graphml(path)
    with pytest.raises(GraphMLError) as expected:
        load_graphml_reference(path)
    assert (caught.type, str(caught.value)) == (expected.type, str(expected.value))


def test_load_graphml_reads_the_surrogate_like_its_generator(ppi_graphml):
    if os.environ.get("RICCIALIGN_PPI_GRAPHML"):
        pytest.skip("the PPI input is a given file, not the seeded surrogate")
    loaded = load_graphml(ppi_graphml)
    expected = preferential_attachment_graph(3800, seed=10)
    assert loaded.num_nodes == expected.num_nodes == 3800
    for name in ("indptr", "indices", "edge_array"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), name


def test_load_graphml_peak_memory_is_a_few_times_the_file(ppi_graphml):
    # endpoints are kept as node numbers in one list, with no dict per edge
    if os.environ.get("RICCIALIGN_PPI_GRAPHML"):
        pytest.skip("the PPI input is a given file, not the seeded surrogate")
    g, peak = traced_peak(lambda: load_graphml(ppi_graphml))
    assert g.num_edges > 10_000
    assert peak <= 6 * ppi_graphml.stat().st_size


GRAPH_BODY = '<node id="alpha"/><node id="beta"/><edge source="alpha" target="beta"/>'
EXTERNAL_DTD = '<!DOCTYPE graphml SYSTEM "graphml.dtd">'


def load_outcome(load, path):
    """The nodes and edges `load` reads, or its error's class and message head."""
    try:
        g = load(path)
    except GraphError as exc:
        return type(exc), str(exc).split(":")[0]
    return g.num_nodes, tuple(g.edges)


@pytest.mark.parametrize("document", [
    '<!DOCTYPE graphml [<!ENTITY a "alpha">]><graphml><graph>'
    '<node id="&a;"/><node id="beta"/><edge source="alpha" target="beta"/></graph></graphml>',
    '<graphml><graph><node id="&nope;"/></graph></graphml>',
    f'{EXTERNAL_DTD}<graphml><graph>{GRAPH_BODY}&nope;</graph></graphml>',
    f'{EXTERNAL_DTD}<graphml><graph>{GRAPH_BODY}</graph>&nope;</graphml>',
    f'{EXTERNAL_DTD}<graphml><graph><node id="&nope;"/><node id="b"/>'
    '<edge source="" target="b"/></graph></graphml>',
    '<!DOCTYPE graphml [<!ENTITY % pe SYSTEM "x.ent"> %pe;]>'
    f'<graphml><graph>{GRAPH_BODY}</graph></graphml>',
    '<?xml version="1.0"?><!-- c --><?pi x?><graphml><!-- c --><graph>'
    f'<![CDATA[<node id="ghost"/>]]><?pi y?>{GRAPH_BODY}<!-- <node id="x"/> --></graph></graphml>',
    f'<root><node id="outside"/><wrap xmlns="urn:other"><graph>{GRAPH_BODY}</graph></wrap>'
    '<graph edgedefault="directed"/></root>',
    f'<graph edgedefault="undirected">{GRAPH_BODY}</graph>',
    '<graphml><graph/></graphml>',
    f'<graphml><graph>{GRAPH_BODY}</graph><oops></graphml>',
    f'<graphml><graph><node/>{GRAPH_BODY}</graph><oops></graphml>',
    f'<g:graphml><graph>{GRAPH_BODY}</graph></g:graphml>',
    f'<graphml xmlns:y="urn:y"><graph y:edgedefault="directed">{GRAPH_BODY}</graph></graphml>',
    '<!DOCTYPE graphml [<!ATTLIST graph edgedefault CDATA "directed">]>'
    f'<graphml><graph>{GRAPH_BODY}</graph></graphml>',
    "",
    "hello",
    ('<?xml version="1.0" encoding="UTF-16"?><graphml><!-- \u00e9 --><graph>'
     '<node id="\u00fc"/><node id="\u00df"/><edge source="\u00df" target="\u00fc"/>'
     '</graph></graphml>').encode("utf-16"),
], ids=["dtd-entity-in-id", "undefined-entity", "skipped-entity-in-graph",
        "skipped-entity-after-graph", "skipped-entity-in-attribute", "parameter-entity",
        "comments-pi-cdata", "graph-nested-in-foreign-element", "graph-is-root",
        "empty-graph", "malformed-after-graph", "anonymous-node-then-malformed",
        "unbound-prefix", "namespaced-edgedefault", "dtd-default-edgedefault",
        "empty-file", "text-only", "utf-16"])
def test_load_graphml_matches_the_element_tree_reference(tmp_path, document):
    path = tmp_path / "case.graphml"
    path.write_bytes(document if isinstance(document, bytes) else document.encode())
    assert load_outcome(load_graphml, path) == load_outcome(load_graphml_reference, path)


# -- edge-list text format ----------------------------------------------------

def test_edge_list_roundtrip(tmp_path):
    g = random_graph(15, 0.25, seed=9)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    loaded = read_edge_list(path)
    assert loaded == g


def test_edge_list_comments_and_header(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\nn=4\n0 1  # trailing comment\n1 2\n")
    g = read_edge_list(path)
    assert g.num_nodes == 4
    assert tuple(g.edges) == ((0, 1), (1, 2))


def test_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 2\n")
    with pytest.raises(GraphError):
        read_edge_list(path)


def test_edge_list_rejects_non_integer_endpoint(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n0 x\n")
    with pytest.raises(GraphError, match=r"bad\.edges:2: .*'x'"):
        read_edge_list(path)


def test_edge_list_rejects_non_integer_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# header\nn=abc\n0 1\n")
    with pytest.raises(GraphError, match=r"bad\.edges:2: .*'abc'"):
        read_edge_list(path)


def test_edge_list_rejects_a_second_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("n=5\n0 1\nn=3\n")
    with pytest.raises(GraphError, match=r"bad\.edges:3: a second 'n=' header"):
        read_edge_list(path)
