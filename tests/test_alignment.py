import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccialign import (
    Assignment,
    Graph,
    GraphError,
    SignatureMatrix,
    align,
    common_max_degree,
    cost_matrix,
    degree_matrix,
    from_edge_list,
    hungarian,
    ricci_matrix,
    score_alignment,
)

from conftest import (assignment_minimum, random_connected_graph, random_graph, traced_peak,
                      void_key_pairing)

CLAW = [(0, 1), (0, 2), (0, 3)]
K3 = [(0, 1), (0, 2), (1, 2)]


def star(leaves: int) -> Graph:
    return from_edge_list([(0, i) for i in range(1, leaves + 1)])


def test_common_max_degree():
    assert common_max_degree(from_edge_list(CLAW), from_edge_list(K3)) == 3
    g = random_connected_graph(10, seed=0)
    assert common_max_degree(g, g) == g.max_degree()
    assert common_max_degree(star(4), star(7)) == 7


def test_degree_matrix_claw():
    m = degree_matrix(from_edge_list(CLAW), 3)
    assert m.rows[0].tolist() == [1, 1, 1]
    for leaf in (1, 2, 3):
        assert m.rows[leaf].tolist() == [3, 0, 0]


def test_degree_matrix_worked_example(example_graph):
    assert degree_matrix(example_graph, 5).rows[0].tolist() == [1, 4, 5, 0, 0]


def test_degree_matrix_regular_graph_rows_identical():
    m = degree_matrix(from_edge_list(K3), 2)
    assert (m.rows == m.rows[0]).all()


def test_degree_matrix_width_validation(example_graph):
    with pytest.raises(GraphError):
        degree_matrix(example_graph, 4)


def test_ricci_matrix_worked_example(example_graph):
    assert ricci_matrix(example_graph, 5).rows[0].tolist() == [-27, -20, -2, 0, 0]


def test_ricci_matrix_torus_hole_row(lifted_torus):
    rows = ricci_matrix(lifted_torus, 6).rows
    assert rows[0].tolist() == [-56, -56, -56, -40, -40, -28]


def test_ricci_matrix_k3():
    m = ricci_matrix(from_edge_list(K3), 2)
    assert (m.rows == [-4, -4]).all()


def test_ricci_rows_have_degree_many_nonzeros(example_graph, lifted_torus):
    for g in (example_graph, lifted_torus):
        m = ricci_matrix(g, g.max_degree())
        for v in g.nodes:
            assert int((m.rows[v] != 0).sum()) == g.degrees[v]


def test_cost_matrix_zero_diagonal(example_graph):
    m = ricci_matrix(example_graph, 5)
    c = cost_matrix(m, m)
    assert (np.diag(c) == 0).all()


def test_cost_matrix_345():
    from riccialign import SignatureMatrix

    m1 = SignatureMatrix(rows=np.array([[0, 0]], dtype=np.int64), mode="degree")
    m2 = SignatureMatrix(rows=np.array([[3, 4]], dtype=np.int64), mode="degree")
    assert cost_matrix(m1, m2)[0, 0] == 5.0


def test_cost_matrix_symmetry(example_graph):
    g2 = random_connected_graph(9, seed=1)
    m = common_max_degree(example_graph, g2)
    c12 = cost_matrix(degree_matrix(example_graph, m), degree_matrix(g2, m))
    c21 = cost_matrix(degree_matrix(g2, m), degree_matrix(example_graph, m))
    assert (c12 == c21.T).all()


def test_cost_matrix_zero_iff_rows_identical():
    rng = random.Random(0)
    rows1 = np.array([[rng.randint(-5, 0) for _ in range(4)] for _ in range(6)])
    rows2 = rows1.copy()
    rows2[3, 0] += 1
    from riccialign import SignatureMatrix

    m1 = SignatureMatrix(rows=rows1, mode="ricci")
    m2 = SignatureMatrix(rows=rows2, mode="ricci")
    c = cost_matrix(m1, m2)
    for i in range(6):
        for j in range(6):
            assert (c[i, j] == 0) == (rows1[i] == rows2[j]).all()


def _exact_costs(rows1, rows2) -> np.ndarray:
    return np.array([[math.sqrt(sum((p - q) ** 2 for p, q in zip(r, s))) for s in rows2]
                     for r in rows1]).reshape(len(rows1), len(rows2))


def _signature(rows, m: int) -> SignatureMatrix:
    return SignatureMatrix(rows=np.array(rows, dtype=np.int64).reshape(len(rows), m),
                           mode="ricci")


def _assert_bitwise_equal(c: np.ndarray, expected: np.ndarray) -> None:
    assert c.shape == expected.shape
    assert c.tobytes() == expected.tobytes()


_ENTRIES = st.one_of(st.just(0), st.integers(-60, 60))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 6).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(_ENTRIES, min_size=m, max_size=m), max_size=9),
    st.lists(st.lists(_ENTRIES, min_size=m, max_size=m), max_size=9))))
@example((1, [[2 ** 29]], [[-2 ** 29]]))  # 4S = 2^60: the int64 product
def test_cost_matrix_matches_exact_reference(data):
    # mixed signs, zeros anywhere in a row (all-zero rows too), unequal row
    # counts. align hands this output to the solver unchecked (`_solve`):
    # equal to the exact reference, it is finite and nonnegative float64
    m, rows1, rows2 = data
    c = cost_matrix(_signature(rows1, m), _signature(rows2, m))
    _assert_bitwise_equal(c, _exact_costs(rows1, rows2))


@pytest.mark.parametrize("scale, int64", [(1, False), (2**20, True)], ids=["float64", "int64"])
def test_cost_matrix_exact_on_rows_of_mixed_widths(scale, int64):
    # rows in random order whose used widths (up to the last nonzero slot)
    # spread from 0 to m; scaled by 2^20, 4S passes 2^53 and the product runs in int64
    rng = random.Random(7)
    m = 24

    def row():
        used = rng.randint(0, m)
        return [scale * rng.choice([0, rng.randint(-40, 40)]) for _ in range(used)] + \
            [0] * (m - used)

    rows1 = [row() for _ in range(300)]
    rows2 = [row() for _ in range(140)]
    largest = max(sum(x * x for x in row) for row in rows1 + rows2)
    assert (4 * largest >= 2**53) == int64 and 4 * largest < 2**63
    c = cost_matrix(_signature(rows1, m), _signature(rows2, m))
    _assert_bitwise_equal(c, _exact_costs(rows1, rows2))


@pytest.mark.parametrize("rows1, rows2, int64", [
    # 4S just under 2^53: the float64 product, every partial sum exact
    ([[2**25 - 1, 2**25 - 1, 5], [3, 0, -2]],
     [[2 - 2**25, 1 - 2**25, -7], [0, 1, 0]], False),
    # 4S just over 2^53: the int64 product. The first squared distance is
    # above 2^53; a float64 product summed left to right gives
    # 94906269.15978622 for that entry, not the exact 94906269.15978621
    ([[33554431, 33554432, 5], [3, 0, -2]],
     [[-33554436, -33554434, -7], [0, 1, 0]], True),
], ids=["float64", "int64"])
def test_cost_matrix_exact_on_both_sides_of_the_4s_guard(rows1, rows2, int64):
    largest = max(sum(x * x for x in row) for row in rows1 + rows2)
    assert (4 * largest >= 2**53) == int64
    assert abs(4 * largest - 2**53) < 2**33
    c = cost_matrix(_signature(rows1, 3), _signature(rows2, 3))
    _assert_bitwise_equal(c, _exact_costs(rows1, rows2))


def test_cost_matrix_peak_memory_is_about_the_output():
    # the output is the one n x n array: no n x n temporaries next to it
    rng = np.random.default_rng(0)
    n, m = 1000, 100
    deg = rng.integers(1, m + 1, size=n)
    rows = np.where(np.arange(m) < deg[:, None], rng.integers(-300, 30, size=(n, m)), 0)
    sig = SignatureMatrix(rows=rows, mode="ricci")
    c, peak = traced_peak(lambda: cost_matrix(sig, sig))
    assert c.shape == (n, n)
    assert peak < 1.5 * n * n * 8


@pytest.mark.parametrize("rows1, rows2, float_exact", [
    # largest row sum of squares S just under 2^52: exact (2S < 2^53, 4S > 2^53)
    ([[2**25 + 3, 2**25 - 1, 5], [2**26 - 1, 1, 0]],
     [[2**25 - 4, 2**25 + 2, 1], [2**26 - 2, 3, 0]], True),
    # S just over 2^52: a float64 Gram product gives 80 for the first entry,
    # whose exact squared distance is 81
    ([[67108912, 67108892, 7], [67108870, 67108895, 0]],
     [[67108905, 67108888, 3], [67108888, 67108891, 9]], False),
])
def test_cost_matrix_exact_on_both_sides_of_2_53(rows1, rows2, float_exact):
    from riccialign import SignatureMatrix

    largest = max(sum(x * x for x in row) for row in rows1 + rows2)
    assert (2 * largest < 2**53) == float_exact
    m1 = SignatureMatrix(rows=np.array(rows1, dtype=np.int64), mode="ricci")
    m2 = SignatureMatrix(rows=np.array(rows2, dtype=np.int64), mode="ricci")
    assert (cost_matrix(m1, m2) == _exact_costs(rows1, rows2)).all()


def test_cost_matrix_rejects_int64_overflow():
    from riccialign import SignatureMatrix

    # the squared distance (2^32 - 1)^2 does not fit in int64
    m1 = SignatureMatrix(rows=np.array([[-2**31, 0]], dtype=np.int64), mode="ricci")
    m2 = SignatureMatrix(rows=np.array([[2**31 - 1, 0]], dtype=np.int64), mode="ricci")
    with pytest.raises(GraphError):
        cost_matrix(m1, m2)


@pytest.mark.parametrize("rows", [[[0.5, 0]], [[True, False]]], ids=["float", "bool"])
def test_cost_matrix_rejects_rows_that_are_not_integers(rows):
    # read as int64, [0.5, 0] would cost 0.0 against [0, 0], which is not equal
    zeros = SignatureMatrix(rows=np.zeros((1, 2), dtype=np.int64), mode="ricci")
    bad = SignatureMatrix(rows=np.array(rows), mode="ricci")
    for pair in ((bad, zeros), (zeros, bad)):
        with pytest.raises(GraphError, match="expected integers"):
            cost_matrix(*pair)


def test_cost_matrix_validates_width_and_mode(example_graph):
    with pytest.raises(GraphError):
        cost_matrix(degree_matrix(example_graph, 5), degree_matrix(example_graph, 6))
    with pytest.raises(GraphError):
        cost_matrix(degree_matrix(example_graph, 5), ricci_matrix(example_graph, 5))


def test_hungarian_small_cases():
    ident = hungarian([[0, 1], [1, 0]])
    assert ident.mapping == {0: 0, 1: 1}
    assert ident.total_cost == 0.0
    diag = hungarian([[1, 2], [3, 1]])
    assert diag.mapping == {0: 0, 1: 1}
    assert diag.total_cost == 2.0


def test_hungarian_empty_and_single_entry():
    empty = hungarian(np.zeros((0, 0)))
    assert empty.mapping == {}
    assert empty.total_cost == 0.0
    single = hungarian([[2.5]])
    assert single.mapping == {0: 0}
    assert single.total_cost == 2.5


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=n, max_size=n),
    st.permutations(range(n)))))
def test_hungarian_total_ignores_column_order(data):
    # small integer entries keep every sum exact, so totals compare with ==
    rows, perm = data
    c = np.array(rows, dtype=np.float64)
    expected = hungarian(c).total_cost
    moved = hungarian(c[:, perm])
    assert moved.total_cost == expected
    # column k of the permuted matrix is column perm[k] of c; ties may pick
    # another optimum, so the mapping carried back must be one, not the same
    back = {v: perm[k] for v, k in moved.mapping.items()}
    assert sorted(back.values()) == list(range(len(perm)))
    assert sum(c[v, w] for v, w in back.items()) == expected


def test_hungarian_matches_permutation_oracle():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(2, 8)
        c = np.array([[rng.randint(0, 30) for _ in range(n)] for _ in range(n)],
                     dtype=np.float64)
        assert hungarian(c).total_cost == assignment_minimum(c)


def test_hungarian_is_deterministic():
    rng = random.Random(5)
    c = np.array([[rng.randint(0, 4) for _ in range(12)] for _ in range(12)],
                 dtype=np.float64)
    assert hungarian(c).mapping == hungarian(c).mapping


def test_hungarian_mapping_is_permutation():
    rng = random.Random(17)
    c = np.array([[rng.randint(0, 9) for _ in range(9)] for _ in range(9)])
    a = hungarian(c)
    assert sorted(a.mapping) == list(range(9))
    assert sorted(a.mapping.values()) == list(range(9))
    assert a.total_cost == sum(c[i, j] for i, j in a.mapping.items())


def test_hungarian_validates_input():
    with pytest.raises(GraphError):
        hungarian(np.zeros((2, 3)))
    with pytest.raises(GraphError):
        hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))
    with pytest.raises(GraphError):
        hungarian(np.array([[-1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(GraphError):
        hungarian(np.array([[np.nan, 1.0], [1.0, 0.0]]))


def test_align_identical_graphs_costs_nothing(lifted_torus):
    for mode in ("degree", "ricci"):
        result = align(lifted_torus, lifted_torus, mode=mode)
        assert result.total_cost == 0.0


def test_align_torus_pair_maps_hole_to_hole(lifted_torus):
    from riccialign import node_curvatures

    curv = node_curvatures(lifted_torus)
    lowest = min(curv)
    result = align(lifted_torus, lifted_torus, mode="ricci")
    for v in lifted_torus.nodes:
        if curv[v] == lowest:
            assert curv[result.mapping[v]] == lowest


def test_align_rejects_unequal_sizes():
    with pytest.raises(GraphError):
        align(star(3), star(4))
    with pytest.raises(GraphError):  # width 0: every row is empty, and equal
        align(from_edge_list([], n=2), from_edge_list([], n=3))


def test_align_rejects_unknown_mode(lifted_torus):
    with pytest.raises(GraphError):
        align(lifted_torus, lifted_torus, mode="spectral")
    with pytest.raises(GraphError):
        align(from_edge_list([], n=2), from_edge_list([], n=2), mode="spectral")


def relabelled(g: Graph, seed: int) -> Graph:
    perm = np.random.default_rng(seed).permutation(g.num_nodes).tolist()
    return Graph(g.num_nodes, [(perm[u], perm[v]) for u, v in g.edges])


def test_align_equal_row_multisets_skip_the_cost_matrix_and_solver(monkeypatch):
    import riccialign.alignment as alignment

    def unexpected(*args):
        raise AssertionError("equal row multisets need no cost matrix or solver")

    monkeypatch.setattr(alignment, "cost_matrix", unexpected)
    monkeypatch.setattr(alignment, "_solve", unexpected)
    # the hash pairing is checked on the CSR sort keys: no dense row is built
    monkeypatch.setattr(alignment, "_fill_rows", unexpected)
    g = random_connected_graph(60, seed=3)
    for mode in ("degree", "ricci"):
        assert align(g, relabelled(g, 0), mode=mode).total_cost == 0.0
        assert align(g, g, mode=mode).mapping == {v: v for v in g.nodes}
    # same degree sequence, different graphs: the degree rows still coincide
    cycle = from_edge_list([(i, (i + 1) % 6) for i in range(6)])
    triangles = from_edge_list(K3 + [(3, 4), (3, 5), (4, 5)])
    assert align(cycle, triangles, mode="degree").total_cost == 0.0


def test_align_edge_cases_without_a_cost_matrix():
    empty = Graph(0, [])
    assert align(empty, empty) == Assignment(mapping={}, total_cost=0.0)
    edgeless = from_edge_list([], n=4)
    for mode in ("degree", "ricci"):
        assert align(edgeless, edgeless, mode=mode) == \
            Assignment(mapping={v: v for v in range(4)}, total_cost=0.0)


def test_equal_rows_assignment_compares_multisets_not_sums():
    # the void-key reference that align's equal-row pairing is checked against
    rows1 = np.array([[1, 3], [2, 2]])
    rows2 = np.array([[1, 2], [2, 3]])  # equal total, equal column sums
    assert rows1.sum() == rows2.sum() and (rows1.sum(axis=0) == rows2.sum(axis=0)).all()
    assert void_key_pairing(rows1, rows2) is None
    assert void_key_pairing(rows1, rows1[::-1]).mapping == {0: 1, 1: 0}
    # tied rows pair in ascending id order on both sides
    tied = np.array([[5, 0], [1, 1], [5, 0], [1, 1]])
    assert void_key_pairing(tied, tied[[1, 0, 3, 2]]).mapping == \
        {0: 1, 1: 0, 2: 3, 3: 2}
    empty = np.zeros((3, 0), dtype=np.int64)
    assert void_key_pairing(empty, empty).mapping == {0: 0, 1: 1, 2: 2}


def test_align_falls_back_to_hungarian_when_multisets_differ():
    # P5 and K3 + K2 share the degree sequence, so their degree rows have
    # equal sums, but the rows differ: [2, 0] vs [1, 0] at the ends
    path = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)])
    split = from_edge_list(K3 + [(3, 4)])
    for g1, g2 in ((path, split), (random_connected_graph(40, seed=1),
                                   random_connected_graph(40, seed=2))):
        for mode in ("degree", "ricci"):
            result = align(g1, g2, mode=mode)
            build = degree_matrix if mode == "degree" else ricci_matrix
            m = common_max_degree(g1, g2)
            solved = hungarian(cost_matrix(build(g1, m), build(g2, m)))
            assert result.mapping == solved.mapping
            assert result.total_cost.hex() == solved.total_cost.hex()
            assert result.total_cost > 0.0


def test_align_reaches_the_solver_when_sums_match_but_rows_differ(monkeypatch):
    import riccialign.alignment as alignment
    from riccialign.alignment import _solve

    # K3 plus an isolated node against the claw: equal sums of deg * f in
    # both modes (12 and -24), unequal rows
    k3, claw = Graph(4, K3), from_edge_list(CLAW)
    calls = []
    monkeypatch.setattr(alignment, "_solve", lambda c: calls.append(c) or _solve(c))
    for mode in ("degree", "ricci"):
        build = degree_matrix if mode == "degree" else ricci_matrix
        sig1, sig2 = build(k3, 3), build(claw, 3)
        assert sig1.rows.sum() == sig2.rows.sum()
        solved = hungarian(cost_matrix(sig1, sig2))  # hungarian calls _solve too
        before = len(calls)
        result = align(k3, claw, mode=mode)
        assert len(calls) == before + 1
        assert result.mapping == solved.mapping
        assert result.row_costs == solved.row_costs and result.total_cost > 0.0


def test_align_under_a_forced_hash_collision_still_costs_zero(monkeypatch):
    import riccialign.alignment as alignment
    from riccialign.alignment import _solve

    # every row hashes to 0: the hash proposes the id order, the CSR keys and
    # the dense rows reject it, and the solver finds a zero-cost optimum; which
    # one is scipy's choice, so the mapping is checked only for equal rows
    monkeypatch.setattr(alignment, "_mix", lambda f: np.zeros(len(f), dtype=np.uint64))
    solves = []
    monkeypatch.setattr(alignment, "_solve", lambda c: solves.append(1) or _solve(c))
    g = random_connected_graph(60, seed=3)
    h = relabelled(g, 0)
    for mode in ("degree", "ricci"):
        build = degree_matrix if mode == "degree" else ricci_matrix
        m = common_max_degree(g, h)
        before = len(solves)
        result = align(g, h, mode=mode)
        assert len(solves) == before + 1
        assert result.total_cost.hex() == (0.0).hex()
        assert result.row_costs == (0.0,) * g.num_nodes
        dst = [result.mapping[v] for v in g.nodes]
        assert sorted(dst) == list(h.nodes)
        assert np.array_equal(build(g, m).rows, build(h, m).rows[dst])
        solved = hungarian(cost_matrix(build(Graph(4, K3), 3), build(from_edge_list(CLAW), 3)))
        assert align(Graph(4, K3), from_edge_list(CLAW), mode=mode).mapping == solved.mapping


def with_isolated_ends(g: Graph, first: int, last: int) -> Graph:
    """g after `first` isolated nodes, followed by `last` more."""
    return Graph(first + g.num_nodes + last, g.edge_array + first)


# "wide" features need int64 sort keys: n * span is above 2^31. "high" and
# "low" sit near +-2^62 with a small span, so their keys are int32, and their
# isolated nodes' features, never read, lie at the far end of int64
@pytest.mark.parametrize("mode", ["degree", "ricci", "wide", "high", "low"])
def test_sorted_keys_in_a_row_order_equal_the_gathered_ones(mode):
    from riccialign.alignment import _sorted_keys, _value_range
    from riccialign.curvature import node_curvature_array

    rng = np.random.default_rng(6)
    for seed in range(4):
        g = with_isolated_ends(random_graph(30, 0.15, seed), 2, 3)
        n = g.num_nodes
        f = {"degree": g.degrees, "ricci": node_curvature_array(g),
             "wide": rng.integers(-2 ** 40, 2 ** 40, size=n),
             "high": 2 ** 62 + rng.integers(-50, 50, size=n),
             "low": -2 ** 62 + rng.integers(-50, 50, size=n)}[mode]
        if mode in ("high", "low"):
            f[g.degrees == 0] = -2 ** 63 if mode == "high" else 2 ** 63 - 1
        low, span = _value_range((g, f))
        adj = [[] for _ in range(n)]
        for u, v in g.edges:
            adj[u].append(int(f[v]))
            adj[v].append(int(f[u]))
        for p in [np.arange(n)] + [rng.permutation(n) for _ in range(3)]:
            keys = _sorted_keys(g, f, low, span, rows=p)
            assert keys.dtype == (np.int64 if mode == "wide" else np.int32)
            assert keys.tolist() == [i * span + x - low for i, v in enumerate(p.tolist())
                                     for x in sorted(adj[v])]


def test_align_checks_the_pairing_in_the_value_range_of_both_graphs(monkeypatch):
    import riccialign.alignment as alignment

    # two disjoint edges; G1's rows are [1], [0], [1], [0] and G2's [2], [-1],
    # [1], [0]. Keyed in G1's range alone (low 0, span 2), G2's keys under
    # the identity pairing, 2, 1, 5, 6, would sort to G1's 1, 2, 5, 6
    g1, g2 = Graph(4, [(0, 1), (2, 3)]), Graph(4, [(0, 1), (2, 3)])
    features = {id(g1): np.array([0, 1, 0, 1]), id(g2): np.array([-1, 2, 0, 1])}
    monkeypatch.setattr(alignment, "node_curvature_array", lambda g: features[id(g)])
    monkeypatch.setattr(alignment, "_hash_pairing", lambda *args: np.arange(4))
    solved = hungarian(cost_matrix(ricci_matrix(g1, 1), ricci_matrix(g2, 1)))
    result = align(g1, g2)
    assert result.mapping == solved.mapping
    assert result.total_cost == solved.total_cost > 0.0


def test_align_with_isolated_nodes_at_both_ends_equals_the_void_key_pairing(monkeypatch):
    import riccialign.alignment as alignment

    def unexpected(*args):
        raise AssertionError("the hash pairing passes its CSR check: no dense row is built")

    g = with_isolated_ends(random_connected_graph(40, seed=5), 3, 2)
    h = relabelled(g, 4)
    cases = []
    for mode in ("degree", "ricci"):
        build = degree_matrix if mode == "degree" else ricci_matrix
        m = common_max_degree(g, h)
        cases += [(g1, g2, mode, void_key_pairing(build(g1, m).rows, build(g2, m).rows))
                  for g1, g2 in ((g, h), (h, g))]
    monkeypatch.setattr(alignment, "_fill_rows", unexpected)
    for g1, g2, mode, expected in cases:
        result = align(g1, g2, mode=mode)
        assert result.mapping == expected.mapping
        assert result.total_cost.hex() == expected.total_cost.hex() == (0.0).hex()
        assert result.row_costs == expected.row_costs


def test_align_pairs_rows_that_are_equal_once_zero_padded(monkeypatch):
    import riccialign.alignment as alignment

    def unexpected(*args):
        raise AssertionError("rows equal once zero-padded need no cost matrix or solver")

    # a K2 node's row [0] (its neighbour's curvature) equals an isolated
    # node's padding: the degrees differ, so the CSR keys reject the hash
    # pairing, and the dense rows accept it, the equal rows in ascending id order
    g, h = Graph(3, [(0, 1)]), Graph(3, [(1, 2)])
    assert ricci_matrix(g, 1).rows.tolist() == ricci_matrix(h, 1).rows.tolist() == [[0]] * 3
    # a triangle plus K2 against itself less the K2 edge: rows [-4, -4] three
    # times, then the K2's [0, 0] against two isolated nodes' padding
    full, cut = Graph(5, K3 + [(3, 4)]), Graph(5, K3)
    assert ricci_matrix(full, 2).rows.tolist() == ricci_matrix(cut, 2).rows.tolist()
    monkeypatch.setattr(alignment, "cost_matrix", unexpected)
    monkeypatch.setattr(alignment, "_solve", unexpected)
    assert align(g, h) == Assignment(mapping={0: 0, 1: 1, 2: 2}, total_cost=0.0)
    assert align(g, h, mode="degree").mapping == {0: 1, 1: 2, 2: 0}
    for g1, g2 in ((full, cut), (cut, full)):
        assert align(g1, g2) == Assignment(mapping={v: v for v in range(5)}, total_cost=0.0)


def test_row_hashes_are_uint64_splitmix64_sums():
    from riccialign.alignment import _mix
    from riccialign.curvature import _row_sums

    def splitmix64_finalizer(x):
        x %= 2 ** 64
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB % 2 ** 64
        return x ^ (x >> 31)

    values = [0, 1, -1, 7, -56, 2 ** 63 - 1, -2 ** 63, 0x9E3779B97F4A7C15 - 2 ** 64]
    mixed = _mix(np.array(values, dtype=np.int64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [splitmix64_finalizer(x) for x in values]
    assert mixed.tolist()[::7] == [0, 0xE220A8397B1DCDAF]  # splitmix64's first draw from 0
    # row sums wrap mod 2^64 and stay uint64
    g = random_connected_graph(30, seed=4)
    per_node = _mix(np.arange(-15, 15, dtype=np.int64) * 2 ** 58)
    sums = _row_sums(g, per_node[g.indices])
    assert sums.dtype == np.uint64
    adj = [[] for _ in g.nodes]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    assert sums.tolist() == [sum(int(per_node[u]) for u in a) % 2 ** 64 for a in adj]


def test_align_peak_memory_on_equal_multisets_is_below_the_cost_matrix():
    # an n x n float64 cost matrix alone would take n * n * 8 bytes
    n = 1000
    pairs = np.random.default_rng(0).integers(0, n, size=(5 * n, 2)).tolist()
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    h = relabelled(g, 1)
    result, peak = traced_peak(lambda: align(g, h))
    assert result.total_cost == 0.0
    assert peak < 0.5 * n * n * 8


def test_score_alignment():
    from riccialign import Assignment

    identity = Assignment(mapping={i: i for i in range(500)}, total_cost=0.0)
    assert score_alignment(identity) == (500, 100.0)
    shifted = Assignment(mapping={i: (i + 1) % 10 for i in range(10)}, total_cost=1.0)
    assert score_alignment(shifted) == (0, 0.0)
    partial = Assignment(
        mapping={i: i if i < 416 else (i + 1) % 500 + 416 for i in range(500)},
        total_cost=0.0)
    count, pct = score_alignment(partial)
    assert count == 416
    assert pct == 83.2


def test_signature_locality_under_added_component(example_graph):
    # appending the same disconnected triangle to both graphs leaves the
    # original rows, and hence their pairwise costs, untouched
    base = example_graph
    n = base.num_nodes
    extra = [(n, n + 1), (n, n + 2), (n + 1, n + 2)]
    augmented = Graph(n + 3, list(base.edges) + extra)
    m = max(base.max_degree(), augmented.max_degree())
    rows_base = ricci_matrix(base, m).rows
    rows_aug = ricci_matrix(augmented, m).rows
    assert (rows_aug[:n] == rows_base).all()


def test_row_costs_list_each_pairs_cost():
    c = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    a = hungarian(c)
    assert a.row_costs == tuple(c[v, w] for v, w in sorted(a.mapping.items()))
    assert sum(a.row_costs) == a.total_cost
    g = random_connected_graph(30, seed=4)
    assert align(g, relabelled(g, 2)).row_costs == (0.0,) * 30
