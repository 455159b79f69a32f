import copy
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from riccialign import (
    Graph,
    GraphError,
    RngHandle,
    delete_edges_randomly,
    from_edge_list,
    random_walk_sample,
    sampling,
)

from conftest import (Reference, random_connected_graph, random_graph, reference_subgraph_edges,
                      reference_walk)


def walked_ids(g, size, seed):
    """The parent ids a walk of `size` on g collects, by the tuple reference."""
    return reference_walk(Reference(g.num_nodes, g.edges), size, RngHandle(seed))


def test_rng_handle_replays_by_seed():
    a, b = RngHandle(123), RngHandle(123)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


@pytest.mark.parametrize("make", [
    lambda: RngHandle(1.5),
    lambda: RngHandle("7"),
], ids=["seed-float", "seed-string"])
def test_rng_handle_rejects_non_integer_seeds(make):
    with pytest.raises(GraphError):
        make()


def test_rng_handle_rejects_negative_seeds():
    # random.Random seeds from |seed|, so -3 would replay 3's draws
    with pytest.raises(GraphError, match="seed must be >= 0"):
        RngHandle(-3)
    assert RngHandle(0).random() == random.Random(0).random()


@pytest.mark.parametrize("seed", [2**63 - 1, 2**63, 2**70, np.uint64(2**64 - 1)],
                         ids=["int64-max", "2**63", "2**70", "uint64-max"])
def test_rng_handle_takes_seeds_of_any_size(seed):
    # as random.Random does: no seed is wrapped into int64 on the way
    rng, expected = RngHandle(seed), random.Random(int(seed))
    assert [rng.random() for _ in range(5)] == [expected.random() for _ in range(5)]
    assert rng.getstate() == expected.getstate()


@pytest.mark.parametrize("bad", [-1, True, 1.5], ids=["negative", "bool", "float"])
def test_rng_handle_reseeds_are_checked(bad):
    with pytest.raises(GraphError):
        RngHandle(1).seed(bad)


@pytest.mark.parametrize("duplicate", [
    copy.copy,
    copy.deepcopy,
    lambda rng: pickle.loads(pickle.dumps(rng)),
], ids=["copy", "deepcopy", "pickle"])
def test_rng_handle_copies_are_independent_handles_in_the_same_state(duplicate):
    rng = RngHandle(8)
    rng.random()
    dup = duplicate(rng)
    assert type(dup) is RngHandle and isinstance(dup, random.Random)
    assert dup.getstate() == rng.getstate()
    assert [dup.random() for _ in range(3)] == [rng.random() for _ in range(3)]
    dup.random()  # draws from the copy leave the original where it was
    assert dup.getstate() != rng.getstate()


def test_full_size_sample_is_a_copy():
    g = random_connected_graph(20, seed=1)
    sample = random_walk_sample(g, 20, RngHandle(0))
    assert sample.num_nodes == g.num_nodes
    assert tuple(sample.edges) == tuple(g.edges)


def test_single_node_sample():
    g = random_connected_graph(10, seed=2)
    sample = random_walk_sample(g, 1, RngHandle(0))
    assert sample.num_nodes == 1
    assert sample.num_edges == 0


def test_sample_on_torus_is_deterministic(lifted_torus):
    first = random_walk_sample(lifted_torus, 10, RngHandle(42))
    second = random_walk_sample(lifted_torus, 10, RngHandle(42))
    assert first == second
    visited = walked_ids(lifted_torus, 10, 42)
    assert sorted(visited) == [0, 1, 2, 7, 8, 18, 19, 23, 25, 26]
    assert first == lifted_torus.induced_subgraph(visited)


def test_sample_is_induced_subgraph(lifted_torus):
    sample = random_walk_sample(lifted_torus, 12, RngHandle(9))
    visited = walked_ids(lifted_torus, 12, 9)
    assert sample == lifted_torus.induced_subgraph(visited)
    ref = Reference(lifted_torus.num_nodes, lifted_torus.edges)
    assert tuple(sample.edges) == reference_subgraph_edges(ref, visited)


def test_sample_size_validation(lifted_torus):
    with pytest.raises(GraphError):
        random_walk_sample(lifted_torus, 0, RngHandle(0))
    with pytest.raises(GraphError):
        random_walk_sample(lifted_torus, 37, RngHandle(0))


def test_sample_size_beyond_int64_is_named_as_too_large(lifted_torus):
    with pytest.raises(GraphError,
                       match="^sample size 9223372036854775808 exceeds graph size 36$"):
        random_walk_sample(lifted_torus, 2**63, RngHandle(0))


def test_sample_escapes_components_via_jump(monkeypatch):
    # two disjoint triangles: only the stagnation jump can cross over
    monkeypatch.setattr(sampling, "_MAX_STAGNANT", 10)
    g = from_edge_list([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    sample = random_walk_sample(g, 5, RngHandle(3))
    assert sample.num_nodes == 5


def test_sample_reaches_isolated_node(monkeypatch):
    # the isolated node is only reachable through the no-neighbor branch
    monkeypatch.setattr(sampling, "_MAX_STAGNANT", 5)
    g = from_edge_list([(0, 1)], n=3)
    sample = random_walk_sample(g, 3, RngHandle(0))
    assert sample.num_nodes == 3


@pytest.fixture
def walk_orders(monkeypatch):
    """The ids each walk collects, in order, as it hands them to induced_subgraph."""
    orders = []
    subgraph = Graph.induced_subgraph

    def record(g, keep):
        orders.append(list(keep))
        return subgraph(g, keep)

    monkeypatch.setattr(Graph, "induced_subgraph", record)
    return orders


def assert_walks_like_choice(g, size, seed, orders):
    """The walk's order and the handle's end state are those of the reference,
    which draws every step with random.Random.choice."""
    rng, ref_rng = RngHandle(seed), RngHandle(seed)
    random_walk_sample(g, size, rng)
    ref = reference_walk(Reference(g.num_nodes, g.edges), size, ref_rng, sampling._MAX_STAGNANT)
    assert orders[-1] == ref
    assert rng.getstate() == ref_rng.getstate()


# choice(seq) draws getrandbits(len(seq).bit_length()) until the result is
# below len(seq): these lengths sit on and next to the powers of two
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 8, 9])
def test_walk_draws_rows_like_choice(walk_orders, degree):
    # a complete graph (every row has `degree` entries) beside a star (rows
    # of `degree` and of 1), joined by one edge
    k = degree + 1
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    pairs += [(k, k + 1 + i) for i in range(degree)] + [(0, k)]
    g = from_edge_list(pairs)
    for seed in range(8):
        assert_walks_like_choice(g, g.num_nodes, seed, walk_orders)


@pytest.mark.parametrize("max_stagnant", [3, 100])
def test_walk_through_isolated_nodes_draws_like_choice(monkeypatch, walk_orders, max_stagnant):
    # from an isolated node the step is a draw over all nodes
    monkeypatch.setattr(sampling, "_MAX_STAGNANT", max_stagnant)
    g = from_edge_list([(0, 1), (1, 2), (2, 3)], n=7)
    for seed in range(12):
        assert_walks_like_choice(g, 7, seed, walk_orders)


@pytest.mark.parametrize("max_stagnant", [1, 2])
def test_walk_jumps_draw_like_choice(monkeypatch, walk_orders, max_stagnant):
    # the jump draws from the sorted not-yet-collected nodes and collects the
    # node it lands on, on disjoint edges and isolated nodes
    monkeypatch.setattr(sampling, "_MAX_STAGNANT", max_stagnant)
    g = from_edge_list([(2 * i, 2 * i + 1) for i in range(6)], n=16)
    for seed in range(12):
        for size in (5, 16):
            assert_walks_like_choice(g, size, seed, walk_orders)


def test_walk_that_jumps_after_every_stagnant_step_finishes(monkeypatch, walk_orders):
    # on a star every step from a leaf returns to the collected hub, so only
    # jumps collect the other leaves: a jump that left its target uncollected
    # would jump from leaf to leaf forever. The draws are bounded so that such
    # a walk fails instead of hanging
    monkeypatch.setattr(sampling, "_MAX_STAGNANT", 1)
    below, draws = sampling._below, []

    def bounded(getrandbits, n):
        draws.append(n)
        assert len(draws) < 10_000, "the walk does not finish"
        return below(getrandbits, n)

    monkeypatch.setattr(sampling, "_below", bounded)
    g = from_edge_list([(0, v) for v in range(1, 11)])
    for seed in range(12):
        assert_walks_like_choice(g, 11, seed, walk_orders)


def test_delete_edges_p_zero_keeps_everything(lifted_torus):
    # the graph itself, not an equal copy
    assert delete_edges_randomly(lifted_torus, 0.0, RngHandle(1)) is lifted_torus


def test_delete_edges_p_one_removes_everything(lifted_torus):
    out = delete_edges_randomly(lifted_torus, 1.0, RngHandle(1))
    assert out.num_nodes == lifted_torus.num_nodes
    assert out.num_edges == 0


def test_delete_edges_is_seed_deterministic(lifted_torus):
    a = delete_edges_randomly(lifted_torus, 0.4, RngHandle(7))
    b = delete_edges_randomly(lifted_torus, 0.4, RngHandle(7))
    assert a == b
    assert a.num_edges < lifted_torus.num_edges


def test_delete_edges_never_adds(lifted_torus):
    out = delete_edges_randomly(lifted_torus, 0.3, RngHandle(5))
    assert set(out.edges) <= set(lifted_torus.edges)


def test_delete_edges_validates_probability(lifted_torus):
    for bad in (-0.1, 1.5):
        with pytest.raises(GraphError):
            delete_edges_randomly(lifted_torus, bad, RngHandle(0))


@pytest.mark.parametrize("bad", ["0.1", None, True], ids=["string", "none", "bool"])
def test_delete_edges_probability_must_be_a_number(lifted_torus, bad):
    with pytest.raises(GraphError):
        delete_edges_randomly(lifted_torus, bad, RngHandle(0))


# 624 words is the Mersenne Twister state: these sizes cross its regeneration
@pytest.mark.parametrize("num_edges", [0, 1, 623, 624, 625, 1249, 5000])
@pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
@pytest.mark.parametrize("gauss_first", [False, True], ids=["fresh", "gauss-pending"])
def test_deletion_hands_the_stream_back_like_per_edge_draws(num_edges, seed, gauss_first):
    g = from_edge_list([(i, i + 1) for i in range(num_edges)], n=num_edges + 1)
    rng, ref = RngHandle(seed), random.Random(seed)
    if gauss_first:  # consumes two draws and leaves gauss_next pending
        assert rng.gauss() == ref.gauss()
    kept = delete_edges_randomly(g, 0.3, rng)
    if num_edges == 0:  # every edge kept: the graph itself
        assert kept is g
    want = [e for e in g.edges if ref.random() >= 0.3]
    assert tuple(kept.edges) == tuple(want)
    assert kept == Graph(g.num_nodes, want)  # the backward slots too
    assert rng.getstate() == ref.getstate()
    assert rng.random() == ref.random()


# a path's backward slots are in edge order, the torus's and the random graph's are not
@pytest.mark.parametrize("p, graph", [(0.3, "torus"), (0.3, "random")],
                         ids=["0.3", "random-0.3"])
def test_deletion_leaves_the_state_of_per_edge_draws_at_any_p(lifted_torus, p, graph):
    g = lifted_torus if graph == "torus" else random_graph(40, 0.2, 3)
    rng, ref = RngHandle(5), random.Random(5)
    kept = delete_edges_randomly(g, p, rng)
    want = [e for e in g.edges if ref.random() >= p]
    assert tuple(kept.edges) == tuple(want)
    assert kept == Graph(g.num_nodes, want)
    assert rng.getstate() == ref.getstate()


# p = 0 keeps and p = 1 drops every edge whatever the uniforms, and with no
# edges there is nothing to draw: the outcome is certain, so the handle stays put
@pytest.mark.parametrize("p, graph",
                         [(0.0, "torus"), (1.0, "torus"), (0.0, "random"), (1.0, "random"),
                          (0.3, "edgeless")],
                         ids=["0.0", "1.0", "random-0.0", "random-1.0", "edgeless-0.3"])
def test_a_certain_deletion_draws_nothing(lifted_torus, p, graph):
    g = {"torus": lifted_torus, "random": random_graph(40, 0.2, 3),
         "edgeless": Graph(5, [])}[graph]
    rng, ref = RngHandle(5), random.Random(5)
    before = rng.getstate()
    kept = delete_edges_randomly(g, p, rng)
    want = [e for e in g.edges if ref.random() >= p]
    assert tuple(kept.edges) == tuple(want)
    assert kept == Graph(g.num_nodes, want)
    assert rng.getstate() == before
    if p == 0 or g.num_edges == 0:
        assert kept is g


def test_deletion_in_threads_matches_sequential_calls():
    g = from_edge_list([(i, i + 1) for i in range(3000)])
    seeds = range(4)  # more threads than cores

    def rounds(seed):
        rng = RngHandle(seed)
        kept = [delete_edges_randomly(g, 0.3, rng) for _ in range(30)]
        return kept, rng.getstate()

    sequential = [rounds(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            threaded = [f.result(timeout=60) for f in [pool.submit(rounds, s) for s in seeds]]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
