"""Shared fixtures: worked-example graph, torus, the synthetic PPI stand-in, and the
tuple-and-set references that the vectorised graph layers are checked against."""

import os
import random
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford, connected_components

from riccialign import (
    Assignment,
    DirectedGraphError,
    ExperimentConfig,
    Graph,
    GraphMLError,
    RngHandle,
    align,
    experiments,
    lift_to_3d,
    triangular_ring_2d,
)

# Worked example used across the suite: hub node 0 has neighbors of degree
# 1, 4, and 5 whose node curvatures come out to -2, -20, and -27.
EXAMPLE_EDGES = [(0, 1), (0, 2), (0, 3), (2, 3), (2, 4), (2, 5),
                 (3, 6), (3, 7), (3, 8), (4, 5), (7, 8)]


@pytest.fixture
def example_graph() -> Graph:
    return Graph(9, EXAMPLE_EDGES)


@pytest.fixture
def lifted_torus() -> Graph:
    return lift_to_3d(triangular_ring_2d())


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi-style graph (possibly disconnected)."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(n: int, seed: int) -> Graph:
    """The package's seeded connected graph, keyed by an integer seed, with
    each extra edge drawn at 0.2 rather than its 0.15: the same draws."""
    rng = RngHandle(seed)
    edges = [(rng.choice(range(v)), v) for v in range(1, n)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
    return Graph(n, edges)


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
    """The walk over neighbor tuples, as before the CSR Graph; a jump collects
    its target."""
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
            nxt = rng.choice(sorted(set(all_nodes) - visited_set))
            visited.append(nxt)
            visited_set.add(nxt)
            stagnant = 0
        current = nxt
    return visited


def reference_subgraph_edges(ref, keep):
    index = {v: i for i, v in enumerate(sorted(set(keep)))}
    return tuple((index[u], index[v]) for u, v in ref.edges if u in index and v in index)


@contextmanager
def edge_array_reads():
    """A list that gets every graph whose `edge_array` (or `edges`) is read
    inside the block, once per read."""
    reads = []
    build = Graph.edge_array.fget

    def probe(g):
        reads.append(g)
        return build(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Graph, "edge_array", property(probe))
        yield reads


def paper_config(path, **overrides) -> ExperimentConfig:
    """The paper's run: a 1000-node intermediate walk, ten 500-node RMC rounds at p = 0.01."""
    return replace(ExperimentConfig(str(path), intermediate_sample_size=1000, subgraph_size=500,
                                    deletion_probability=0.01, rounds=10, seed=0, mode="rmc"),
                   **overrides)


@contextmanager
def recording_align():
    """A list that gets (G1, G2, the alignment) of every `experiments.align`
    call made inside the block: each PPI round's graphs, in round order."""
    rounds = []

    def record(g1, g2, mode):
        rounds.append((g1, g2, align(g1, g2, mode=mode)))
        return rounds[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "align", record)
        yield rounds


def is_connected(g: Graph) -> bool:
    """One connected component, counted by scipy from the edge list alone."""
    u, v = g.edge_array.T
    adj = coo_array((np.ones(g.num_edges), (u, v)), shape=(g.num_nodes, g.num_nodes))
    return connected_components(adj, directed=False, return_labels=False) == 1


def edge_pair_count(g: Graph) -> int:
    """Number of adjacent edge pairs, sum over nodes of C(deg, 2).

    This is |E(L(G))|, an independent size oracle for line_graph.
    """
    d = g.degrees
    return int((d * (d - 1) // 2).sum())


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list text format, with an `n=` header."""
    with Path(path).open("w") as fh:
        fh.write(f"n={g.num_nodes}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def dense_laplacian(g: Graph) -> np.ndarray:
    """The paper's integer Laplacian L = D - A as a dense N x N array."""
    lap = np.zeros((g.num_nodes, g.num_nodes), dtype=np.int64)
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = -1
        lap[u, u] += 1
        lap[v, v] += 1
    return lap


def labeled_signature_vector(g: Graph, i) -> np.ndarray:
    """The paper's s_i: s_l = deg(v_l) for neighbours l of i, deg(v_i) otherwise.

    The self slot l = i takes the "otherwise" branch. The id is checked
    first, so a negative i cannot silently pick the last row.
    """
    (i,) = g.node_ids([i])
    lap = dense_laplacian(g)
    deg = np.diag(lap)
    return np.where(lap[i] == -1, deg, deg[i])


def certified_optimal(cost, cols) -> bool:
    """Whether row i -> cols[i] is a minimum-cost assignment of `cost`, checked
    without the solver: its exchange graph has no negative cycle.

    The arc i -> k, row i taking row k's target, weighs c[i, cols[k]] -
    c[i, cols[i]]; an assignment is optimal exactly when no cycle of such
    exchanges lowers the total (LP duality, Kuhn 1955). Bellman-Ford from a
    virtual source gives potentials p, and the check is p[k] <= p[i] + w(i, k)
    on every arc. The arcs are explicit sparse entries: csgraph reads a zero
    of a dense array as "no arc", and tied costs make many arcs weigh 0.

    Tolerance: each entry is a correctly rounded square root of an exact
    integer, within u*cmax of its true value (u = 2**-53, cmax the largest
    entry), so a computed arc weight is within 3u*cmax of its true weight.
    Bellman-Ford's running sums stay below 2n*cmax in size, so each of at
    most n additions along a cycle rounds by at most 2n*u*cmax. Every arc is
    raised by tol = 4n*u*cmax, which covers both, so an optimal assignment
    always passes; one that passes is within n*tol of the optimum.
    """
    c = np.asarray(cost, dtype=np.float64)
    n = c.shape[0]
    tol = 4 * n * 2.0**-53 * c.max(initial=0.0)
    weights = c[:, cols] - c[np.arange(n), cols][:, None] + tol
    # nodes 0..n-1 are rows; node n is the source, with a 0-weight arc to each row
    data = np.concatenate((weights.ravel(), np.zeros(n)))
    graph = csr_array((data, np.tile(np.arange(n), n + 1), np.arange(n + 2) * n),
                      shape=(n + 1, n + 1))
    try:
        p = bellman_ford(graph, directed=True, indices=n)[:n]
    except NegativeCycleError:
        return False
    return bool((p[None, :] <= p[:, None] + weights).all())


def assignment_minimum(cost) -> float:
    """The least total of any assignment of the square `cost`, without a solver.

    best[S] is the least cost of giving rows 0..|S|-1 the columns in the set
    S, so best[S | {j}] is the least best[S] + c[|S|, j] over j not in S:
    O(n * 2**n) steps against n! permutations. Each total is added up in row
    order, as summing a permutation's entries row by row does, and rounding
    is monotone, so the result equals the least of those sums exactly.
    """
    rows = np.asarray(cost, dtype=np.float64).tolist()
    n = len(rows)
    best = [0.0] + [float("inf")] * ((1 << n) - 1)
    for used in range(1 << n):  # every subset comes before its supersets
        i = bin(used).count("1")
        if i == n:
            continue
        for j, c in enumerate(rows[i]):
            if not used >> j & 1:
                total = best[used] + c
                if total < best[used | 1 << j]:
                    best[used | 1 << j] = total
    return best[-1]


def void_key_pairing(rows1, rows2) -> Assignment | None:
    """The zero-cost assignment when both row sets are one multiset, else None:
    the ascending-id pairing of equal rows, read off the dense rows alone.

    Each int64 row is viewed as one np.void key, equal exactly when the rows
    are. The k-th row of rows1 in stable key order goes to the k-th of rows2;
    the multisets are equal exactly when every row then equals its image's.
    """
    n, m = rows1.shape
    dst = np.arange(n)  # a void view of size 0 drops the rows; empty rows are all equal
    if m:
        a = np.ascontiguousarray(rows1, dtype=np.int64)
        b = np.ascontiguousarray(rows2, dtype=np.int64)
        key = np.dtype((np.void, 8 * m))
        dst[np.argsort(a.view(key).ravel(), kind="stable")] = \
            np.argsort(b.view(key).ravel(), kind="stable")
        if not np.array_equal(a, b[dst]):
            return None
    return Assignment(mapping=dict(enumerate(dst.tolist())), total_cost=0.0,
                      row_costs=(0.0,) * n)


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def write_graphml(g: Graph, path, edgedefault: str = "undirected") -> None:
    """Minimal GraphML writer for test inputs; node v gets the id `n{v}`."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
             f'  <graph id="G" edgedefault="{edgedefault}">']
    lines += [f'    <node id="n{v}"/>' for v in g.nodes]
    lines += [f'    <edge source="n{u}" target="n{v}"/>' for u, v in g.edges]
    lines += ["  </graph>", "</graphml>"]
    Path(path).write_text("\n".join(lines))


def load_graphml_reference(path) -> Graph:
    """The GraphML loader as one ElementTree parse and a pass over the tree.

    The reference for ``load_graphml``'s tree-free expat pass: the first
    ``<graph>`` of ``root.iter()``, names matched by local name, nodes
    numbered in document order, and the same faults in the same order.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such GraphML file: {path}")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise GraphMLError(f"malformed XML in {path}: {exc}") from exc

    def local_name(tag) -> str:
        return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""

    graph_el = next((el for el in root.iter() if local_name(el.tag) == "graph"), None)
    if graph_el is None:
        raise GraphMLError(f"no <graph> element in {path}")
    if graph_el.get("edgedefault", "undirected").lower() == "directed":
        raise DirectedGraphError(f"{path} declares edgedefault=\"directed\"")
    ids: dict[str, int] = {}
    edge_els = []
    for el in graph_el.iter():
        name = local_name(el.tag)
        if name == "node":
            raw = el.get("id")
            if raw is None:
                raise GraphMLError("node element without id attribute")
            ids.setdefault(raw, len(ids))
        elif name == "edge":
            edge_els.append(el)
    ends = []
    for el in edge_els:
        if el.get("directed", "false").lower() == "true":
            raise DirectedGraphError(f"{path} contains a directed edge")
        src, dst = el.get("source"), el.get("target")
        if src is None or dst is None:
            raise GraphMLError("edge element without source/target")
        u, v = ids.get(src), ids.get(dst)
        if u is None or v is None:
            raise GraphMLError(f"edge references unknown node id {src!r} or {dst!r}")
        if u != v:
            ends.append((u, v))
    return Graph(len(ids), np.array(ends, dtype=np.int64).reshape(-1, 2))


def preferential_attachment_graph(n: int, seed: int, m_max: int = 60,
                                  triangle_prob: float = 0.4,
                                  alpha: float = 1.0) -> Graph:
    """Heavy-tailed clustered network, a stand-in for the PPI input.

    Growth by preferential attachment with a Pareto-distributed number of
    edges per new node and probabilistic triangle closure, which gives the
    smooth degree spectrum and clustering an interactome exhibits.
    """
    rng = random.Random(seed)
    edges = {(0, 1)}
    repeated = [0, 1]
    adj: dict[int, set] = {v: set() for v in range(n)}
    adj[0].add(1)
    adj[1].add(0)
    for v in range(2, n):
        m_v = min(1 + min(int(rng.paretovariate(alpha)) - 1, m_max), v)
        chosen: set = set()
        last = None
        while len(chosen) < m_v:
            if last is not None and rng.random() < triangle_prob and adj[last]:
                cand = rng.choice(sorted(adj[last]))
            else:
                cand = rng.choice(repeated)
            if cand != v and cand not in chosen:
                chosen.add(cand)
                last = cand
        for u in chosen:
            edges.add((min(u, v), max(u, v)))
            adj[u].add(v)
            adj[v].add(u)
            repeated += [u, v]
    return Graph(n, sorted(edges))


@pytest.fixture(scope="session")
def small_network(tmp_path_factory) -> Path:
    """A 300-node GraphML network, small enough for many PPI runs and commands."""
    path = tmp_path_factory.mktemp("nets") / "small.graphml"
    write_graphml(preferential_attachment_graph(300, seed=8), path)
    return path


@pytest.fixture(scope="session")
def ppi_graphml(tmp_path_factory) -> Path:
    """Path to a PPI-scale GraphML input for the pipeline experiments.

    Uses the file named by RICCIALIGN_PPI_GRAPHML when that is set, otherwise
    writes a seeded synthetic network of comparable scale.
    """
    override = os.environ.get("RICCIALIGN_PPI_GRAPHML")
    if override:
        return Path(override)
    path = tmp_path_factory.mktemp("data") / "surrogate_ppi.graphml"
    write_graphml(preferential_attachment_graph(3800, seed=10), path)
    return path
