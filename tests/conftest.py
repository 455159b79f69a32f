"""Shared fixtures: worked-example graph, torus, and the synthetic PPI stand-in."""

import os
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from riccialign import Graph, RngHandle, experiments, lift_to_3d, triangular_ring_2d

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


def random_connected_graph(n: int, seed: int, extra: float = 0.2) -> Graph:
    """The package's seeded connected graph, keyed by an integer seed."""
    return experiments.random_connected_graph(n, RngHandle(seed), extra)


def is_connected(g: Graph) -> bool:
    """One connected component, counted by scipy from the edge list alone."""
    u, v = g.edge_array.T
    adj = coo_array((np.ones(g.num_edges), (u, v)), shape=(g.num_nodes, g.num_nodes))
    return connected_components(adj, directed=False, return_labels=False) == 1


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
