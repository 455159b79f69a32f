"""Seeded stand-in for the PPI input network, written as GraphML.

A frozen copy of the test suite's surrogate generator and GraphML writer
(``tests/conftest.py``), kept here so that the benchmark's input does not
move when the tests change. ``tests/test_pipeline.py`` pins the input
through the universe it yields (9,454 nodes, 507,600 edges, max degree 349).
"""

from __future__ import annotations

import random
from pathlib import Path


def preferential_attachment_graph(n: int, seed: int, m_max: int = 60,
                                  triangle_prob: float = 0.4,
                                  alpha: float = 1.0) -> list[tuple[int, int]]:
    """Sorted edge list of a heavy-tailed clustered network on nodes 0..n-1.

    Growth by preferential attachment with a Pareto-distributed number of
    edges per new node and probabilistic triangle closure.
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
    return sorted(edges)


def write_graphml(n: int, edges, path) -> None:
    """Minimal undirected GraphML with node ids ``n0..n{n-1}`` in id order."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
             '  <graph id="G" edgedefault="undirected">']
    lines += [f'    <node id="n{v}"/>' for v in range(n)]
    lines += [f'    <edge source="n{u}" target="n{v}"/>' for u, v in edges]
    lines += ["  </graph>", "</graphml>"]
    Path(path).write_text("\n".join(lines))
