"""Seeded run of the sampled line-graph alignment pipeline.

This module calls riccialign's public functions in the order, and with the
seeds, that ``experiments.run_ppi_experiment`` uses when its master seed is
the workload seed: one intermediate random walk seeded ``seed``, its line
graph as the universe, then per round r a walk and an edge deletion sharing
one generator seeded ``seed + r``. After the deletion it relabels G2 with a
permutation drawn from a separate stream, so the sampling draws are
unchanged and accuracy is scored against a known ground truth instead of
shared node ids.

Untraced rounds align with ``align()``. Traced rounds call the three stages
``align()`` is made of one by one, each inside a span of a ``Tracer``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from riccialign import (
    Graph,
    RngHandle,
    align,
    common_max_degree,
    cost_matrix,
    delete_edges_randomly,
    hungarian,
    line_graph,
    load_graphml,
    random_walk_sample,
    ricci_matrix,
)

INTERMEDIATE_SIZE = 1000
# Entropy word that keeps the relabelling stream apart from every other draw.
RELABEL_STREAM = 0x5E1AB


@dataclass(frozen=True)
class Workload:
    name: str
    subgraph_size: int
    deletion_probability: float


# Why each workload exists: BENCHMARK.json and NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload("paper-500", 500, 0.01),
    Workload("solve-2000", 2000, 0.01),
    Workload("identity-2000", 2000, 0.0),
)}


class CheckFailed(RuntimeError):
    """An output of the pipeline broke one of the benchmark's checks."""


class Tracer:
    """Spans (name, start, end, parent, round id) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, round_id=None):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, round_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        by_name: dict[str, list[float]] = {}
        for (name, *_), t in zip(self.spans, own):
            by_name.setdefault(name, []).append(t)
        return by_name

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "round")
        with Path(path).open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def _span(tracer: Tracer | None):
    if tracer is None:
        return lambda name, round_id=None: nullcontext()
    return tracer.span


def build_universe(path, seed: int, tracer: Tracer | None = None) -> Graph:
    """Set-up: load the input, take the intermediate walk, build its line graph."""
    span = _span(tracer)
    with span("setup"):
        with span("graph.load_graphml"):
            source = load_graphml(path)
        with span("sampling.intermediate_walk"):
            intermediate = random_walk_sample(source, INTERMEDIATE_SIZE,
                                              RngHandle(seed))
        if intermediate.num_nodes != INTERMEDIATE_SIZE:
            raise CheckFailed(f"intermediate walk collected {intermediate.num_nodes} "
                              f"of {INTERMEDIATE_SIZE} nodes")
        with span("linegraph.line_graph"):
            return line_graph(intermediate).graph


def relabelling(seed: int, round_id: int, n: int) -> np.ndarray:
    """Ground-truth permutation for a round: G1 node v is G2 node perm[v]."""
    return np.random.default_rng([RELABEL_STREAM, seed, round_id]).permutation(n)


def relabel(g: Graph, perm) -> Graph:
    perm = list(perm)
    return Graph(g.num_nodes, [(perm[u], perm[v]) for u, v in g.edges])


@dataclass(frozen=True)
class RoundResult:
    round_id: int
    seconds: float
    fingerprint: tuple   # (n, |E1|, |E2|, m, optimal total cost)
    correct: int         # G1 nodes mapped onto their ground-truth image
    dup_rows: int | None = None   # traced rounds only


def run_round(universe: Graph, wl: Workload, seed: int, round_id: int,
              tracer: Tracer | None = None) -> RoundResult:
    """One timed round; raises CheckFailed when an output check fails.

    The timed part is walk + deletion + alignment. Relabelling, scoring and
    checks are benchmark-side work and stay outside it. With a tracer the
    round also checks the solver's total against scipy's optimum.
    """
    span = _span(tracer)
    n = wl.subgraph_size
    with span("round", round_id):
        t0 = time.perf_counter()
        rng = RngHandle(seed + round_id)
        with span("sampling.walk", round_id):
            g1 = random_walk_sample(universe, n, rng)
        if g1.num_nodes != n:
            raise CheckFailed(f"round {round_id}: walk collected {g1.num_nodes} of {n} nodes")
        with span("sampling.delete", round_id):
            g2 = delete_edges_randomly(g1, wl.deletion_probability, rng)
        t1 = time.perf_counter()
        with span("bench.relabel", round_id):
            perm = relabelling(seed, round_id, n)
            g2 = relabel(g2, perm)
        t2 = time.perf_counter()
        if tracer is None:
            assignment = align(g1, g2, mode="ricci")
        else:
            with span("alignment.signature", round_id):
                m = common_max_degree(g1, g2)
                sig1, sig2 = ricci_matrix(g1, m), ricci_matrix(g2, m)
            with span("alignment.cost", round_id):
                cost = cost_matrix(sig1, sig2)
            with span("alignment.solve", round_id):
                assignment = hungarian(cost)
        seconds = (t1 - t0) + (time.perf_counter() - t2)

    mapping = assignment.mapping
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        raise CheckFailed(f"round {round_id}: mapping is not a bijection onto G2's nodes")
    total = assignment.total_cost
    if wl.deletion_probability == 0.0 and total != 0.0:
        raise CheckFailed(f"round {round_id}: identical graphs cost {total!r}, not 0.0")
    dup_rows = None
    if tracer is not None:
        rows, cols = linear_sum_assignment(cost)
        optimum = float(cost[rows, cols].sum())
        if not np.isclose(total, optimum, rtol=1e-9, atol=0.0):
            raise CheckFailed(f"round {round_id}: hungarian total {total!r} "
                              f"is not scipy's optimum {optimum!r}")
        _, inverse, counts = np.unique(sig1.rows, axis=0, return_inverse=True,
                                       return_counts=True)
        dup_rows = int((counts[inverse.ravel()] > 1).sum())
    else:
        m = common_max_degree(g1, g2)
    correct = sum(1 for v, w in mapping.items() if w == perm[v])
    return RoundResult(round_id=round_id, seconds=seconds,
                       fingerprint=(n, g1.num_edges, g2.num_edges, m, total),
                       correct=correct, dup_rows=dup_rows)
