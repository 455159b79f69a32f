"""Experiment runners: torus hole identification and PPI line-graph alignment.

The torus experiment aligns the lifted triangular ring with itself, with
Ricci signature matrices, and checks that the minimum-curvature nodes (the
ones bordering the hole) land on each other; since G2 is G1, its 100% holds
by construction. The PPI experiment reproduces the sampled line-graph
pipeline: one intermediate random-walk sample, its line graph, then per
round a fresh subgraph sample, a light random edge deletion, an alignment,
and a fixed-point count by node id.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .graph import Graph, GraphError, _integers, load_graphml, read_edge_list
from .curvature import curvature_distribution, curvature_laplacian_holds, node_curvatures
from .tessellation import triangular_ring_2d, lift_to_3d
from .linegraph import line_graph
from .sampling import RngHandle, _check_probability, random_walk_sample, delete_edges_randomly
from .alignment import MODES, align, ricci_matrix, score_alignment


class ExperimentError(RuntimeError):
    """A pipeline stage could not produce what the configuration asked for."""


def _check_integers(**values) -> None:
    """Raise GraphError, naming the field, unless every value is an integer."""
    for name, value in values.items():
        try:
            _integers(value, ())
        except GraphError as exc:
            raise GraphError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one PPI line-graph alignment experiment."""

    input_path: str | os.PathLike
    intermediate_sample_size: int = 1000
    subgraph_size: int = 500
    deletion_probability: float = 0.01
    rounds: int = 10
    seed: int = 0
    mode: str = "rmc"

    def __post_init__(self):
        if not isinstance(self.input_path, (str, os.PathLike)):
            raise GraphError(f"input_path must be a str or os.PathLike, got {self.input_path!r}")
        _check_integers(**{name: getattr(self, name) for name in
                           ("intermediate_sample_size", "subgraph_size", "rounds", "seed")})
        # build_universe checks subgraph_size against the line graph a round samples
        for name in ("intermediate_sample_size", "subgraph_size"):
            if getattr(self, name) <= 0:
                raise GraphError(f"{name} must be positive")
        _check_probability(self.deletion_probability)
        if self.rounds < 1:
            raise GraphError("rounds must be >= 1")
        if self.seed < 0:
            raise GraphError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise GraphError(f"mode must be one of {sorted(MODES)}, got {self.mode!r}")


@dataclass(frozen=True)
class RoundResult:
    round: int
    correct: int
    percentage: float
    seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    """Per-round correct-match counts plus the configuration that produced them."""

    per_round: tuple
    mean_percentage: float
    config: ExperimentConfig


def load_graph(path) -> Graph:
    """Load a graph file by extension: .graphml or edge-list text."""
    path = Path(path)
    if path.suffix.lower() == ".graphml":
        return load_graphml(path)
    return read_edge_list(path)


# -- torus ------------------------------------------------------------------

@dataclass(frozen=True)
class TorusReport:
    """Curvature classes of the lifted triangular torus and the RMC outcome."""

    class_curvatures: tuple      # (A, B, C) = curvature per class, ascending
    class_sizes: tuple
    row_forms: dict = field(compare=False)   # class label -> Ricci row vector
    distribution: tuple          # (value, count) histogram, value ascending
    hole_alignment_rate: float   # % of A-nodes mapped onto A-nodes
    total_cost: float


def run_torus_experiment() -> TorusReport:
    """Align the lifted triangular torus with itself and classify its nodes.

    The three node-curvature values split the torus into classes A (most
    negative, bordering the hole), B, and C; the report carries one Ricci
    row vector per class and the fraction of A-nodes that the alignment
    sends to A-nodes. The run is `align(torus, torus)`, which is the
    identity, so that fraction is 100% by construction.
    """
    torus = lift_to_3d(triangular_ring_2d())
    curvatures = node_curvatures(torus)
    distribution = tuple(curvature_distribution(torus))
    values, sizes = zip(*distribution)

    rows = ricci_matrix(torus, torus.max_degree()).rows
    class_of = dict(zip(values, "ABC"))
    row_forms = {}
    for v in torus.nodes:
        row_forms.setdefault(class_of[curvatures[v]], tuple(rows[v].tolist()))

    result = align(torus, torus)
    a_nodes = [v for v in torus.nodes if curvatures[v] == values[0]]
    hits = sum(1 for v in a_nodes if curvatures[result.mapping[v]] == values[0])
    rate = 100.0 * hits / len(a_nodes)

    return TorusReport(class_curvatures=tuple(values), class_sizes=sizes,
                       row_forms=row_forms, distribution=distribution,
                       hole_alignment_rate=rate, total_cost=result.total_cost)


# -- PPI line-graph pipeline --------------------------------------------------

def build_universe(cfg: ExperimentConfig) -> Graph:
    """Load cfg.input_path, walk cfg.intermediate_sample_size nodes seeded
    cfg.seed, and return the walk's line graph, which every round samples."""
    g = load_graph(cfg.input_path)
    if cfg.intermediate_sample_size > g.num_nodes:
        raise ExperimentError(
            f"intermediate sample of {cfg.intermediate_sample_size} nodes "
            f"exceeds the input graph ({g.num_nodes} nodes)")
    intermediate = random_walk_sample(g, cfg.intermediate_sample_size, RngHandle(cfg.seed))
    universe = line_graph(intermediate).graph
    if universe.num_nodes < cfg.subgraph_size:
        raise ExperimentError(
            f"line graph has {universe.num_nodes} nodes, fewer than the "
            f"per-round subgraph size {cfg.subgraph_size}")
    return universe


def run_round(universe: Graph, cfg: ExperimentConfig, r: int) -> RoundResult:
    """Round r >= 1: one handle seeded cfg.seed + r walks a cfg.subgraph_size-node
    G1 from the universe, then deletes G1's edges with probability
    cfg.deletion_probability to get G2; align, and count fixed points."""
    _check_integers(r=r)
    if r < 1:
        raise GraphError(f"r must be >= 1, got {r}")
    rng = RngHandle(cfg.seed + r)
    start = time.perf_counter()
    g1 = random_walk_sample(universe, cfg.subgraph_size, rng)
    g2 = delete_edges_randomly(g1, cfg.deletion_probability, rng)
    correct, pct = score_alignment(align(g1, g2, mode=MODES[cfg.mode]))
    return RoundResult(round=r, correct=correct, percentage=pct,
                       seconds=time.perf_counter() - start)


def run_ppi_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the sampled line-graph alignment experiment: `build_universe`,
    then `run_round` for rounds 1..cfg.rounds, and their mean percentage."""
    universe = build_universe(cfg)
    # the solver's first call would import scipy.optimize (about half a second)
    # inside round 1's timer; at p=0 G2 is G1 and no round solves, so no import
    if cfg.deletion_probability > 0:
        import scipy.optimize  # noqa: F401
    results = tuple(run_round(universe, cfg, r) for r in range(1, cfg.rounds + 1))
    mean = statistics.fmean(res.percentage for res in results)
    return ExperimentReport(per_round=results, mean_percentage=mean, config=cfg)


# -- curvature-Laplacian verification -----------------------------------------

def random_connected_graph(n: int, rng: RngHandle, extra_edge_prob: float = 0.15) -> Graph:
    """Seeded connected graph: a random recursive tree plus random extra edges."""
    if n < 1:
        raise GraphError(f"need at least one node, got {n}")
    edges = [(rng.choice(range(v)), v) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.append((u, v))
    return Graph(n, edges)


def run_cle_verification(num_graphs: int = 100, max_n: int = 30,
                         seed: int = 0) -> list[tuple[str, bool]]:
    """Check the curvature-Laplacian identity on fixed and random graphs.

    Returns (description, holds) per graph: the lifted triangular torus,
    the line graphs of the triangle and the claw, then `num_graphs` seeded
    random connected graphs with 2..max_n nodes.
    """
    _check_integers(num_graphs=num_graphs, max_n=max_n)
    if num_graphs < 0:
        raise GraphError(f"num_graphs must be >= 0, got {num_graphs}")
    if max_n < 2:
        raise GraphError(f"max_n must be >= 2, got {max_n}")
    rng = RngHandle(seed)
    checks: list[tuple[str, Graph]] = [
        ("lifted triangular torus", lift_to_3d(triangular_ring_2d())),
        ("line graph of K3", line_graph(Graph(3, [(0, 1), (0, 2), (1, 2)])).graph),
        ("line graph of K1,3", line_graph(Graph(4, [(0, 1), (0, 2), (0, 3)])).graph),
    ]
    for k in range(num_graphs):
        n = rng.randint(2, max_n)
        checks.append((f"random connected graph #{k + 1} (n={n})",
                       random_connected_graph(n, rng)))
    return [(name, curvature_laplacian_holds(g)) for name, g in checks]
