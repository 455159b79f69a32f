"""Experiment runners: torus hole identification and PPI line-graph alignment.

The torus experiment aligns two copies of the lifted triangular ring with
Ricci signature matrices and checks that the minimum-curvature nodes (the
ones bordering the hole) land on each other. The PPI experiment reproduces
the sampled line-graph pipeline: one intermediate random-walk sample, its
line graph, then per round a fresh subgraph sample, a light random edge
deletion, an alignment, and a fixed-point count by node id.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ._version import __version__
from .graph import Graph, GraphError, _integers, load_graphml, read_edge_list
from .curvature import curvature_distribution, node_curvatures
from .tessellation import triangular_ring_2d, lift_to_3d
from .spectral import curvature_laplacian_holds
from .linegraph import line_graph
from .sampling import RngHandle, _check_probability, random_walk_sample, delete_edges_randomly
from .alignment import MODES, align, ricci_matrix, score_alignment


class ExperimentError(RuntimeError):
    """A pipeline stage could not produce what the configuration asked for."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one PPI line-graph alignment experiment."""

    input_path: str
    intermediate_sample_size: int = 1000
    subgraph_size: int = 500
    deletion_probability: float = 0.01
    rounds: int = 10
    seed: int = 0
    mode: str = "rmc"

    def __post_init__(self):
        for name in ("intermediate_sample_size", "subgraph_size", "rounds", "seed"):
            try:
                _integers(getattr(self, name), ())
            except GraphError as exc:
                raise GraphError(f"{name}: {exc}") from None
        if self.subgraph_size > self.intermediate_sample_size:
            raise GraphError("subgraph_size must not exceed intermediate_sample_size")
        if self.subgraph_size <= 0:
            raise GraphError("subgraph_size must be positive")
        _check_probability(self.deletion_probability)
        if self.rounds < 1:
            raise GraphError("rounds must be >= 1")
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise GraphError(f"mode must be one of {sorted(MODES)}, got {self.mode!r}")


@dataclass(frozen=True)
class RoundResult:
    round_index: int
    correct: int
    percentage: float
    seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    """Per-round correct-match counts plus configuration and version echo."""

    per_round: tuple
    mean_percentage: float
    config: ExperimentConfig
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "config": {**asdict(self.config), "input_path": str(self.config.input_path)},
            "version": self.version,
            "rounds": [
                {"round": r.round_index, "correct": r.correct,
                 "percentage": r.percentage, "seconds": r.seconds}
                for r in self.per_round
            ],
            "mean_percentage": self.mean_percentage,
        }


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

    def to_dict(self) -> dict:
        return {
            "class_curvatures": list(self.class_curvatures),
            "class_sizes": list(self.class_sizes),
            "row_forms": {k: list(v) for k, v in self.row_forms.items()},
            "distribution": [list(pair) for pair in self.distribution],
            "hole_alignment_rate": self.hole_alignment_rate,
            "total_cost": self.total_cost,
        }


def run_torus_experiment() -> TorusReport:
    """Align two copies of the lifted triangular torus and classify its nodes.

    The three node-curvature values split the torus into classes A (most
    negative, bordering the hole), B, and C; the report carries one Ricci
    row vector per class and the fraction of A-nodes that the alignment
    sends to A-nodes.
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

def run_ppi_experiment(cfg: ExperimentConfig, source: Graph | None = None) -> ExperimentReport:
    """Run the sampled line-graph alignment experiment.

    Stages: load the input network (or use `source` directly), take one
    random-walk sample of cfg.intermediate_sample_size nodes with the master
    seed, build its line graph, then for each round r (seeded cfg.seed + r)
    sample a cfg.subgraph_size-node G1 from the line graph, delete its edges
    with probability cfg.deletion_probability to get G2, align, and count
    nodes mapped to their own id.
    """
    g = source if source is not None else load_graph(cfg.input_path)
    if cfg.intermediate_sample_size > g.num_nodes:
        raise ExperimentError(
            f"intermediate sample of {cfg.intermediate_sample_size} nodes "
            f"exceeds the input graph ({g.num_nodes} nodes)")

    intermediate = random_walk_sample(g, cfg.intermediate_sample_size, RngHandle(cfg.seed))
    if intermediate.num_nodes < cfg.intermediate_sample_size:
        raise ExperimentError(
            f"intermediate stage collected {intermediate.num_nodes} of "
            f"{cfg.intermediate_sample_size} nodes")

    universe = line_graph(intermediate).graph
    if universe.num_nodes < cfg.subgraph_size:
        raise ExperimentError(
            f"line graph has {universe.num_nodes} nodes, fewer than the "
            f"per-round subgraph size {cfg.subgraph_size}")

    mode = MODES[cfg.mode]
    results = []
    for r in range(1, cfg.rounds + 1):
        rng = RngHandle(cfg.seed + r)
        start = time.perf_counter()
        g1 = random_walk_sample(universe, cfg.subgraph_size, rng)
        if g1.num_nodes < cfg.subgraph_size:
            raise ExperimentError(
                f"round {r}: sample collected {g1.num_nodes} of {cfg.subgraph_size} nodes")
        g2 = delete_edges_randomly(g1, cfg.deletion_probability, rng)
        correct, pct = score_alignment(align(g1, g2, mode=mode))
        results.append(RoundResult(round_index=r, correct=correct, percentage=pct,
                                   seconds=time.perf_counter() - start))

    mean = statistics.fmean(res.percentage for res in results)
    return ExperimentReport(per_round=tuple(results), mean_percentage=mean, config=cfg)


# -- report emission ----------------------------------------------------------

REPORT_FORMATS = ("json", "csv", "markdown")


def emit_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Serialize a report as json, csv (`round,correct,percentage`) or markdown."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    elif fmt == "csv":
        lines = ["round,correct,percentage"]
        lines += [f"{r.round_index},{r.correct},{r.percentage:g}"
                  for r in report.per_round]
        path.write_text("\n".join(lines) + "\n")
    else:
        lines = ["| Round | Absolute Node Count | Percentage |",
                 "| --- | --- | --- |"]
        lines += [f"| {r.round_index} | {r.correct} | {r.percentage:g}% |"
                  for r in report.per_round]
        lines.append(f"\nMean percentage: {report.mean_percentage:g}%")
        path.write_text("\n".join(lines) + "\n")


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
    checks: list[tuple[str, Graph]] = [
        ("lifted triangular torus", lift_to_3d(triangular_ring_2d())),
        ("line graph of K3", line_graph(Graph(3, [(0, 1), (0, 2), (1, 2)])).graph),
        ("line graph of K1,3", line_graph(Graph(4, [(0, 1), (0, 2), (0, 3)])).graph),
    ]
    rng = RngHandle(seed)
    for k in range(num_graphs):
        n = rng.generator.randint(2, max_n)
        checks.append((f"random connected graph #{k + 1} (n={n})",
                       random_connected_graph(n, rng)))
    return [(name, curvature_laplacian_holds(g)) for name, g in checks]
