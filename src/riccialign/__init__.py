"""Graph alignment with Forman-Ricci curvature signature matrices.

The toolkit builds per-node signature matrices from either neighbor degrees
(DMC) or neighbor Forman-Ricci curvatures (RMC), matches the rows of two
graphs with an exact assignment solver, and ships the tessellated-torus and
sampled line-graph experiments that exercise the method end to end.
"""

from ._version import __version__
from .graph import (
    DirectedGraphError,
    Graph,
    GraphError,
    GraphMLError,
    from_edge_list,
    load_graphml,
    read_edge_list,
)
from .curvature import (
    curvature_distribution,
    curvature_laplacian_holds,
    curvature_laplacian_residuals,
    edge_curvatures,
    node_curvatures,
)
from .tessellation import lift_to_3d, triangular_ring_2d
from .linegraph import LineGraphResult, line_graph
from .sampling import RngHandle, delete_edges_randomly, random_walk_sample
from .alignment import (
    Assignment,
    SignatureMatrix,
    align,
    common_max_degree,
    cost_matrix,
    degree_matrix,
    hungarian,
    ricci_matrix,
    score_alignment,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    TorusReport,
    build_universe,
    run_cle_verification,
    run_ppi_experiment,
    run_round,
    run_torus_experiment,
)

__all__ = [
    "__version__",
    "Graph", "GraphError", "GraphMLError", "DirectedGraphError",
    "from_edge_list", "load_graphml", "read_edge_list",
    "edge_curvatures", "node_curvatures", "curvature_distribution",
    "curvature_laplacian_residuals", "curvature_laplacian_holds",
    "triangular_ring_2d", "lift_to_3d",
    "LineGraphResult", "line_graph",
    "RngHandle", "random_walk_sample", "delete_edges_randomly",
    "SignatureMatrix", "Assignment", "common_max_degree", "degree_matrix",
    "ricci_matrix", "cost_matrix", "hungarian", "align",
    "score_alignment",
    "ExperimentConfig", "ExperimentReport", "ExperimentError", "TorusReport",
    "run_torus_experiment", "build_universe", "run_round", "run_ppi_experiment",
    "run_cle_verification",
]
