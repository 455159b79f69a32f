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
    write_edge_list,
)
from .curvature import (
    CurvatureMap,
    curvature_distribution,
    curvature_map,
    edge_curvature_unweighted,
    node_curvature,
    node_curvatures,
    write_distribution_csv,
)
from .tessellation import (
    TorusSpec,
    build_torus,
    lift_to_3d,
    mixed_tiling_2d,
    square_frame_2d,
    triangular_ring_2d,
    triangulate_prisms,
)
from .spectral import (
    curvature_laplacian_holds,
    curvature_laplacian_residual,
    labeled_signature_vector,
    laplacian,
)
from .linegraph import LineGraphResult, edge_pair_count, line_graph
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
    write_assignment_csv,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    TorusReport,
    emit_report,
    run_cle_verification,
    run_ppi_experiment,
    run_torus_experiment,
)

__all__ = [
    "__version__",
    "Graph", "GraphError", "GraphMLError", "DirectedGraphError",
    "from_edge_list", "load_graphml", "read_edge_list", "write_edge_list",
    "CurvatureMap", "curvature_map", "curvature_distribution",
    "edge_curvature_unweighted", "node_curvature", "node_curvatures",
    "write_distribution_csv",
    "TorusSpec", "build_torus", "triangular_ring_2d", "square_frame_2d",
    "mixed_tiling_2d", "lift_to_3d", "triangulate_prisms",
    "laplacian", "labeled_signature_vector",
    "curvature_laplacian_residual", "curvature_laplacian_holds",
    "LineGraphResult", "line_graph", "edge_pair_count",
    "RngHandle", "random_walk_sample", "delete_edges_randomly",
    "SignatureMatrix", "Assignment", "common_max_degree", "degree_matrix",
    "ricci_matrix", "cost_matrix", "hungarian", "align",
    "score_alignment", "write_assignment_csv",
    "ExperimentConfig", "ExperimentReport", "ExperimentError", "TorusReport",
    "run_torus_experiment", "run_ppi_experiment", "emit_report",
    "run_cle_verification",
]
