"""Golden run of the PPI pipeline: per-round counts and total costs are pinned.

The counts were recorded with the tuple-backed Graph that preceded the
array-backed one; the totals were re-recorded when `hungarian` began to add
its row costs with `math.fsum`, whose correctly rounded sum moved them in
their last bits. Every stage draws from seeded generators and computes in
exact integers (the costs are square roots of exact integer sums), so any
change to the sampling draws, the subgraphs or the signature rows moves at
least one of these numbers.
"""

import pytest

from riccialign import common_max_degree, cost_matrix, ricci_matrix, run_ppi_experiment

from conftest import (certified_optimal, paper_config, preferential_attachment_graph,
                      recording_align, write_edge_list)

GOLDEN_CORRECT = [459, 438, 429, 439, 421, 457, 422, 422, 443, 416]
GOLDEN_TOTAL_COST = [74825.1103042793, 98834.64325660601, 82850.99978086028,
                     148894.23298361138, 196323.32843020363, 42236.07852089354,
                     140408.42666810943, 73208.95960799632, 99425.548265501,
                     90547.3014955587]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The golden run's report and, per round, (G1, G2, the alignment)."""
    path = tmp_path_factory.mktemp("golden") / "surrogate.edges"
    write_edge_list(preferential_attachment_graph(3800, seed=10), path)
    with recording_align() as rounds:
        report = run_ppi_experiment(paper_config(path))
    return report, rounds


def test_ppi_seed0_golden(golden_run):
    report, rounds = golden_run
    assert [r.correct for r in report.per_round] == GOLDEN_CORRECT
    assert [result.total_cost for _, _, result in rounds] == GOLDEN_TOTAL_COST


def test_golden_rounds_are_certified_optimal(golden_run):
    # the certificate runs Bellman-Ford on each round's exchange graph; it
    # does not call the solver
    for g1, g2, result in golden_run[1]:
        m = common_max_degree(g1, g2)
        cost = cost_matrix(ricci_matrix(g1, m), ricci_matrix(g2, m))
        cols = [result.mapping[v] for v in range(g1.num_nodes)]
        assert certified_optimal(cost, cols)
    # the last round with two targets swapped costs more, and must fail
    cols[0], cols[1] = cols[1], cols[0]
    assert not certified_optimal(cost, cols)
