"""Golden run of the PPI pipeline: per-round counts and total costs are pinned.

The values were recorded with the tuple-backed Graph that preceded the
array-backed one. Every stage draws from seeded generators and computes in
exact integers (the costs are square roots of exact integer sums), so any
change to the sampling draws, the subgraphs or the signature rows moves at
least one of these numbers.
"""

import riccialign.experiments as experiments
from riccialign import ExperimentConfig, run_ppi_experiment, write_edge_list

from conftest import preferential_attachment_graph

GOLDEN_CORRECT = [459, 438, 429, 439, 421, 457, 422, 422, 443, 416]
GOLDEN_TOTAL_COST = [74825.11030427927, 98834.64325660573, 82850.99978086038,
                     148894.23298361126, 196323.32843020366, 42236.07852089351,
                     140408.4266681095, 73208.95960799641, 99425.54826550104,
                     90547.30149555852]


def test_ppi_seed0_golden(monkeypatch, tmp_path):
    totals = []
    align = experiments.align

    def recording_align(g1, g2, mode):
        result = align(g1, g2, mode=mode)
        totals.append(result.total_cost)
        return result

    monkeypatch.setattr(experiments, "align", recording_align)
    path = tmp_path / "surrogate.edges"
    write_edge_list(preferential_attachment_graph(3800, seed=10), path)
    cfg = ExperimentConfig(input_path=str(path), intermediate_sample_size=1000,
                           subgraph_size=500, deletion_probability=0.01,
                           rounds=10, seed=0, mode="rmc")
    report = run_ppi_experiment(cfg)
    assert [r.correct for r in report.per_round] == GOLDEN_CORRECT
    assert totals == GOLDEN_TOTAL_COST
