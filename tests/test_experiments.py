import json
from pathlib import Path

import pytest

from riccialign import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    GraphError,
    RngHandle,
    emit_report,
    line_graph,
    random_walk_sample,
    run_cle_verification,
    run_ppi_experiment,
    run_torus_experiment,
    write_edge_list,
)
from riccialign.experiments import RoundResult, load_graph, random_connected_graph

from conftest import preferential_attachment_graph, write_graphml


def test_torus_experiment_classes():
    report = run_torus_experiment()
    assert report.class_curvatures == (-56, -40, -28)
    assert report.class_sizes == (12, 12, 12)
    assert report.hole_alignment_rate == 100.0
    assert report.total_cost == 0.0


def test_torus_experiment_row_forms():
    report = run_torus_experiment()
    assert len(set(report.row_forms.values())) == 3
    assert report.row_forms["A"] == (-56, -56, -56, -40, -40, -28)
    assert report.row_forms["B"] == (-56, -56, -40, -28, -28, 0)
    assert report.row_forms["C"] == (-56, -40, -40, -28, 0, 0)
    assert report.distribution == ((-56, 12), (-40, 12), (-28, 12))


def test_torus_experiment_builds_no_cost_matrix(monkeypatch):
    # the torus is aligned with itself: equal row multisets, paired by sorting
    import riccialign.alignment as alignment
    import riccialign.experiments as experiments

    def unexpected(*args):
        raise AssertionError("equal row multisets need no cost matrix or solver")

    expected = run_torus_experiment()
    for module in (alignment, experiments):  # also any name bound by import
        monkeypatch.setattr(module, "cost_matrix", unexpected, raising=False)
        monkeypatch.setattr(module, "hungarian", unexpected, raising=False)
    report = run_torus_experiment()
    assert report.to_dict() == expected.to_dict()
    assert report.class_curvatures == (-56, -40, -28)
    assert report.row_forms["A"] == (-56, -56, -56, -40, -40, -28)
    assert report.distribution == ((-56, 12), (-40, 12), (-28, 12))
    assert report.hole_alignment_rate == 100.0
    assert report.total_cost == 0.0


def test_torus_report_serializes():
    payload = run_torus_experiment().to_dict()
    assert payload["class_sizes"] == [12, 12, 12]
    assert json.dumps(payload)


def test_random_connected_graph_is_connected_and_seeded():
    a = random_connected_graph(25, RngHandle(1))
    b = random_connected_graph(25, RngHandle(1))
    assert a == b
    assert a.is_connected()
    assert a.num_nodes == 25


def test_cle_verification_all_pass():
    results = run_cle_verification(num_graphs=20, max_n=20, seed=3)
    assert len(results) == 23
    assert all(ok for _, ok in results)


def test_config_validation(tmp_path):
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", intermediate_sample_size=10, subgraph_size=20)
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", deletion_probability=1.5)
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", rounds=0)
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", mode="fancy")


@pytest.mark.parametrize("make", [
    lambda: random_walk_sample(random_connected_graph(10, RngHandle(0)), 2.5, RngHandle(0)),
    lambda: random_walk_sample(random_connected_graph(10, RngHandle(0)), True, RngHandle(0)),
    lambda: ExperimentConfig(input_path="x", intermediate_sample_size=1000.0),
    lambda: ExperimentConfig(input_path="x", subgraph_size=True),
    lambda: ExperimentConfig(input_path="x", subgraph_size=250.5),
    lambda: ExperimentConfig(input_path="x", rounds=2.5),
    lambda: ExperimentConfig(input_path="x", rounds="2"),
    lambda: ExperimentConfig(input_path="x", seed=1.5),
    lambda: ExperimentConfig(input_path="x", seed=True),
], ids=["walk-size-float", "walk-size-bool", "intermediate-float", "subgraph-bool",
        "subgraph-float", "rounds-float", "rounds-string", "seed-float", "seed-bool"])
def test_sizes_counts_and_seeds_must_be_integers(make):
    with pytest.raises(GraphError):
        make()


@pytest.mark.parametrize("name", ["intermediate_sample_size", "subgraph_size", "rounds",
                                  "seed"])
def test_integer_errors_name_the_field(name):
    with pytest.raises(GraphError, match=name):
        ExperimentConfig(input_path="x", **{name: 2.5})


@pytest.mark.parametrize("name, value", [("deletion_probability", "0.1"),
                                         ("deletion_probability", True),
                                         ("mode", ["rmc"])],
                         ids=["probability-string", "probability-bool", "mode-list"])
def test_config_rejects_mistyped_probability_and_mode(name, value):
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", **{name: value})


def _small_config(path, **overrides) -> ExperimentConfig:
    defaults = dict(input_path=str(path), intermediate_sample_size=120,
                    subgraph_size=60, deletion_probability=0.01,
                    rounds=3, seed=5, mode="rmc")
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_network(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "small.graphml"
    write_graphml(preferential_attachment_graph(300, seed=8), path)
    return path


def test_ppi_experiment_shape_and_bounds(small_network):
    report = run_ppi_experiment(_small_config(small_network))
    assert len(report.per_round) == 3
    for i, r in enumerate(report.per_round, start=1):
        assert r.round_index == i
        assert 0 <= r.correct <= 60
        assert r.percentage == 100.0 * r.correct / 60
        assert r.seconds >= 0
    mean = sum(r.percentage for r in report.per_round) / 3
    assert report.mean_percentage == pytest.approx(mean)


def test_ppi_experiment_is_seed_deterministic(small_network):
    first = run_ppi_experiment(_small_config(small_network))
    second = run_ppi_experiment(_small_config(small_network))
    assert [(r.correct, r.percentage) for r in first.per_round] == \
        [(r.correct, r.percentage) for r in second.per_round]


def test_ppi_experiment_different_seed_differs(small_network):
    # with only 3 rounds an identical outcome is vanishingly unlikely
    a = run_ppi_experiment(_small_config(small_network))
    b = run_ppi_experiment(_small_config(small_network, seed=6))
    assert [r.correct for r in a.per_round] != [r.correct for r in b.per_round]


def test_ppi_experiment_line_graph_is_the_alignment_universe(small_network):
    # reconstruct the pipeline stages: the universe is the intermediate
    # sample's line graph, so its node count is that sample's edge count
    g = load_graph(small_network)
    cfg = _small_config(small_network)
    intermediate = random_walk_sample(g, cfg.intermediate_sample_size, RngHandle(cfg.seed))
    assert line_graph(intermediate).graph.num_nodes == intermediate.num_edges


def test_ppi_experiment_accepts_in_memory_source(small_network):
    g = load_graph(small_network)
    cfg = _small_config(small_network)
    from_source = run_ppi_experiment(cfg, source=g)
    from_file = run_ppi_experiment(cfg)
    assert [(r.correct, r.percentage) for r in from_source.per_round] == \
        [(r.correct, r.percentage) for r in from_file.per_round]


def test_ppi_experiment_rejects_oversized_intermediate(small_network):
    cfg = _small_config(small_network, intermediate_sample_size=10**6,
                        subgraph_size=100)
    with pytest.raises(ExperimentError):
        run_ppi_experiment(cfg)


def _path_graph(n):
    from riccialign import from_edge_list

    return from_edge_list([(i, i + 1) for i in range(n - 1)])


def test_ppi_experiment_rejects_thin_line_graph(tmp_path):
    # a path graph's line graph is one node smaller than the sample
    path = tmp_path / "path.edges"
    write_edge_list(_path_graph(50), path)
    cfg = ExperimentConfig(input_path=str(path), intermediate_sample_size=50,
                           subgraph_size=50, rounds=1, seed=0)
    with pytest.raises(ExperimentError):
        run_ppi_experiment(cfg)


def test_emit_report_formats(tmp_path):
    cfg = ExperimentConfig(input_path="combined_ppi.graphml", seed=11)
    report = ExperimentReport(
        per_round=(RoundResult(1, 416, 83.2, 0.5),
                   RoundResult(2, 445, 89.0, 0.4)),
        mean_percentage=86.1,
        config=cfg,
    )
    csv_path = tmp_path / "r.csv"
    emit_report(report, csv_path, fmt="csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "round,correct,percentage"
    assert lines[1] == "1,416,83.2"

    md_path = tmp_path / "r.md"
    emit_report(report, md_path, fmt="markdown")
    text = md_path.read_text()
    assert "Round | Absolute Node Count | Percentage" in text
    assert "| 1 | 416 | 83.2% |" in text

    json_path = tmp_path / "r.json"
    emit_report(report, json_path, fmt="json")
    payload = json.loads(json_path.read_text())
    assert payload["config"]["seed"] == 11
    assert payload["rounds"][0]["correct"] == 416
    assert payload["mean_percentage"] == 86.1

    with pytest.raises(ValueError):
        emit_report(report, tmp_path / "r.xml", fmt="xml")


def test_report_echoes_the_whole_config():
    cfg = ExperimentConfig(input_path=Path("nets") / "ppi.graphml",
                           intermediate_sample_size=800, subgraph_size=400,
                           deletion_probability=0.02, rounds=4, seed=9, mode="dmc")
    report = ExperimentReport(per_round=(), mean_percentage=0.0, config=cfg)
    assert list(report.to_dict()["config"].items()) == [
        ("input_path", str(Path("nets") / "ppi.graphml")),
        ("intermediate_sample_size", 800),
        ("subgraph_size", 400),
        ("deletion_probability", 0.02),
        ("rounds", 4),
        ("seed", 9),
        ("mode", "dmc"),
    ]
