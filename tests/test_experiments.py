import os
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import riccialign
from riccialign import (
    ExperimentConfig,
    ExperimentError,
    GraphError,
    RngHandle,
    build_universe,
    from_edge_list,
    lift_to_3d,
    random_walk_sample,
    run_cle_verification,
    run_ppi_experiment,
    run_round,
    run_torus_experiment,
    triangular_ring_2d,
)
from riccialign.experiments import load_graph, random_connected_graph

from conftest import is_connected, paper_config, recording_align, write_edge_list


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
        monkeypatch.setattr(module, "_solve", unexpected, raising=False)
    report = run_torus_experiment()
    assert asdict(report) == asdict(expected)
    assert report.class_curvatures == (-56, -40, -28)
    assert report.row_forms["A"] == (-56, -56, -56, -40, -40, -28)
    assert report.distribution == ((-56, 12), (-40, 12), (-28, 12))
    assert report.hole_alignment_rate == 100.0
    assert report.total_cost == 0.0


def test_random_connected_graph_is_connected_and_seeded():
    a = random_connected_graph(25, RngHandle(1))
    b = random_connected_graph(25, RngHandle(1))
    assert a == b
    assert is_connected(a)
    assert a.num_nodes == 25


@pytest.mark.parametrize("n", [2.5, True, "3", 0])
def test_random_connected_graph_checks_its_node_count(n):
    with pytest.raises(GraphError, match="^n"):
        random_connected_graph(n, RngHandle(0))


def test_cle_verification_all_pass():
    results = run_cle_verification(num_graphs=20, max_n=20, seed=3)
    assert len(results) == 23
    assert all(ok for _, ok in results)


@pytest.mark.parametrize("field, value", [("num_graphs", 2.5), ("max_n", 7.5),
                                          ("num_graphs", True), ("max_n", True)])
def test_cle_verification_counts_must_be_integers(field, value):
    with pytest.raises(GraphError, match=f"^{field}: expected integers"):
        run_cle_verification(**{field: value})


def test_config_validation(tmp_path):
    # a round samples the intermediate sample's line graph, which can be larger
    ExperimentConfig(input_path="x", intermediate_sample_size=10, subgraph_size=20)
    for size in (0, -1):
        with pytest.raises(GraphError, match="^intermediate_sample_size"):
            ExperimentConfig(input_path="x", intermediate_sample_size=size)
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", deletion_probability=1.5)
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", rounds=0)
    with pytest.raises(GraphError):
        ExperimentConfig(input_path="x", mode="fancy")
    with pytest.raises(GraphError, match="seed"):
        ExperimentConfig(input_path="x", seed=-1)


@pytest.mark.parametrize("path", [None, 123, b"x"], ids=["none", "int", "bytes"])
def test_input_path_must_be_a_str_or_path(path):
    with pytest.raises(GraphError, match="input_path"):
        ExperimentConfig(input_path=path)


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
    return replace(paper_config(path, intermediate_sample_size=120, subgraph_size=60,
                                rounds=3, seed=5), **overrides)


def test_ppi_experiment_shape_and_bounds(small_network):
    report = run_ppi_experiment(_small_config(small_network))
    assert len(report.per_round) == 3
    for i, r in enumerate(report.per_round, start=1):
        assert r.round == i
        assert 0 <= r.correct <= 60
        assert r.percentage == 100.0 * r.correct / 60
        assert r.seconds >= 0
    mean = sum(r.percentage for r in report.per_round) / 3
    assert report.mean_percentage == pytest.approx(mean)


def test_round_one_timer_starts_with_scipy_optimize_loaded(tmp_path):
    # a fresh interpreter, so that no earlier test has imported scipy yet
    torus = tmp_path / "torus.edges"
    write_edge_list(lift_to_3d(triangular_ring_2d()), torus)
    code = textwrap.dedent(f"""
        import sys, time
        from riccialign import ExperimentConfig, experiments
        loaded = []
        class Clock:
            def perf_counter(self):
                loaded.append("scipy.optimize" in sys.modules)
                return time.perf_counter()
        experiments.time = Clock()
        cfg = ExperimentConfig({str(torus)!r}, intermediate_sample_size=30,
                               subgraph_size=20, deletion_probability=0.3, rounds=2)
        experiments.run_ppi_experiment(cfg)
        assert loaded[0], loaded
    """)
    src = str(Path(riccialign.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_zero_deletion_run_never_imports_scipy_optimize(tmp_path):
    # at p=0 G2 is G1, so every round pairs equal rows and none solves
    torus = tmp_path / "torus.edges"
    write_edge_list(lift_to_3d(triangular_ring_2d()), torus)
    code = textwrap.dedent(f"""
        import sys
        from riccialign import ExperimentConfig, run_ppi_experiment
        cfg = ExperimentConfig({str(torus)!r}, intermediate_sample_size=30,
                               subgraph_size=20, deletion_probability=0.0, rounds=3)
        assert len(run_ppi_experiment(cfg).per_round) == 3
        assert "scipy.optimize" not in sys.modules
    """)
    src = str(Path(riccialign.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_round_size_may_exceed_the_intermediate_sample(small_network):
    # 60 walk nodes span a line graph of 315 nodes, so 100-node rounds fit
    cfg = _small_config(small_network, intermediate_sample_size=60, subgraph_size=100)
    with recording_align() as rounds:
        report = run_ppi_experiment(cfg)
    assert len(report.per_round) == len(rounds) == 3
    assert all(g1.num_nodes == 100 for g1, _, _ in rounds)


@pytest.mark.parametrize("seed", [2**63 - 1, np.int64(2**63 - 1), 2**64],
                         ids=["int64-max", "numpy-int64-max", "2**64"])
def test_seeds_beyond_int64_run_their_rounds(small_network, seed):
    # round r is seeded seed + r in Python ints, so a numpy seed does not wrap
    cfg = _small_config(small_network, seed=seed)
    universe = build_universe(cfg)
    with recording_align() as rounds:
        report = run_ppi_experiment(cfg)
    assert [r.round for r in report.per_round] == [1, 2, 3]
    for r, (g1, _, _) in enumerate(rounds, start=1):
        assert g1 == random_walk_sample(universe, cfg.subgraph_size, RngHandle(int(seed) + r))


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
    # the universe is the intermediate walk's line graph: one node per walk edge
    cfg = _small_config(small_network)
    intermediate = random_walk_sample(load_graph(small_network), cfg.intermediate_sample_size,
                                      RngHandle(cfg.seed))
    assert build_universe(cfg).num_nodes == intermediate.num_edges


@pytest.mark.parametrize("mode, p", [(m, p) for m in ("rmc", "dmc") for p in (0.0, 0.01)])
def test_run_round_is_the_experiment_round(small_network, mode, p):
    cfg = _small_config(small_network, mode=mode, deletion_probability=p)
    universe = build_universe(cfg)
    for r, expected in enumerate(run_ppi_experiment(cfg).per_round, start=1):
        assert replace(run_round(universe, cfg, r), seconds=0) == replace(expected, seconds=0)


@pytest.mark.parametrize("r", [0, -1, 1.5, True])
def test_run_round_rejects_a_round_below_one_or_not_an_integer(small_network, r):
    cfg = _small_config(small_network)  # round 0 would replay the intermediate walk's seed
    with pytest.raises(GraphError, match="^r"):
        run_round(build_universe(cfg), cfg, r)


def test_ppi_experiment_rejects_oversized_intermediate(small_network):
    cfg = _small_config(small_network, intermediate_sample_size=10**6, subgraph_size=100)
    for run in (build_universe, run_ppi_experiment):
        with pytest.raises(ExperimentError):
            run(cfg)


def test_ppi_experiment_rejects_an_edgeless_input(tmp_path):
    # the walk's line graph has no nodes, so no round size fits in it
    path = tmp_path / "edgeless.edges"
    write_edge_list(from_edge_list([], n=20), path)
    cfg = ExperimentConfig(input_path=str(path), intermediate_sample_size=10,
                           subgraph_size=5, rounds=1, seed=0)
    for run in (build_universe, run_ppi_experiment):
        with pytest.raises(ExperimentError, match="0 nodes"):
            run(cfg)


def test_ppi_experiment_rejects_thin_line_graph(tmp_path):
    # a path graph's line graph is one node smaller than the sample
    path = tmp_path / "path.edges"
    write_edge_list(from_edge_list([(i, i + 1) for i in range(49)]), path)
    cfg = ExperimentConfig(input_path=str(path), intermediate_sample_size=50,
                           subgraph_size=50, rounds=1, seed=0)
    for run in (build_universe, run_ppi_experiment):
        with pytest.raises(ExperimentError):
            run(cfg)
