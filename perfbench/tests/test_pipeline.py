"""Self-tests of the benchmark's pipeline run and report.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pipeline  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from surrogate import preferential_attachment_graph, write_graphml  # noqa: E402

from riccialign import Assignment, ExperimentConfig, run_ppi_experiment  # noqa: E402

PAPER = pipeline.WORKLOADS["paper-500"]
SEED = 0


@pytest.fixture(scope="module")
def surrogate_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "surrogate.graphml"
    write_graphml(run.SURROGATE_NODES,
                  preferential_attachment_graph(run.SURROGATE_NODES, run.SURROGATE_SEED), path)
    return path


@pytest.fixture(scope="module")
def universe(surrogate_path):
    return pipeline.build_universe(surrogate_path, SEED)


def _identity(seed, round_id, n):
    return np.arange(n)


@pytest.fixture
def identity_relabelling(monkeypatch):
    monkeypatch.setattr(pipeline, "relabelling", _identity)


def test_seed_0_reproduces_the_baseline_universe(universe):
    assert (universe.num_nodes, universe.num_edges, universe.max_degree()) == (9454, 507600, 349)


def test_identity_relabelling_matches_run_ppi_experiment(surrogate_path, universe,
                                                         identity_relabelling):
    cfg = ExperimentConfig(input_path=str(surrogate_path),
                           intermediate_sample_size=pipeline.INTERMEDIATE_SIZE,
                           subgraph_size=PAPER.subgraph_size,
                           deletion_probability=PAPER.deletion_probability,
                           rounds=3, seed=SEED, mode="rmc")
    report = run_ppi_experiment(cfg)
    counts = [pipeline.run_round(universe, PAPER, SEED, r).correct
              for r in range(1, cfg.rounds + 1)]
    assert counts == [r.correct for r in report.per_round]


def test_fingerprints_repeat_traced_and_untraced(universe):
    first = pipeline.run_round(universe, PAPER, SEED, 2)
    again = pipeline.run_round(universe, PAPER, SEED, 2)
    traced = pipeline.run_round(universe, PAPER, SEED, 2, pipeline.Tracer())
    assert first.fingerprint == again.fingerprint == traced.fingerprint
    assert first.correct == again.correct == traced.correct
    n, e1, e2, m, total = first.fingerprint
    assert n == PAPER.subgraph_size and e2 < e1 and m > 0 and total > 0


def test_relabelling_leaves_the_sampling_draws_alone(universe, monkeypatch):
    assert not (pipeline.relabelling(3, 1, 50) == pipeline.relabelling(4, 1, 50)).all()
    permuted = pipeline.run_round(universe, PAPER, SEED, 1)
    monkeypatch.setattr(pipeline, "relabelling", _identity)
    plain = pipeline.run_round(universe, PAPER, SEED, 1)
    assert permuted.fingerprint[:4] == plain.fingerprint[:4]
    # the optimum is the same; its float sum may run in another order
    assert permuted.fingerprint[4] == pytest.approx(plain.fingerprint[4], rel=1e-12)


def test_a_broken_mapping_counts_as_a_failed_round(universe, monkeypatch):
    def half_mapped(g1, g2, mode):
        return Assignment(mapping={v: 0 for v in g1.nodes}, total_cost=1.0)

    monkeypatch.setattr(pipeline, "align", half_mapped)
    with pytest.raises(pipeline.CheckFailed, match="bijection"):
        pipeline.run_round(universe, PAPER, SEED, 1)
    set_ups = []
    rounds = run.run_rounds(pipeline, lambda: (set_ups.append(1), (universe, 1.0))[1],
                            PAPER, SEED, 0, 2, pipeline.Tracer())
    assert len(set_ups) == 1 + run.SETUP_REPEATS  # the first is the untimed warm-up
    assert rounds.setup_s == [1.0] * run.SETUP_REPEATS
    assert len(rounds.setup_scales) == run.SETUP_REPEATS
    assert rounds.warm is None and rounds.results == rounds.traced == []
    assert [r for r, _ in rounds.failed] == [1, 2] and "bijection" in rounds.failed[0][1]
    # the kernel ran before and after each timed set-up and round
    assert len(rounds.kernel_s) == run.SETUP_REPEATS + 2 + 1
    assert sorted(rounds.round_scales) == [1, 2]


def test_scales_use_the_kernel_runs_either_side():
    times = [reference.REFERENCE_S * t for t in (1, 1, 3, 1)]
    assert reference.scales(times) == pytest.approx([1, 0.5, 0.5])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(range(1, 101)) == (90, 90)
    assert run.tail(range(1, 12)) == (1, 9)
    assert run.tail([3, 1, 2]) == (3, 100)


def test_self_time_subtracts_children():
    tracer = pipeline.Tracer()
    tracer.spans = [["round", 0.0, 10.0, None, 1], ["walk", 1.0, 4.0, 0, 1],
                    ["solve", 5.0, 6.0, 0, 1], ["round", 10.0, 12.0, None, 2]]
    assert tracer.self_times() == {"round": [6.0, 2.0], "walk": [3.0], "solve": [1.0]}


def test_check_repeat_flags_a_changed_fingerprint(tmp_path):
    path = tmp_path / "fp.json"
    assert run.check_repeat(path, {"1": [5, 9, 8, 3, 1.5]}) == []
    assert run.check_repeat(path, {"1": [5, 9, 8, 3, 1.5], "2": [5, 9, 9, 3, 2.0]}) == []
    assert run.check_repeat(path, {"2": [5, 9, 9, 3, 2.5]})
    assert json.loads(path.read_text()) == {"1": [5, 9, 8, 3, 1.5], "2": [5, 9, 9, 3, 2.0]}


def test_listed_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(pipeline.WORKLOADS)


def _checkout(tmp_path, with_sources):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        shutil.copytree(ROOT / "src" / "riccialign", tmp_path / "src" / "riccialign",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _bench(cwd, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-500",
                           "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_exits_nonzero_without_the_sources(tmp_path):
    proc = _bench(_checkout(tmp_path, with_sources=False), 0)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(tmp_path, trace, group):
    proc = _bench(_checkout(tmp_path, with_sources=True), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[group]}
    # repeated-run fingerprints are stored per code hash
    assert (tmp_path / ".perfbench-out" / f"fingerprints-paper-500-seed5-{run.code_hash()}.json"
            ).is_file()
