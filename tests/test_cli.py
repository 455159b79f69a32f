import dataclasses
import json

import numpy as np
import pytest

from riccialign import Graph, align, common_max_degree, cost_matrix, degree_matrix, \
    from_edge_list, hungarian, ricci_matrix, write_edge_list
from riccialign.alignment import MODES
from riccialign.cli import main, read_config_file
from riccialign.experiments import ExperimentConfig

from conftest import preferential_attachment_graph, write_graphml


def test_torus_command(capsys, tmp_path):
    out = tmp_path / "torus.json"
    assert main(["torus", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "class A: curvature -56, 12 nodes" in text
    assert "100%" in text
    payload = json.loads(out.read_text())
    assert payload["class_sizes"] == [12, 12, 12]


def test_verify_cle_command(capsys):
    assert main(["verify-cle", "--random-graphs", "5", "--max-n", "12",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "8/8 graphs satisfy the identity" in out


def test_align_command(capsys, tmp_path):
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    g1 = tmp_path / "g1.edges"
    g2 = tmp_path / "g2.edges"
    write_edge_list(g, g1)
    write_edge_list(g, g2)
    out = tmp_path / "assignment.csv"
    assert main(["align", "--mode", "rmc", "--g1", str(g1), "--g2", str(g2),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g1_node,g2_node,row_cost"
    assert len(lines) == 5
    assert "fixed points: 4 (100%)" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["rmc", "dmc"])
def test_align_command_matches_library(capsys, tmp_path, lifted_torus, mode):
    g1 = lifted_torus
    g2 = Graph(g1.num_nodes, g1.edges[1:])  # one edge removed
    paths = tmp_path / "g1.edges", tmp_path / "g2.edges"
    write_edge_list(g1, paths[0])
    write_edge_list(g2, paths[1])
    out = tmp_path / "assignment.csv"
    assert main(["align", "--mode", mode, "--g1", str(paths[0]),
                 "--g2", str(paths[1]), "--out", str(out)]) == 0

    build = ricci_matrix if mode == "rmc" else degree_matrix
    m = common_max_degree(g1, g2)
    cost = cost_matrix(build(g1, m), build(g2, m))
    expected = hungarian(cost)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {int(src): int(dst) for src, dst, _ in rows} == expected.mapping
    assert [float(c) for *_, c in rows] == [cost[src, dst] for src, dst in
                                            sorted(expected.mapping.items())]
    total = align(g1, g2, MODES[mode]).total_cost
    assert f"total cost {total:g}\n" in capsys.readouterr().out


def test_align_command_on_a_relabelled_copy_builds_no_cost_matrix(
        capsys, tmp_path, monkeypatch, lifted_torus):
    import riccialign.alignment as alignment

    def unexpected(*args):
        raise AssertionError("equal row multisets need no cost matrix or solver")

    monkeypatch.setattr(alignment, "cost_matrix", unexpected)
    monkeypatch.setattr(alignment, "hungarian", unexpected)
    perm = np.random.default_rng(5).permutation(lifted_torus.num_nodes).tolist()
    copy = Graph(lifted_torus.num_nodes, [(perm[u], perm[v]) for u, v in lifted_torus.edges])
    paths = tmp_path / "g1.edges", tmp_path / "g2.edges"
    write_edge_list(lifted_torus, paths[0])
    write_edge_list(copy, paths[1])
    out = tmp_path / "assignment.csv"
    for mode in MODES:
        assert main(["align", "--mode", mode, "--g1", str(paths[0]),
                     "--g2", str(paths[1]), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == lifted_torus.num_nodes
        assert all(cost == "0.0" for *_, cost in rows)
        assert "total cost 0\n" in capsys.readouterr().out


def test_align_command_rejects_size_mismatch(tmp_path, capsys):
    # the same GraphError as any other bad input: a message and exit code 2
    g1 = tmp_path / "g1.edges"
    g2 = tmp_path / "g2.edges"
    write_edge_list(from_edge_list([(0, 1)]), g1)
    write_edge_list(from_edge_list([(0, 1), (1, 2)]), g2)
    out = tmp_path / "x.csv"
    assert main(["align", "--mode", "dmc", "--g1", str(g1), "--g2", str(g2),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: graphs must have equal node counts, got 2 and 3\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_graphml(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.graphml"
    write_graphml(preferential_attachment_graph(300, seed=8), path)
    return path


def test_ppi_command_with_flags(capsys, tmp_path, tiny_graphml):
    out = tmp_path / "report.json"
    assert main(["ppi", "--input", str(tiny_graphml), "--rounds", "2",
                 "--p", "0.01", "--size", "50", "--intermediate", "100",
                 "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 3
    assert len(payload["rounds"]) == 2
    assert "mean percentage" in capsys.readouterr().out


def test_ppi_command_config_file_with_flag_override(capsys, tmp_path, tiny_graphml):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"# experiment settings\ninput={tiny_graphml}\nrounds=5\n"
        "size=50\nintermediate=100\nseed=3\np=0.0\nmode=rmc\n")
    out = tmp_path / "report.csv"
    assert main(["ppi", "--config", str(cfg), "--rounds", "2",
                 "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,correct,percentage"
    assert len(lines) == 3  # flags override the config file's 5 rounds


def test_ppi_help_names_config_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a help string
    with pytest.raises(SystemExit):
        main(["ppi", "--help"])
    out = capsys.readouterr().out
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    flags = {"--rounds": "rounds", "--p": "deletion_probability",
             "--size": "subgraph_size", "--intermediate": "intermediate_sample_size",
             "--seed": "seed", "--mode": "mode"}
    for flag, field in flags.items():
        entry = out.split(f"\n  {flag} ", 1)[1].split("\n  --", 1)[0]
        assert f"(default {defaults[field]})" in entry


def test_ppi_command_requires_input():
    with pytest.raises(SystemExit):
        main(["ppi", "--rounds", "1"])


def test_read_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rounds\n")
    with pytest.raises(ValueError):
        read_config_file(bad)


def test_ppi_command_rejects_unknown_config_key(tmp_path, tiny_graphml):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input={tiny_graphml}\nbogus=1\n")
    with pytest.raises(SystemExit):
        main(["ppi", "--config", str(cfg)])


def test_domain_errors_exit_cleanly(capsys, tmp_path, tiny_graphml):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input={tiny_graphml}\nrounds=0\n")
    assert main(["ppi", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["align", "--mode", "dmc", "--g1", "missing.edges",
                 "--g2", "missing.edges", "--out", str(tmp_path / "x.csv")]) == 2


def test_align_command_reports_a_directory_input(capsys, tmp_path):
    g = tmp_path / "g.edges"
    write_edge_list(from_edge_list([(0, 1)]), g)
    out = tmp_path / "x.csv"
    assert main(["align", "--mode", "dmc", "--g1", str(tmp_path), "--g2", str(g),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_torus_command_reports_a_directory_output(capsys, tmp_path):
    assert main(["torus", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_ppi_command_checks_the_config_format_before_any_round(capsys, tmp_path, tiny_graphml):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input={tiny_graphml}\nrounds=2\nsize=50\nintermediate=100\n"
                   f"out={tmp_path / 'report.xml'}\nformat=xml\n")
    assert main(["ppi", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "round" not in captured.out
    assert captured.err == "error: unknown report format 'xml'\n"
    assert not (tmp_path / "report.xml").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rmc" in capsys.readouterr().out
