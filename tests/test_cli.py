import dataclasses
import json

import numpy as np
import pytest

from riccialign import Graph, align, common_max_degree, cost_matrix, degree_matrix, \
    from_edge_list, hungarian, ricci_matrix
from riccialign import cli
from riccialign.alignment import MODES
from riccialign.cli import main
from riccialign.experiments import ExperimentConfig

from conftest import preferential_attachment_graph, write_edge_list, write_graphml


def test_torus_command(capsys, tmp_path):
    out, hist = tmp_path / "torus.json", tmp_path / "hist.csv"
    assert main(["torus", "--out", str(out), "--histogram", str(hist)]) == 0
    text = capsys.readouterr().out
    assert "class A: curvature -56, 12 nodes" in text
    assert "100%" in text
    payload = json.loads(out.read_text())
    assert payload["class_sizes"] == [12, 12, 12]
    assert hist.read_text().splitlines()[1:] == ["-56,12", "-40,12", "-28,12"]


def test_verify_cle_command(capsys):
    assert main(["verify-cle", "--random-graphs", "5", "--max-n", "12",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "8/8 graphs satisfy the identity" in out


@pytest.mark.parametrize("flags, name", [(["--max-n", "1"], "max_n"),
                                         (["--random-graphs", "-3"], "num_graphs"),
                                         (["--seed", "-1", "--random-graphs", "3"], "seed")],
                         ids=["max-n-1", "random-graphs-negative", "seed-negative"])
def test_verify_cle_command_rejects_bad_counts(capsys, flags, name):
    assert main(["verify-cle", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be")
    assert "PASS" not in captured.out


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
    args = tmp_path / "run.args"
    args.write_text(
        f"--input={tiny_graphml}\n--rounds=5\n--size=50\n--intermediate=100\n"
        "--seed\n3\n--p=0.0\n--mode=rmc\n")
    out = tmp_path / "report.csv"
    assert main(["ppi", f"@{args}", "--rounds", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,correct,percentage"
    assert len(lines) == 3  # the later flag overrides the file's 5 rounds


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


def test_ppi_command_config_file_skips_blank_lines(capsys, tmp_path, tiny_graphml):
    args = tmp_path / "run.args"
    args.write_text(f"--input={tiny_graphml}\n--size=50\n\n  \n--intermediate=100\n\n")
    out = tmp_path / "report.csv"
    assert main(["ppi", f"@{args}", "--rounds", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "round,correct,percentage"


def test_ppi_command_rejects_unknown_config_key(capsys, tmp_path, tiny_graphml):
    args = tmp_path / "run.args"
    args.write_text(f"--input={tiny_graphml}\n--bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["ppi", f"@{args}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ppi_command_reports_a_missing_args_file(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["ppi", f"@{tmp_path / 'missing.args'}"])
    assert exc.value.code == 2
    assert "missing.args" in capsys.readouterr().err


def test_domain_errors_exit_cleanly(capsys, tmp_path, tiny_graphml):
    assert main(["ppi", "--input", str(tiny_graphml), "--rounds", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["align", "--mode", "dmc", "--g1", "missing.edges",
                 "--g2", "missing.edges", "--out", str(tmp_path / "x.csv")]) == 2


def test_align_command_checks_the_output_path_before_aligning(capsys, tmp_path,
                                                              monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("an unwritable --out must fail before the alignment")

    monkeypatch.setattr(cli, "align", unexpected)
    g = tmp_path / "g.edges"
    write_edge_list(from_edge_list([(0, 1)]), g)
    assert main(["align", "--mode", "rmc", "--g1", str(g), "--g2", str(g),
                 "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_align_command_reports_a_directory_input(capsys, tmp_path):
    g = tmp_path / "g.edges"
    write_edge_list(from_edge_list([(0, 1)]), g)
    out = tmp_path / "x.csv"
    assert main(["align", "--mode", "dmc", "--g1", str(tmp_path), "--g2", str(g),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_torus_command_reports_a_directory_output(capsys, tmp_path):
    out = tmp_path / "torus.json"
    out.mkdir()
    assert main(["torus", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["torus.csv", "torus"], ids=["csv", "no-suffix"])
def test_torus_command_rejects_a_non_json_out_before_the_run(capsys, tmp_path, name):
    assert main(["torus", "--out", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown report suffix ")
    assert "class A" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_torus_command_checks_both_output_paths_before_the_run(capsys, tmp_path):
    out = tmp_path / "torus.json"
    assert main(["torus", "--out", str(out),
                 "--histogram", str(tmp_path / "missing" / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "class A" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_ppi_command_rejects_a_negative_seed_before_loading(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["ppi", "--input", str(tmp_path / "missing.graphml"), "--seed", "-1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert "round" not in captured.out
    assert not out.exists()


def test_ppi_command_checks_the_config_format_before_any_round(capsys, tmp_path, tiny_graphml):
    out = tmp_path / "report.xml"
    assert main(["ppi", "--input", str(tiny_graphml), "--rounds", "2", "--size", "50",
                 "--intermediate", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "round" not in captured.out
    assert captured.err == "error: unknown report suffix '.xml' (use .json, .csv or .md)\n"
    assert not out.exists()


def test_ppi_command_checks_the_report_suffix_before_loading(capsys, tmp_path):
    assert main(["ppi", "--input", str(tmp_path / "missing.graphml"),
                 "--out", str(tmp_path / "report.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown report suffix '.txt'")


@pytest.mark.parametrize("out", ["", "missing/report.json"], ids=["directory", "no-parent"])
def test_ppi_command_checks_the_output_path_before_any_round(capsys, tmp_path, tiny_graphml, out):
    assert main(["ppi", "--input", str(tiny_graphml), "--rounds", "2", "--size", "50",
                 "--intermediate", "100", "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert "round" not in captured.out
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_ppi_command_output_check_keeps_an_existing_file(capsys, tmp_path, tiny_graphml):
    out = tmp_path / "report.csv"
    out.write_text("old\n")
    # the experiment fails after the check: the file is left as it was
    assert main(["ppi", "--input", str(tiny_graphml), "--size", "50",
                 "--intermediate", "1000", "--out", str(out)]) == 2
    assert out.read_text() == "old\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rmc" in capsys.readouterr().out
