import dataclasses
import json
import re

import numpy as np
import pytest

from riccialign import Graph, align, common_max_degree, cost_matrix, degree_matrix, \
    from_edge_list, hungarian, ricci_matrix
from riccialign import TorusReport, __version__, cli, lift_to_3d, triangular_ring_2d
from riccialign.alignment import MODES
from riccialign.cli import main
from riccialign.experiments import ExperimentConfig

from conftest import write_edge_list


def test_torus_command(capsys, tmp_path):
    out, hist = tmp_path / "torus.json", tmp_path / "hist.csv"
    assert main(["torus", "--out", str(out), "--histogram", str(hist)]) == 0
    text = capsys.readouterr().out
    assert "class A: curvature -56, 12 nodes" in text
    assert "100%" in text
    payload = json.loads(out.read_text())
    assert payload["class_sizes"] == [12, 12, 12]
    assert hist.read_text().splitlines()[1:] == ["-56,12", "-40,12", "-28,12"]



def test_torus_command_writes_the_histogram_csv(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    assert main(["torus", "--histogram", str(hist)]) == 0
    assert hist.read_text() == "value,count\n-56,12\n-40,12\n-28,12\n"
    assert f"histogram written to {hist}\n" in capsys.readouterr().out


def test_torus_json_is_the_report_as_a_dict(capsys, tmp_path):
    out = tmp_path / "torus.json"
    assert main(["torus", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == [f.name for f in dataclasses.fields(TorusReport)]
    assert payload["class_sizes"] == [12, 12, 12]
    assert payload["row_forms"]["A"] == [-56, -56, -56, -40, -40, -28]
    assert payload["distribution"] == [[-56, 12], [-40, 12], [-28, 12]]

TORUS_JSON = """\
{
  "class_curvatures": [
    -56,
    -40,
    -28
  ],
  "class_sizes": [
    12,
    12,
    12
  ],
  "row_forms": {
    "A": [
      -56,
      -56,
      -56,
      -40,
      -40,
      -28
    ],
    "B": [
      -56,
      -56,
      -40,
      -28,
      -28,
      0
    ],
    "C": [
      -56,
      -40,
      -40,
      -28,
      0,
      0
    ]
  },
  "distribution": [
    [
      -56,
      12
    ],
    [
      -40,
      12
    ],
    [
      -28,
      12
    ]
  ],
  "hole_alignment_rate": 100.0,
  "total_cost": 0.0
}
"""

PPI_JSON = """\
{
  "config": {
    "input_path": "torus.edges",
    "intermediate_sample_size": 36,
    "subgraph_size": 20,
    "deletion_probability": 0.05,
    "rounds": 3,
    "seed": 0,
    "mode": "rmc"
  },
  "version": "%s",
  "rounds": [
    {
      "round": 1,
      "correct": 15,
      "percentage": 75.0,
      "seconds": 0.0
    },
    {
      "round": 2,
      "correct": 18,
      "percentage": 90.0,
      "seconds": 0.0
    },
    {
      "round": 3,
      "correct": 11,
      "percentage": 55.0,
      "seconds": 0.0
    }
  ],
  "mean_percentage": 73.33333333333333
}
""" % __version__

PPI_CSV = "round,correct,percentage\n1,15,75\n2,18,90\n3,11,55\n"

PPI_MD = """\
| Round | Absolute Node Count | Percentage |
| --- | --- | --- |
| 1 | 15 | 75% |
| 2 | 18 | 90% |
| 3 | 11 | 55% |

Mean percentage: 73.3333%
"""


def test_output_files_keep_their_bytes(capsys, tmp_path, monkeypatch):
    # every file the CLI writes, byte for byte; a round's seconds are zeroed
    monkeypatch.chdir(tmp_path)
    write_edge_list(lift_to_3d(triangular_ring_2d()), "torus.edges")
    assert main(["torus", "--out", "x.json", "--histogram", "h.csv"]) == 0
    assert (tmp_path / "x.json").read_text() == TORUS_JSON
    assert (tmp_path / "h.csv").read_text() == "value,count\n-56,12\n-40,12\n-28,12\n"

    ppi = ["ppi", "--input", "torus.edges", "--intermediate", "36", "--size", "20",
           "--rounds", "3", "--p", "0.05", "--out"]
    for name, expected in [("r.json", PPI_JSON), ("r.csv", PPI_CSV), ("r.md", PPI_MD)]:
        assert main([*ppi, name]) == 0
        text = (tmp_path / name).read_text()
        assert re.sub(r'"seconds": [-+.e0-9]+', '"seconds": 0.0', text) == expected

    assert main(["align", "--mode", "rmc", "--g1", "torus.edges", "--g2", "torus.edges",
                 "--out", "a.csv"]) == 0
    assert (tmp_path / "a.csv").read_text() == \
        "g1_node,g2_node,row_cost\n" + "".join(f"{v},{v},0.0\n" for v in range(36))


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
    assert ("G1 nodes mapped to the same id in G2: 4 (100%), meaningful only when "
            "the two files share node ids") in capsys.readouterr().out


def test_align_command_writes_one_line_per_g1_node(capsys, tmp_path):
    # line v: node v of G1, its partner in G2 and the cost of that pair
    g1 = from_edge_list([(0, 1), (1, 2), (2, 3)])
    g2 = from_edge_list([(0, 1), (0, 2), (0, 3)])
    paths = tmp_path / "g1.edges", tmp_path / "g2.edges"
    write_edge_list(g1, paths[0])
    write_edge_list(g2, paths[1])
    out = tmp_path / "assignment.csv"
    assert main(["align", "--mode", "dmc", "--g1", str(paths[0]), "--g2", str(paths[1]),
                 "--out", str(out)]) == 0
    a = align(g1, g2, "degree")
    assert len(set(a.row_costs)) > 1
    assert out.read_text() == "g1_node,g2_node,row_cost\n" + "".join(
        f"{v},{a.mapping[v]},{a.row_costs[v]}\n" for v in range(4))


@pytest.mark.parametrize("mode", ["rmc", "dmc"])
def test_align_command_matches_library(capsys, tmp_path, lifted_torus, mode):
    g1 = lifted_torus
    g2 = Graph(g1.num_nodes, g1.edge_array[1:])  # one edge removed
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
    monkeypatch.setattr(alignment, "_solve", unexpected)
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


def test_ppi_command_with_flags(capsys, tmp_path, small_network):
    out = tmp_path / "report.json"
    assert main(["ppi", "--input", str(small_network), "--rounds", "2",
                 "--p", "0.01", "--size", "50", "--intermediate", "100",
                 "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 3
    assert len(payload["rounds"]) == 2
    assert "mean percentage" in capsys.readouterr().out


@pytest.fixture
def torus_edges(tmp_path, lifted_torus):
    path = tmp_path / "torus.edges"
    write_edge_list(lifted_torus, path)
    return path


def test_ppi_command_report_formats(capsys, tmp_path, torus_edges):
    # the .json, .csv and .md reports list the rounds that the run prints
    run = ["ppi", "--input", str(torus_edges), "--intermediate", "36", "--size", "20",
           "--rounds", "2", "--p", "0.05", "--seed", "11", "--out"]
    assert main([*run, str(tmp_path / "r.json")]) == 0
    printed = capsys.readouterr().out.splitlines()
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["config"]["seed"] == 11
    assert payload["version"] == __version__
    rounds = [(r["round"], r["correct"], r["percentage"]) for r in payload["rounds"]]
    assert [line.split(" in ")[0] for line in printed[:2]] == \
        [f"round {i}: {c} correct ({p:g}%)" for i, c, p in rounds]
    assert printed[2] == f"mean percentage: {payload['mean_percentage']:g}%"

    assert main([*run, str(tmp_path / "r.csv")]) == 0
    assert (tmp_path / "r.csv").read_text().splitlines() == \
        ["round,correct,percentage", *(f"{i},{c},{p:g}" for i, c, p in rounds)]

    assert main([*run, str(tmp_path / "r.md")]) == 0
    lines = (tmp_path / "r.md").read_text().splitlines()
    assert lines[:2] == ["| Round | Absolute Node Count | Percentage |", "| --- | --- | --- |"]
    assert lines[2:] == [*(f"| {i} | {c} | {p:g}% |" for i, c, p in rounds), "",
                         f"Mean percentage: {payload['mean_percentage']:g}%"]

    for bad in ("r.xml", "r.markdown", "r"):
        assert main([*run, str(tmp_path / bad)]) == 2
        assert capsys.readouterr().err.startswith("error: --out: unknown suffix ")
        assert not (tmp_path / bad).exists()


def test_ppi_json_report_echoes_the_whole_config(capsys, tmp_path, torus_edges):
    out = tmp_path / "r.json"
    assert main(["ppi", "--input", str(torus_edges), "--intermediate", "36", "--size", "18",
                 "--p", "0.02", "--rounds", "2", "--seed", "9", "--mode", "dmc",
                 "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())["config"].items()) == [
        ("input_path", str(torus_edges)),
        ("intermediate_sample_size", 36),
        ("subgraph_size", 18),
        ("deletion_probability", 0.02),
        ("rounds", 2),
        ("seed", 9),
        ("mode", "dmc"),
    ]


def test_ppi_command_config_file_with_flag_override(capsys, tmp_path, small_network):
    args = tmp_path / "run.args"
    args.write_text(
        f"--input={small_network}\n--rounds=5\n--size=50\n--intermediate=100\n"
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


def test_ppi_command_config_file_skips_blank_lines(capsys, tmp_path, small_network):
    args = tmp_path / "run.args"
    args.write_text(f"--input={small_network}\n--size=50\n\n  \n--intermediate=100\n\n")
    out = tmp_path / "report.csv"
    assert main(["ppi", f"@{args}", "--rounds", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "round,correct,percentage"


def test_ppi_command_rejects_unknown_config_key(capsys, tmp_path, small_network):
    args = tmp_path / "run.args"
    args.write_text(f"--input={small_network}\n--bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["ppi", f"@{args}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ppi_command_reports_a_missing_args_file(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["ppi", f"@{tmp_path / 'missing.args'}"])
    assert exc.value.code == 2
    assert "missing.args" in capsys.readouterr().err


def test_domain_errors_exit_cleanly(capsys, tmp_path, small_network):
    assert main(["ppi", "--input", str(small_network), "--rounds", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["align", "--mode", "dmc", "--g1", "missing.edges",
                 "--g2", "missing.edges", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    # an edge list naming node 2**50: a node count with no int64 edge keys
    sparse = tmp_path / "sparse.edges"
    sparse.write_text(f"0 1\n{2**50} 2\n")
    assert main(["align", "--mode", "rmc", "--g1", str(sparse), "--g2", str(sparse),
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: node count {2**50 + 1} ")


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
    assert captured.err.startswith("error: --out: unknown suffix ")
    assert "class A" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["h.json", "h"], ids=["json", "no-suffix"])
def test_torus_command_rejects_a_non_csv_histogram_before_the_run(capsys, tmp_path, name):
    assert main(["torus", "--histogram", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --histogram: unknown suffix {name[1:]!r} (use .csv)\n"
    assert "class A" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["a.json", "a"], ids=["json", "no-suffix"])
def test_align_command_rejects_a_non_csv_out_before_aligning(capsys, tmp_path, monkeypatch,
                                                             name):
    def unexpected(*args, **kwargs):
        raise AssertionError("a non-.csv --out must fail before the alignment")

    monkeypatch.setattr(cli, "align", unexpected)
    g = tmp_path / "g.edges"
    write_edge_list(from_edge_list([(0, 1)]), g)
    assert main(["align", "--mode", "rmc", "--g1", str(g), "--g2", str(g),
                 "--out", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out: unknown suffix {name[1:]!r} (use .csv)\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [g]


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


@pytest.mark.parametrize("seed", [str(2**63 - 1), str(2**64)])
def test_ppi_command_runs_seeds_beyond_int64(capsys, tmp_path, small_network, seed):
    out = tmp_path / "report.csv"
    assert main(["ppi", "--input", str(small_network), "--rounds", "2", "--size", "50",
                 "--intermediate", "100", "--seed", seed, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_ppi_command_checks_the_config_format_before_any_round(capsys, tmp_path, small_network):
    out = tmp_path / "report.xml"
    assert main(["ppi", "--input", str(small_network), "--rounds", "2", "--size", "50",
                 "--intermediate", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "round" not in captured.out
    assert captured.err == "error: --out: unknown suffix '.xml' (use .json, .csv or .md)\n"
    assert not out.exists()


def test_ppi_command_checks_the_report_suffix_before_loading(capsys, tmp_path):
    assert main(["ppi", "--input", str(tmp_path / "missing.graphml"),
                 "--out", str(tmp_path / "report.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: --out: unknown suffix '.txt'")


@pytest.mark.parametrize("out", ["{tmp}", "{tmp}/missing/report.json", ""],
                         ids=["directory", "no-parent", "empty"])
def test_ppi_command_checks_the_output_path_before_any_round(capsys, tmp_path, small_network, out):
    assert main(["ppi", "--input", str(small_network), "--rounds", "2", "--size", "50",
                 "--intermediate", "100", "--out", out.format(tmp=tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "round" not in captured.out
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["torus", "--out", ""],
    ["torus", "--histogram", ""],
    ["align", "--mode", "rmc", "--g1", "missing.edges", "--g2", "missing.edges", "--out", ""],
], ids=["torus-out", "torus-histogram", "align-out"])
def test_an_empty_output_path_fails_before_any_work(capsys, argv):
    # a missing input would fail with another message if it were read first
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: an output path must not be empty\n"
    assert captured.out == ""


def test_ppi_command_output_check_keeps_an_existing_file(capsys, tmp_path, small_network):
    out = tmp_path / "report.csv"
    out.write_text("old\n")
    # the experiment fails after the check: the file is left as it was
    assert main(["ppi", "--input", str(small_network), "--size", "50",
                 "--intermediate", "1000", "--out", str(out)]) == 2
    assert out.read_text() == "old\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rmc" in capsys.readouterr().out
