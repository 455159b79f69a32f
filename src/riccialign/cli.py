"""Command line entry points, `rmc torus | ppi | verify-cle | align`, and every
file they write."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ._version import __version__
from .alignment import MODES, align, score_alignment
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    load_graph,
    run_cle_verification,
    run_ppi_experiment,
    run_torus_experiment,
)


# `rmc ppi` flag -> (ExperimentConfig field, cast, help); the field is the
# flag's dest and its dataclass default the flag's default.
_PPI_FIELDS = {"rounds": ("rounds", int, "number of alignment rounds"),
               "p": ("deletion_probability", float, "edge deletion probability"),
               "size": ("subgraph_size", int, "per-round subgraph size"),
               "intermediate": ("intermediate_sample_size", int, "intermediate sample size"),
               "seed": ("seed", int, "master seed"), "mode": ("mode", str, "signature mode")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmc",
        description="Graph alignment with Ricci/degree signature matrices.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    torus = sub.add_parser("torus", help="torus hole-identification experiment")
    torus.add_argument("--out", help="write the report as JSON to this .json path")
    torus.add_argument("--histogram", help="write the curvature histogram to this .csv path")

    ppi = sub.add_parser("ppi", help="sampled line-graph alignment experiment",
                         fromfile_prefix_chars="@")
    ppi.convert_arg_line_to_args = lambda line: [line] if line.strip() else []
    ppi.add_argument("--input", dest="input_path", required=True,
                     help="input graph (.graphml or edge-list text)")
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key, (field, cast, text) in _PPI_FIELDS.items():
        ppi.add_argument(f"--{key}", dest=field, type=cast, default=defaults[field],
                         help=f"{text} (default %(default)s)",
                         choices=tuple(MODES) if key == "mode" else None)
    ppi.add_argument("--out", help="report path; its suffix (.json, .csv or .md) "
                                   "picks the format")

    cle = sub.add_parser("verify-cle", help="check the curvature-Laplacian identity")
    cle.add_argument("--random-graphs", type=int, default=100)
    cle.add_argument("--max-n", type=int, default=30)
    cle.add_argument("--seed", type=int, default=0)

    al = sub.add_parser("align", help="align two graph files")
    al.add_argument("--mode", choices=tuple(MODES), required=True)
    al.add_argument("--g1", required=True)
    al.add_argument("--g2", required=True)
    al.add_argument("--out", required=True, help="write the assignment to this .csv path")
    return parser


def _check_out(flag, path, suffixes) -> None:
    """Fail before any work, not after it, on the output path of option `flag`
    if it is empty, has a suffix outside `suffixes` or cannot be written."""
    if path is None:
        return
    if not path:
        raise ValueError("an output path must not be empty")
    suffix = Path(path).suffix
    if suffix not in suffixes:
        *rest, last = suffixes
        use = f"{', '.join(rest)} or {last}" if rest else last
        raise ValueError(f"{flag}: unknown suffix {suffix!r} (use {use})")
    existed = Path(path).exists()
    Path(path).open("a").close()
    if not existed:
        Path(path).unlink()


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _write_lines(path, header, lines) -> None:
    Path(path).write_text("\n".join([header, *lines]) + "\n")


def _cmd_torus(args) -> int:
    _check_out("--out", args.out, (".json",))
    _check_out("--histogram", args.histogram, (".csv",))
    report = run_torus_experiment()
    labels = ("A", "B", "C")
    print("lifted triangular torus: 36 nodes, 90 edges")
    for label, value, size in zip(labels, report.class_curvatures, report.class_sizes):
        print(f"  class {label}: curvature {value}, {size} nodes, "
              f"Ricci row {list(report.row_forms[label])}")
    print(f"  hole alignment (A nodes mapped to A nodes): {report.hole_alignment_rate:g}%")
    print(f"  total assignment cost: {report.total_cost:g}")
    if args.out is not None:
        _write_json(args.out, dataclasses.asdict(report))
        print(f"report written to {args.out}")
    if args.histogram is not None:
        _write_lines(args.histogram, "value,count",
                     (f"{value},{count}" for value, count in report.distribution))
        print(f"histogram written to {args.histogram}")
    return 0 if report.hole_alignment_rate == 100.0 else 1


def _cmd_ppi(args) -> int:
    cfg = ExperimentConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(ExperimentConfig)})
    _check_out("--out", args.out, (".json", ".csv", ".md"))
    report = run_ppi_experiment(cfg)
    for r in report.per_round:
        print(f"round {r.round}: {r.correct} correct "
              f"({r.percentage:g}%) in {r.seconds:.2f}s")
    print(f"mean percentage: {report.mean_percentage:g}%")
    if args.out is None:
        return 0
    # the suffix picks the format: .json echoes the config and the version,
    # .md is the paper's per-round table and the mean
    rounds, suffix = report.per_round, Path(args.out).suffix
    if suffix == ".json":
        _write_json(args.out, {"config": dataclasses.asdict(report.config),
                               "version": __version__,
                               "rounds": [dataclasses.asdict(r) for r in rounds],
                               "mean_percentage": report.mean_percentage})
    elif suffix == ".csv":
        _write_lines(args.out, "round,correct,percentage",
                     (f"{r.round},{r.correct},{r.percentage:g}" for r in rounds))
    else:
        _write_lines(args.out,
                     "| Round | Absolute Node Count | Percentage |\n| --- | --- | --- |",
                     [*(f"| {r.round} | {r.correct} | {r.percentage:g}% |" for r in rounds),
                      f"\nMean percentage: {report.mean_percentage:g}%"])
    print(f"report written to {args.out}")
    return 0


def _cmd_verify_cle(args) -> int:
    results = run_cle_verification(num_graphs=args.random_graphs,
                                   max_n=args.max_n, seed=args.seed)
    failures = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} graphs satisfy the identity")
    return 0 if failures == 0 else 1


def _cmd_align(args) -> int:
    _check_out("--out", args.out, (".csv",))
    g1, g2 = load_graph(args.g1), load_graph(args.g2)
    result = align(g1, g2, MODES[args.mode])
    _write_lines(args.out, "g1_node,g2_node,row_cost",
                 (f"{v},{result.mapping[v]},{c}" for v, c in enumerate(result.row_costs)))
    correct, pct = score_alignment(result)
    print(f"aligned {g1.num_nodes} nodes, total cost {result.total_cost:g}")
    print(f"G1 nodes mapped to the same id in G2: {correct} ({pct:g}%), "
          "meaningful only when the two files share node ids")
    print(f"assignment written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "torus": _cmd_torus,
        "ppi": _cmd_ppi,
        "verify-cle": _cmd_verify_cle,
        "align": _cmd_align,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
