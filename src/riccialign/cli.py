"""Command line entry points: `rmc torus | ppi | verify-cle | align`."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ._version import __version__
from .alignment import MODES, align, score_alignment, write_assignment_csv
from .curvature import write_distribution_csv
from .experiments import (
    REPORT_FORMATS,
    ExperimentConfig,
    ExperimentError,
    emit_report,
    load_graph,
    run_cle_verification,
    run_ppi_experiment,
    run_torus_experiment,
)


def read_config_file(path) -> dict:
    """Parse a key=value config file; `#` starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


# `rmc ppi` setting -> (ExperimentConfig field, cast, help); a setting that no
# flag or config line gives is left to the dataclass default.
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
    torus.add_argument("--out", help="write the report as JSON to this path")
    torus.add_argument("--histogram", help="write the curvature histogram CSV here")

    ppi = sub.add_parser("ppi", help="sampled line-graph alignment experiment")
    ppi.add_argument("--config", help="key=value file; explicit flags override it")
    ppi.add_argument("--input", help="input graph (.graphml or edge-list text)")
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key, (field, cast, text) in _PPI_FIELDS.items():
        ppi.add_argument(f"--{key}", type=cast, help=f"{text} (default {defaults[field]})",
                         choices=tuple(MODES) if key == "mode" else None)
    ppi.add_argument("--out", help="report output path")
    ppi.add_argument("--format", choices=REPORT_FORMATS,
                     help="report format (default json)")

    cle = sub.add_parser("verify-cle", help="check the curvature-Laplacian identity")
    cle.add_argument("--random-graphs", type=int, default=100)
    cle.add_argument("--max-n", type=int, default=30)
    cle.add_argument("--seed", type=int, default=0)

    al = sub.add_parser("align", help="align two graph files")
    al.add_argument("--mode", choices=tuple(MODES), required=True)
    al.add_argument("--g1", required=True)
    al.add_argument("--g2", required=True)
    al.add_argument("--out", required=True, help="assignment CSV output path")
    return parser


def _cmd_torus(args) -> int:
    report = run_torus_experiment()
    labels = ("A", "B", "C")
    print("lifted triangular torus: 36 nodes, 90 edges")
    for label, value, size in zip(labels, report.class_curvatures, report.class_sizes):
        print(f"  class {label}: curvature {value}, {size} nodes, "
              f"Ricci row {list(report.row_forms[label])}")
    print(f"  hole alignment (A nodes mapped to A nodes): {report.hole_alignment_rate:g}%")
    print(f"  total assignment cost: {report.total_cost:g}")
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {args.out}")
    if args.histogram:
        write_distribution_csv(report.distribution, args.histogram)
        print(f"histogram written to {args.histogram}")
    return 0 if report.hole_alignment_rate == 100.0 else 1


def _cmd_ppi(args) -> int:
    keys = ("input", *_PPI_FIELDS, "out", "format")
    settings = read_config_file(args.config) if args.config else {}
    unknown = set(settings) - set(keys)
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    settings.update({key: getattr(args, key) for key in keys
                     if getattr(args, key) is not None})
    if not settings.get("input"):
        raise SystemExit("an input graph is required (--input or config input=)")
    fmt = settings.get("format", "json")
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")

    cfg = ExperimentConfig(
        input_path=str(settings["input"]),
        **{field: cast(settings[key]) for key, (field, cast, _) in _PPI_FIELDS.items()
           if key in settings})
    report = run_ppi_experiment(cfg)
    for r in report.per_round:
        print(f"round {r.round_index}: {r.correct} correct "
              f"({r.percentage:g}%) in {r.seconds:.2f}s")
    print(f"mean percentage: {report.mean_percentage:g}%")
    out = settings.get("out")
    if out:
        emit_report(report, out, fmt=fmt)
        print(f"report written to {out}")
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
    g1 = load_graph(args.g1)
    g2 = load_graph(args.g2)
    result = align(g1, g2, MODES[args.mode])
    write_assignment_csv(result, args.out)
    correct, pct = score_alignment(result)
    print(f"aligned {g1.num_nodes} nodes, total cost {result.total_cost:g}")
    print(f"fixed points: {correct} ({pct:g}%)")
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
