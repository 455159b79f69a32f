"""Record alternating benchmark runs of this tree and another tree in BENCH_<label>.json.

    python3 tools/record_bench.py --against ../parent --workload identity-2000 \\
        --seed 0 --seconds 40 --pairs 10 --label identity-2000-seed0

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in this tree and once in the --against tree, one after the other; the
tree that goes first alternates from pair to pair, so that a slow stretch of
the host falls on both sides alike. The file, written at this tree's root,
keeps every run's ``meta`` line and result line and, for each end-to-end
metric of this tree's BENCHMARK.json, each side's median and quartiles
(inclusive method) and how many pairs this tree won (strictly better) or
tied. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("this", "against")


def run_once(tree: Path, args) -> dict:
    """One untraced benchmark run in `tree`: its exit code, meta line and result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    meta = [json.loads(line[5:]) for line in lines if line.startswith("meta ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result line from {tree} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return {"returncode": proc.returncode, "meta": meta[0] if meta else None, "result": result}


def spread(values: list) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric: each side's spread and this tree's wins and ties by pair."""
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["result"]["metrics"][name]["value"]
                         for run in runs if run["side"] == side] for side in SIDES}
        pairs = list(zip(values["this"], values["against"]))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: spread(values[side]) for side in SIDES},
            "wins": sum(a < b if lower else a > b for a, b in pairs),
            "ties": sum(a == b for a, b in pairs),
            "pairs": len(pairs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the other tree, with its own perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"this": ROOT, "against": args.against.resolve()}
    runs = []
    for pair in range(args.pairs):
        for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
            runs.append({"side": side, "pair": pair, "order": order,
                         **run_once(trees[side], args)})
            print(f"pair {pair} {side}: exit {runs[-1]['returncode']}", file=sys.stderr)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {"label": args.label, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs,
              "metrics": summarize(runs, end_to_end), "runs": runs}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if any(run["returncode"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
