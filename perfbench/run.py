"""Benchmark of the sampled line-graph aligner (RMC on a seeded PPI surrogate).

One workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload paper-500 --seed 0 --seconds 40 --trace 0

Every workload, untraced then traced, with a summary table:

    python3 perfbench/run.py [--seed 0] [--seconds 40]

The input network is the test suite's seeded surrogate, written as GraphML
(untimed); --seed is the pipeline's master seed and picks the relabelling.
Set-up (load + intermediate walk + line graph) is warmed up once, then
repeated at even steps through the run and its median reported. Rounds run back to back in one
process for --seconds, and at least long enough for the accuracy rounds.
A fixed reference kernel runs between any two timed set-ups or rounds, and
the end-to-end times are scaled by its speed around each of them to seconds
at a reference speed, so that most of the host's drift cancels
(reference.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each round
untraced and then traced, and prints per-layer self times, counts and the
tracing overhead. Every round is checked; the exit code is 1 when any check
failed and 2 when the package sources are missing. See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
from surrogate import preferential_attachment_graph, write_graphml

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SURROGATE_NODES = 3800
SURROGATE_SEED = 10     # the network of the ROADMAP baseline
SETUP_REPEATS = 9
# Accuracy is a mean over a fixed number of rounds, so that it depends on the
# seed only; 40 rounds keep its spread over seeds near 1% on paper-500.
ACCURACY_ROUNDS = 40
TAIL_BEYOND = 10
END_TO_END_UNITS = {"setup_s": "s", "round_p50_s": "s", "round_tail_s": "s",
                    "nodes_per_s": "1/s", "peak_rss_mb": "MB", "accuracy_pct": "%"}
# Printed in the report but kept out of the result line: the first two can
# read 0 or less; the others show the unscaled times and the host's speed.
PRINTED_ONLY = ("sampling.deleted_edges", "trace.overhead_pct",
                "wall.setup_s", "wall.round_p50_s", "host.kernel_s")


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, int]:
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile). With `beyond` or fewer samples there is no
    such percentile, and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100
    return ordered[n - beyond - 1], (100 * (n - beyond)) // n


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def code_hash() -> str:
    """Digest of the package's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "riccialign").glob("*.py"),
                        *Path(__file__).resolve().parent.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_sha": git_sha(), "code_hash": code_hash(), "seed": seed}


def check_repeat(path: Path, fingerprints: dict) -> list[tuple[int, str]]:
    """Compare per-round fingerprints with earlier runs stored at `path`,
    then store the union. The path names the workload, the seed and the
    code hash, so only runs of the same code are compared."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    problems = [(int(r), f"fingerprint {fp} differs from an earlier run's {stored[r]}")
                for r, fp in fingerprints.items() if r in stored and stored[r] != fp]
    if not problems:
        stored.update(fingerprints)
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(stored, sort_keys=True))
        os.replace(scratch, path)
    return problems


@dataclass
class Rounds:
    """What `run_rounds` ran. A time scale turns a measured time into seconds
    at the reference speed (see reference.py)."""
    universe: object               # the last universe built
    warm: object                   # the warm-up round's result, None if it raised
    results: list                  # untraced rounds
    traced: list                   # traced twins (traced runs only)
    failed: list                   # [(round id, error)]
    setup_s: list                  # timed set-ups, in order
    kernel_s: list                 # reference kernel times, in run order
    setup_scales: list             # per timed set-up, in order
    round_scales: dict             # round id -> scale


def run_rounds(pipeline, set_up, wl, seed, seconds, min_rounds, tracer=None):
    """A warm-up set-up and round (untimed), then timed set-ups and rounds
    1, 2, ... back to back until `seconds` have passed and at least
    `min_rounds` ran. With a tracer each round runs untraced, then traced.

    `set_up()` builds a universe and returns it with its time. The timed
    set-ups, SETUP_REPEATS of them, are spread evenly over the `seconds`: on a
    shared 2-core VM the speed was seen to change over 5-15 s, and set-ups
    bunched at the start all landed in one such stretch. Each set-up replaces
    the universe the rounds use. The reference kernel runs between any two
    timed items (set-up or round, round pair when traced), so that each item
    has a kernel run just before and just after it.

    A round that raises counts as failed.
    """
    results, traced, failed, setup_s = [], [], [], []
    kernel = reference.Reference()
    kernel_s, owners = [], []

    universe, _ = set_up()
    try:  # timed round 1 repeats the warm-up round
        warm = pipeline.run_round(universe, wl, seed, 1)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        warm = None
    gc.collect()
    start = time.perf_counter()
    due = [start + seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    rid = 0
    while due or rid < min_rounds or time.perf_counter() < start + seconds:
        kernel_s.append(kernel())
        if due and time.perf_counter() >= due[0]:
            del due[0]
            owners.append("setup")
            universe = None  # one universe alive at a time, for peak_rss_mb
            universe, seconds_taken = set_up()
            setup_s.append(seconds_taken)
            continue
        rid += 1
        owners.append(rid)
        try:
            result = pipeline.run_round(universe, wl, seed, rid)
            twin = None if tracer is None else pipeline.run_round(universe, wl, seed, rid, tracer)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            failed.append((rid, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(result)
        if twin is not None:
            traced.append(twin)
    kernel_s.append(kernel())
    scales = reference.scales(kernel_s)
    return Rounds(universe, warm, results, traced, failed, setup_s, kernel_s,
                  setup_scales=[k for o, k in zip(owners, scales) if o == "setup"],
                  round_scales={o: k for o, k in zip(owners, scales) if o != "setup"})


def measure(pipeline, wl, seed: int, seconds: float, trace: bool) -> tuple[dict, int, list]:
    """Run one workload; returns (metrics, attempted rounds, problems).

    A problem is (round id, message), with round id None for the set-up.
    """
    tracer = pipeline.Tracer() if trace else None
    problems: list[tuple[int | None, str]] = []

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = Path(tmp) / "surrogate.graphml"
        edges = preferential_attachment_graph(SURROGATE_NODES, SURROGATE_SEED)
        write_graphml(SURROGATE_NODES, edges, path)
        shapes = set()

        def set_up():
            gc.collect()
            start = time.perf_counter()
            universe = pipeline.build_universe(path, seed, tracer)
            seconds_taken = time.perf_counter() - start
            shapes.add((universe.num_nodes, universe.num_edges))
            return universe, seconds_taken

        min_rounds = 3 if trace else max(ACCURACY_ROUNDS, TAIL_BEYOND + 1)
        run = run_rounds(pipeline, set_up, wl, seed, seconds, min_rounds, tracer)
    universe, results, traced, failed = run.universe, run.results, run.traced, run.failed
    setup_times = run.setup_s
    if len(shapes) != 1:
        problems.append((None, f"set-ups built different universes: {sorted(shapes)}"))
    attempted = len(results) + len(failed)
    problems += [(r, f"raised {error}") for r, error in failed]

    if not results:
        return {}, attempted, problems
    fingerprints = {str(res.round_id): list(res.fingerprint) for res in results}
    if run.warm and results[0].round_id == 1 and results[0].fingerprint != run.warm.fingerprint:
        problems.append((1, "fingerprint differs from the warm-up round's"))
    for plain, twin in zip(results, traced):
        if twin.fingerprint != plain.fingerprint:
            problems.append((twin.round_id, f"traced fingerprint {twin.fingerprint} "
                                            f"differs from untraced {plain.fingerprint}"))
    OUT_DIR.mkdir(exist_ok=True)
    problems += check_repeat(
        OUT_DIR / f"fingerprints-{wl.name}-seed{seed}-{code_hash()}.json", fingerprints)

    n = wl.subgraph_size
    times = [res.seconds for res in results]
    kernel_note = f"median of {len(run.kernel_s)} reference kernel runs"
    if not trace:
        # End-to-end times are in seconds at the reference speed (reference.py).
        wall_setup, wall_p50 = statistics.median(setup_times), statistics.median(times)
        setup_times = [t * k for t, k in zip(setup_times, run.setup_scales)]
        times = [res.seconds * run.round_scales[res.round_id] for res in results]
        tail_value, tail_pct = tail(times)
        accuracy = [100.0 * res.correct / n for res in results[:ACCURACY_ROUNDS]]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "round_p50_s": statistics.median(times),
            "round_tail_s": tail_value,
            "nodes_per_s": n * len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy_pct": statistics.fmean(accuracy),
        }
        notes = {"setup_s": f"median of {len(setup_times)} set-ups",
                 "round_tail_s": f"p{tail_pct} of {len(times)} rounds",
                 "accuracy_pct": f"mean over rounds 1-{len(accuracy)}"}
        report = {k: (v, END_TO_END_UNITS[k], notes.get(k, "")) for k, v in metrics.items()}
        report["wall.setup_s"] = (wall_setup, "s", "setup_s unscaled")
        report["wall.round_p50_s"] = (wall_p50, "s", "round_p50_s unscaled")
        report["host.kernel_s"] = (statistics.median(run.kernel_s), "s", kernel_note)
    else:
        tracer.write_jsonl(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
        own = tracer.self_times()
        traced_p50 = statistics.median(res.seconds for res in traced)
        fps = [res.fingerprint for res in traced]
        report = {}
        for name in ("graph.load_graphml", "sampling.intermediate_walk",
                     "linegraph.line_graph"):
            report[name + "_s"] = (statistics.median(own[name]), "s",
                                   f"median of {len(own[name])} set-ups")
        report["linegraph.edges"] = (universe.num_edges, "count", "")
        report["linegraph.max_degree"] = (universe.max_degree(), "count", "")
        for name in ("sampling.walk", "sampling.delete", "alignment.signature",
                     "alignment.cost", "alignment.solve"):
            report[name + "_s"] = (statistics.median(own[name]), "s",
                                   f"median of {len(own[name])} rounds")
        per_round = f"mean of {len(fps)} rounds"
        report["sampling.g2_edges"] = (statistics.fmean(fp[2] for fp in fps), "count", per_round)
        report["sampling.deleted_edges"] = (statistics.fmean(e1 - e2 for _, e1, e2, _, _ in fps),
                                            "count", per_round)
        report["alignment.width_m"] = (statistics.fmean(fp[3] for fp in fps), "count", per_round)
        report["alignment.gram_madds"] = (statistics.fmean(n * n * fp[3] for fp in fps),
                                          "count", "n*n*m, computed")
        report["alignment.cost_bytes"] = (8 * n * n, "B", "n*n*8, computed")
        report["alignment.dup_rows"] = (statistics.fmean(res.dup_rows for res in traced),
                                        "count", per_round)
        report["trace.round_p50_s"] = (traced_p50, "s", f"median of {len(traced)} traced rounds")
        ratio = traced_p50 / statistics.median(times)
        report["trace.overhead_ratio"] = (ratio, "ratio",
                                          "traced / untraced round_p50_s, same rounds")
        report["trace.overhead_pct"] = (100.0 * (ratio - 1), "%", "the same, as a percentage")
        report["host.kernel_s"] = (statistics.median(run.kernel_s), "s", kernel_note)
    return report, attempted, problems


def run_one(pipeline, args) -> int:
    report, attempted, problems = measure(pipeline, pipeline.WORKLOADS[args.workload], args.seed,
                                          args.seconds, bool(args.trace))
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    # a set-up that failed a check taints every round
    bad = {r for r, _ in problems}
    failed = attempted if None in bad else len(bad)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"fail_ratio {failed / attempted:g} ({failed}/{attempted})")
    for r, message in problems:
        print(f"FAILED {'set-up' if r is None else f'round {r}'}: {message}")
    for name, (value, unit, note) in report.items():
        print(f"  {name:32s} {value:14.6g} {unit:5s} {note}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()
                          if k not in PRINTED_ONLY}}
    print(json.dumps(result))
    return 1 if problems else 0


def run_all(names, args) -> int:
    """Each workload in its own process, untraced then traced."""
    status, rows = 0, []
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if proc.returncode == 0 and not trace:
                rows.append((name, json.loads(proc.stdout.splitlines()[-1])["metrics"]))
    print(f"\n{'workload':14s}" + "".join(f"{k:>18s}" for k in END_TO_END_UNITS))
    for name, metrics in rows:
        print(f"{name:14s}" + "".join(f"{metrics[k]['value']:14.6g} {metrics[k]['unit']:3s}"
                                      for k in END_TO_END_UNITS))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the pipeline and the relabelling (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time spent in timed rounds (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riccialign" / "__init__.py").is_file():
        print(f"riccialign sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Thread counts are read when numpy is first imported, by the pipeline module.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    if args.workload is None:
        return run_all(list(pipeline.WORKLOADS), args)
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(pipeline.WORKLOADS)}")
    return run_one(pipeline, args)


if __name__ == "__main__":
    sys.exit(main())
