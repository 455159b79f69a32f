import importlib.util
import json
import shutil
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
END_TO_END = [{"name": "round_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "accuracy_pct", "unit": "%", "better": "higher", "bound": 0.05}]


def stub_tree(root: Path, round_s: float) -> Path:
    """A tree whose perfbench/run.py prints a fixed meta line and result line."""
    (root / "perfbench").mkdir(parents=True)
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"round_p50_s": {"value": round_s, "unit": "s"},
                          "accuracy_pct": {"value": 95.0, "unit": "%"}}}
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        import json, sys
        print("meta " + json.dumps({{"code_hash": {root.name!r}, "argv": sys.argv[1:]}}))
        print("workload report lines")
        print({json.dumps(result)!r})
        """))
    return root


@pytest.fixture
def recorder(tmp_path):
    """The tool, copied into a stub tree, so that the stub is "this tree"."""
    this = stub_tree(tmp_path / "this", 0.008)
    (this / "tools").mkdir()
    shutil.copy(TOOL, this / "tools")
    (this / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    spec = importlib.util.spec_from_file_location("record_bench", this / "tools" / TOOL.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, this


def test_record_bench_writes_runs_and_per_metric_spreads(recorder, tmp_path):
    tool, this = recorder
    against = stub_tree(tmp_path / "against", 0.009)
    # two pairs: four stub processes
    assert tool.main(["--against", str(against), "--workload", "identity-2000", "--seed", "7",
                      "--seconds", "1", "--pairs", "2", "--label", "stub"]) == 0
    record = json.loads((this / "BENCH_stub.json").read_text())
    assert (record["workload"], record["seed"], record["pairs"]) == ("identity-2000", 7, 2)
    runs = record["runs"]
    # the side that goes first alternates from pair to pair
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "this"), (0, "against"), (1, "against"), (1, "this")]
    assert [r["meta"]["code_hash"] for r in runs] == ["this", "against", "against", "this"]
    assert all(r["returncode"] == 0 and r["result"]["correct"] for r in runs)
    assert runs[0]["meta"]["argv"] == ["--workload", "identity-2000", "--seed", "7",
                                       "--seconds", "1.0", "--trace", "0"]
    p50 = record["metrics"]["round_p50_s"]
    assert p50["this"] == {"median": 0.008, "q1": 0.008, "q3": 0.008}
    assert p50["against"]["median"] == 0.009
    assert (p50["wins"], p50["ties"], p50["pairs"]) == (2, 0, 2)
    accuracy = record["metrics"]["accuracy_pct"]
    assert (accuracy["better"], accuracy["wins"], accuracy["ties"]) == ("higher", 0, 2)


def test_record_bench_quartiles_of_several_runs():
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
