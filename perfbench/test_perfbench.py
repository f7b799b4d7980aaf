"""Smoke tests of the benchmark itself, at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = workloads.SIZES["tiny"]


def _tiny_expected():
    return oracle.expected_values(TINY["census"], TINY["sweep"], TINY["count_order"])


def test_every_workload_emits_every_named_metric():
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            if trace:
                result = run.run_traced(workloads, name, 3, 0, tiny=True)
            else:
                result = run.run_untraced(workloads, name, 3, 0, tiny=True, setup_reps=1)
            line = run.report(name, result, bool(trace))
            assert line["correct"], result["errors"]
            assert {k: v["unit"] for k, v in line["metrics"].items()} == {
                m["name"]: m["unit"] for m in BENCH[section]}
            json.dumps(line, allow_nan=False)


def test_failed_share_is_zero_except_for_the_mixed_radicand_defect():
    for name in workloads.WORKLOADS:
        result = run.run_untraced(workloads, name, 5, 0, tiny=True, setup_reps=1)
        assert all("s13" in label for label in result["errors"]), result["errors"]
        assert bool(result["errors"]) == (name == "cylinders")


def test_corrupted_expected_value_is_caught_as_a_failed_operation():
    exp = _tiny_expected()
    exp["census"]["9/5"]["count_full"] += 1
    result = run.run_untraced(workloads, "census", 0, 0, tiny=True, expected=exp, setup_reps=1)
    line = run.report("census", result, False)
    assert not line["correct"]
    assert line["failed"] == 1 and result["tally"].mismatched == 1
    assert list(result["errors"]) == [f"full_census({TINY['census']['9/5']}, 9/5)"]


def test_failing_operation_is_charged_its_limit():
    w = workloads.build("cylinders", 0, tiny=True)
    limits = dict.fromkeys(workloads.LIMIT_S, 100.0)
    tally, errors = run.Tally(), {}
    total = sum(run.charged(w.ops, run.run_pass(w.ops, tally, errors), limits))
    assert tally.failed == 1 + TINY["intervals"]  # the sweep and every find_full of s13
    assert 100.0 * tally.failed <= total < 100.0 * tally.failed + 10


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
