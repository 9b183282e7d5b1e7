"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench -q

Each workload runs once untraced and twice traced on one seed.  Every
metric listed in BENCHMARK.json must come out with its unit, the outputs
must pass their checks, and the traced re-run must repeat every count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=11):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    notes = json.loads(lines[-2])["notes"]
    return json.loads(lines[-1]), notes


def assert_listed_metrics(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_counts_repeat(workload):
    untraced, notes = bench(workload, 0)
    assert_listed_metrics(untraced, SPEC["end_to_end"])
    assert notes["seed"] == 11 and notes["machine"]["blas_threads"] >= 1
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first, _ = bench(workload, 1)
    again, _ = bench(workload, 1)
    assert_listed_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for name in counts:
        value = first["metrics"][name]["value"]
        assert isinstance(value, int)
        assert value == again["metrics"][name]["value"], name


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
