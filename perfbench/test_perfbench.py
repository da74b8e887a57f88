"""Self-test of the benchmark: every workload at tiny scale emits every
metric named in BENCHMARK.json, the oracle gate fails a run whose result was
corrupted on purpose, and the benchmark refuses to run without the program.

Run from the repository root (a few minutes; one Spark session per run)::

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["slide-wcc-diff", "order-10c5", "perturb-pr-scratch"]


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p, lines


def _expect_metrics(summary: dict, spec: list[dict]) -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    assert summary["metrics"].keys() == {m["name"] for m in spec}
    for m in spec:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_benchmark_json_lists_the_workloads():
    names = [w["name"] for w in BENCH["workloads"]]
    assert set(names) <= set(WORKLOADS)
    assert {"setup_s"} <= {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    p, lines = _run(workload, 1)
    assert p.returncode == 0, p.stderr[-3000:]
    summary = json.loads(lines[-1])
    _expect_metrics(summary, BENCH["per_layer"])
    assert summary["correct"] and summary["failed"] == 0
    record = json.loads(lines[-2])
    assert record["metrics"]["wrong_frac"] == 0
    for key in ("git_sha", "nproc", "spark_master", "driver_memory",
                "shuffle_partitions", "seed", "params", "pyspark", "pandas"):
        assert key in record["provenance"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_catches_a_corrupted_view(workload):
    p, lines = _run(workload, 0, "--corrupt-view", "1")
    assert p.returncode == 0, p.stderr[-3000:]
    summary = json.loads(lines[-1])
    _expect_metrics(summary, BENCH["end_to_end"])
    assert not summary["correct"] and summary["failed"] > 0
    assert json.loads(lines[-2])["metrics"]["wrong_frac"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    p, lines = _run("slide-wcc-diff", 0, cwd=bare)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
