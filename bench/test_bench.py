"""Self-test of the benchmark; run from the repository root with
``python3 -m pytest bench/test_bench.py``.

Smoke runs solve the first three pool instances of each workload once.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# The regular set of BENCHMARK.json plus toy-wa, which runs on demand.
WORKLOADS = ["toy-cwa", "toy-wa", "reductions-decomp"]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--seed", "1", "--seconds", "0", "--instances", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 3
    return out


def units(out):
    return {name: m["unit"] for name, m in out["metrics"].items()}


def test_benchmark_json_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--trace", "0"))
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] >= 0 for m in out["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    out = result(bench("--workload", "toy-wa", "--trace", "1"))
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out["metrics"]["propagators.Mcr.calls"]["value"] > 0
    assert os.path.exists(
        os.path.join(HERE, "out", "spans-toy-wa-seed1.csv.gz"))


@pytest.mark.parametrize("workload,family,name", [
    ("toy-wa", "toy", "toy002_s"),                     # caught by the answer
    ("reductions-decomp", "reductions", "000_3sat_5x21"),  # by brute force
])
def test_corrupted_expected_verdict_fails_the_run(tmp_path, workload, family,
                                                  name):
    with open(os.path.join(HERE, "expected.json")) as fh:
        table = json.load(fh)
    verdicts = table[family]["4242"]
    verdicts[name] = {"sat": "unsat", "unsat": "sat"}[verdicts[name]]
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))
    proc = bench("--workload", workload, "--trace", "0",
                 "--expected", str(corrupted))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "toy-wa", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
