"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest rcecbench/test_smoke.py -q

Each workload runs once untraced and once traced; every metric that
BENCHMARK.json lists must be printed with its unit, a corrupted reference
digest must show up as failed operations, and a directory without the
program must be refused.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "rcecbench/run.py", "--tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    detail, result = parse(run("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] >= 3  # warm-up, at least one timed call, reference call
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])
    env = detail["environment"]
    assert env["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "RCEC_THREADS": "2"}
    assert {"python", "numpy", "blas", "nproc", "threadpoolctl", "blas_pin"} <= set(env)


def test_corrupted_reference_digest_raises_fail_rate(tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    digests = reference["tiny"]["estimate-p400"]
    digests["out/report.json"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    detail, result = parse(run("--workload", "estimate-p400", "--reference", str(corrupted)))
    assert result["failed"] > 0 and not result["correct"]
    assert detail["fail_rate"] > 0


def test_directory_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("--workload", WORKLOAD_NAMES[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
