"""rcec benchmark: run one workload and print its metrics.

    python3 rcecbench/run.py --workload estimate-p400 --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each run starts fresh worker processes (worker.py) with
``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1`` and ``RCEC_THREADS=2`` in
their environment.  With ``--trace 0`` the measuring worker times
``rcec.cli.main`` for ``--seconds`` seconds and two more workers only set
up, so set-up time is a median of three.  With ``--trace 1`` one worker
alternates untraced calls with calls that have every layer wrapped in spans.

The last line of standard output is the result object; the line before it
holds the details (samples, fail rate, environment, problems).  Exit code 2
means the checkout cannot be benchmarked (no ``src/rcec``), 1 that a worker
died; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, THREAD_ENV, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0

CONTRACT = ROOT / "BENCHMARK.json"  # metric names, units and run_seconds


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)  # the worker imports rcec from this checkout only
    return env


def worker_options(workload: str, seed: int, seconds: int, trace: int,
                   reference: Path, tiny: bool) -> list:
    """Command-line options of worker.py, apart from ``--mode``."""
    return [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--reference", str(reference),
    ] + (["--tiny"] if tiny else [])


def run_worker(options: list, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode, *options]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the {RUN_BUDGET_S:g} s run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    contract = json.loads(CONTRACT.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"],
                        help="measuring window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="recorded output digests (default reference.json)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rcec" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/rcec to benchmark", file=sys.stderr)
        return 2

    options = worker_options(args.workload, args.seed, args.seconds, args.trace,
                             args.reference, args.tiny)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        extra = [] if args.trace else [
            run_worker(options, "setup", deadline) for _ in range(SETUP_REPEATS - 1)
        ]
        result = run_worker(options, "measure", deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in extra] + [result["setup_s"]]
    attempted = result["attempted"] + sum(r["attempted"] for r in extra)
    failed = result["failed"] + sum(r["failed"] for r in extra)

    walls = result["walls"]
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "wall_p50_s": statistics.median(walls),
            "items_per_s": result["items_per_call"] * len(walls) / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    listed = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(walls),
        "walls_s": walls,
        "setup_samples_s": setups,
        "fail_rate": failed / attempted,
        "problems": result["problems"] + [p for r in extra for p in r["problems"]],
        "environment": result["environment"],
        "split": result.get("split"),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
