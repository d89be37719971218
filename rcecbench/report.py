"""Run every workload untraced and traced; print every metric with its unit.

    python3 rcecbench/report.py [--seed S] [--out rcecbench/trajectory/BENCH_<n>.json]

Every run measures for ``run_seconds`` of BENCHMARK.json, the window the
benchmark contract fixes.

One line per metric: workload, metric name, value, unit.  Each workload
also gets a ``fail_rate`` line (failed over attempted operations) and its
sample count.  ``--out`` writes everything, with the environment record, as
one point of the benchmark trajectory.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, CONTRACT, ROOT
from workloads import CHECK_SEED, DEFAULT_SEED, WORKLOADS


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; re-check claims with {CHECK_SEED})")
    parser.add_argument("--out", type=Path, help="write the results as a trajectory JSON file")
    args = parser.parse_args()
    seconds = json.loads(CONTRACT.read_text())["run_seconds"]

    point = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace, label in ((0, "untraced"), (1, "traced")):
            detail, result = run(name, args.seed, seconds, trace)
            fail_rate = result["failed"] / result["attempted"]
            for metric, m in result["metrics"].items():
                print(f"{name:26s} {metric:24s} {m['value']:<14.6g} {m['unit']}")
            print(f"{name:26s} {'fail_rate':24s} {fail_rate:<14.6g} ratio  "
                  f"({result['failed']}/{result['attempted']}, {detail['samples']} timed calls, {label})")
            point.setdefault("environment", detail["environment"])
            entry[label] = {
                "metrics": result["metrics"],
                "fail_rate": fail_rate,
                "attempted": result["attempted"],
                "samples": detail["samples"],
                "walls_s": detail["walls_s"],
            }
            if trace:
                entry[label]["split"] = detail["split"]
            else:
                entry[label]["setup_samples_s"] = detail["setup_samples_s"]
        point["workloads"][name] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
