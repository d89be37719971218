"""One workload in one fresh process; started by run.py and record_reference.py.

The parent sets the thread variables in this process's environment, so
numpy reads them on import.  Set-up is timed from the first line of this
file: imports, input generation, and one warm-up call on the reference
seed's input whose output bytes must match the digests recorded from the
seed commit.  The worker then calls ``rcec.cli.main`` in-process on the
run's own input for ``--seconds`` seconds, checks that every call's output
bytes equal the first call's, and prints one JSON line.  The line carries
the warm-up call's digests, which record_reference.py records.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"

import workloads  # noqa: E402  (numpy is imported here, after the pins)
from spans import Tracer, layer_metrics, layer_split  # noqa: E402


def environment(np) -> dict:
    """Versions, BLAS, cores and thread settings behind a result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401

        pin = "threadpoolctl imports: rcec.parallel.single_threaded_blas pins BLAS to 1 thread"
        has_threadpoolctl = True
    except ImportError:
        pin = (
            "threadpoolctl does not import: rcec.parallel.single_threaded_blas is a no-op, "
            "BLAS is pinned only by OPENBLAS_NUM_THREADS/OMP_NUM_THREADS set by the benchmark"
        )
        has_threadpoolctl = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in workloads.THREAD_ENV},
        "threadpoolctl": has_threadpoolctl,
        "blas_pin": pin,
    }


def digests(run_dir: Path, files) -> dict:
    return {f: hashlib.sha256((run_dir / f).read_bytes()).hexdigest() for f in files}


class Runner:
    """Calls the CLI in a run directory and checks every call's outputs."""

    def __init__(self, cli, workload, size, run_dir: Path, argv):
        self.cli = cli
        self.workload = workload
        self.size = size
        self.run_dir = run_dir
        self.argv = argv
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, main=None) -> float:
        """One timed call; returns its wall seconds and records any failure."""
        for name in self.workload.outputs:
            (self.run_dir / name).unlink(missing_ok=True)
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = (main or self.cli.main)(self.argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            code = repr(exc)
        wall = time.perf_counter() - start
        issues = self.check(code, sink.getvalue())
        if issues:
            self.failed += 1
            self.problems.extend(f"call {self.attempted}: {issue}" for issue in issues)
        return wall

    def check(self, code, log) -> list:
        if code != 0:
            return [f"exited {code}: {log.strip()[-300:]}"]
        try:
            found = digests(self.run_dir, self.workload.outputs)
            issues = workloads.check_outputs(self.workload, self.size, self.run_dir)
        except (OSError, ValueError, KeyError) as exc:
            return [f"output unreadable: {exc!r}"]
        if self.expected is None:
            if not issues:
                self.expected = found
        elif found != self.expected:
            issues.append("output bytes differ from the warm-up call")
        return issues


def timed_calls(runner, seconds: float) -> list:
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.call())
    return walls


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", type=Path, required=True, help="recorded digests")
    args = parser.parse_args()
    size_name = "tiny" if args.tiny else "full"
    recorded = json.loads(args.reference.read_text()).get(size_name, {}).get(args.workload)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import rcec.cli

    if Path(rcec.__file__).resolve().parent != SRC / "rcec":
        print(f"error: imported rcec from {rcec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    size = getattr(workload, size_name)
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    try:
        # Warm-up: one call on the reference seed's input, checked against
        # the digests recorded from the seed commit.
        ref_dir = scratch / "reference"
        reference = Runner(rcec.cli, workload, size, ref_dir,
                           workloads.prepare(workload, size, workloads.REFERENCE_SEED, ref_dir))
        os.chdir(ref_dir)
        reference.call()
        if reference.expected is not None and reference.expected != recorded:
            reference.failed += 1
            reference.problems.append(
                f"reference seed {workloads.REFERENCE_SEED}: output bytes differ from the "
                "digests recorded from the seed commit"
            )
        run_dir = scratch / "run"
        runner = Runner(rcec.cli, workload, size, run_dir,
                        workloads.prepare(workload, size, args.seed, run_dir))
        setup_s = time.perf_counter() - T0
        result = {
            "setup_s": setup_s,
            "attempted": reference.attempted,
            "failed": reference.failed,
            "problems": reference.problems,
            "reference_digests": reference.expected,
        }
        if args.mode == "measure":
            os.chdir(run_dir)
            if args.trace:
                result.update(traced_run(runner, args.seconds, args.workload))
            else:
                result["walls"] = timed_calls(runner, args.seconds)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["items_per_call"] = workload.items(size)
            result["attempted"] += runner.attempted
            result["failed"] += runner.failed
            result["problems"] = (result["problems"] + runner.problems)[:20]
            result["environment"] = environment(np)
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(BENCH_DIR)
        shutil.rmtree(scratch, ignore_errors=True)


def traced_run(runner, seconds: float, name: str) -> dict:
    """Untraced and traced calls in turn; per-layer metrics per traced call.

    Alternating call by call exposes both halves to the same host drift, so
    the ratio of their medians measures the cost of tracing.
    """
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", runner.cli.main)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(untraced) == len(traced):
            untraced.append(runner.call())
        else:
            with tracer.installed():
                traced.append(runner.call(traced_main))
    calls = len(traced)
    layers = layer_metrics(tracer.spans, calls)
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    layers["trace.wall_s"] = statistics.fmean(traced)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{name}.jsonl")
    # Pool-thread spans run concurrently, so shares of wall time can sum past
    # 1.  Shares of busy time sum to 1: busy time is all self time except the
    # main thread's wait in parallel.map, which has no busy share.
    split = layer_split(tracer.spans, calls)
    busy = sum(s for span, (s, _) in split.items() if span != "parallel.map")
    split = {
        span: {
            "self_s": s,
            "per_call": c,
            "share_of_wall": s / layers["trace.wall_s"],
            "share_of_busy": None if span == "parallel.map" else s / busy,
        }
        for span, (s, c) in split.items()
    }
    return {"walls": untraced, "layers": layers, "split": split}


if __name__ == "__main__":
    sys.exit(main())
