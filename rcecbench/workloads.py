"""Workloads of the rcec benchmark: seeded inputs, CLI calls and output checks.

Inputs are generated here with numpy alone, so the program under test sees
only the generated table (or, for ``benchmark``, only the seed) and a change
to ``rcec.simgen`` cannot change what the other workloads measure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Set in every worker's environment before numpy is imported.  The baseline
# machine has two cores: BLAS runs single-threaded and the rcec fan-out uses two
# threads, so no run asks for more threads than cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "RCEC_THREADS": "2"}

# Seed whose outputs were recorded from the seed commit (reference.json).
REFERENCE_SEED = 0
# Default workload seed, and the second seed for re-checking a claim on
# inputs the change was not developed against.
DEFAULT_SEED = 0
CHECK_SEED = 7919


@dataclass(frozen=True)
class Size:
    n: int
    p: int
    replicates: int = 0  # stability: bootstrap replicates B
    retain: int = 0  # stability: --retain
    replications: int = 0  # benchmark: replications per case


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # rcec CLI subcommand
    full: Size
    tiny: Size  # for the smoke test
    outputs: tuple  # files whose bytes are checked against the reference

    def items(self, size: Size) -> int:
        """Units of work in one command call: fits or bootstrap replicates."""
        if self.command == "stability":
            return size.replicates
        if self.command == "benchmark":
            return len(BENCH_CASES) * size.replications
        return 1


BENCH_CASES = (1, 4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate-p400",
            command="estimate",
            full=Size(n=100, p=400),
            tiny=Size(n=30, p=20),
            outputs=("out/omega.csv", "out/edges.json", "out/report.json"),
        ),
        Workload(
            name="stability-reuse-p200",
            command="stability",
            full=Size(n=100, p=200, replicates=100, retain=50),
            tiny=Size(n=30, p=16, replicates=10, retain=5),
            outputs=("stability.json",),
        ),
        Workload(
            name="benchmark-coat-scad-p100",
            command="benchmark",
            full=Size(n=100, p=100, replications=16),
            tiny=Size(n=30, p=10, replications=2),
            outputs=("out/results.csv", "out/losses.csv"),
        ),
    )
}


# ---------------------------------------------------------------------------
# input generation

def _banded_scale(p: int) -> np.ndarray:
    # Banded Toeplitz block next to a 4I block: a sparse truth with both
    # correlated and independent parts.
    half = p // 2
    idx = np.arange(half)
    scale = np.zeros((p, p))
    scale[:half, :half] = np.maximum(1.0 - np.abs(idx[:, None] - idx[None, :]) / 10.0, 0.0)
    scale[half:, half:] = 4.0 * np.eye(p - half)
    return scale


def _student_t_rows(rng: np.random.Generator, n: int, p: int, df: float) -> np.ndarray:
    chol = np.linalg.cholesky(_banded_scale(p))
    normals = rng.standard_normal((n, p)) @ chol.T
    return normals / np.sqrt(rng.chisquare(df, n) / df)[:, None]


def _close(y: np.ndarray) -> np.ndarray:
    shifted = np.exp(y - y.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _write_csv(path: Path, rows, fmt) -> None:
    p = len(rows[0])
    lines = [",".join(f"taxon_{j + 1}" for j in range(p))]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def student_t_counts(seed: int, n: int, p: int) -> np.ndarray:
    """Case-2-style counts: Student-t (df 3.5) log basis, Poisson reads.

    Read depths are uniform in [15000, 35000]; with p = 400 about a fifth of
    the counts are zero, so ``--counts`` zero replacement matters.
    """
    rng = np.random.default_rng([seed, 2])
    x = _close(_student_t_rows(rng, n, p, 3.5))
    depth = rng.integers(15000, 35001, n)
    counts = rng.poisson(x * depth[:, None])
    counts[counts.sum(axis=1) == 0, 0] = 1  # an all-zero row is not a valid input
    return counts


def contaminated_proportions(seed: int, n: int, p: int) -> np.ndarray:
    """Case-4-style proportions: Student-t (df 4) rows, 5% gross outliers.

    Outlying rows are independent normals with standard deviation 3, drawn
    without the banded structure.
    """
    rng = np.random.default_rng([seed, 4])
    y = _student_t_rows(rng, n, p, 4.0)
    outliers = rng.choice(n, max(1, round(0.05 * n)), replace=False)
    y[outliers] = 3.0 * rng.standard_normal((outliers.size, p))
    return _close(y)


def prepare(workload: Workload, size: Size, seed: int, run_dir: Path) -> list:
    """Write the workload's input into ``run_dir``; return the CLI argv.

    Paths in the argv are relative: the caller runs the CLI with ``run_dir``
    as working directory, so ``report.json`` records the same input name on
    every machine.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    if workload.command == "estimate":
        _write_csv(run_dir / "counts.csv", student_t_counts(seed, size.n, size.p), str)
        return ["estimate", "counts.csv", "--counts", "--out", "out"]
    if workload.command == "stability":
        _write_csv(run_dir / "samples.csv", contaminated_proportions(seed, size.n, size.p),
                   lambda v: repr(float(v)))
        return [
            "stability", "samples.csv", "-B", str(size.replicates),
            "--retain", str(size.retain), "--reuse-lambda", "--out", "stability.json",
        ]
    return [
        "benchmark", "--cases", ",".join(map(str, BENCH_CASES)), "--p", str(size.p),
        "--n", str(size.n), "--replications", str(size.replications),
        "--estimators", "coat", "--rule", "scad:3.7", "--seed", str(seed), "--out", "out",
    ]


# ---------------------------------------------------------------------------
# output invariants (the byte digests are checked by the worker)

def check_outputs(workload: Workload, size: Size, run_dir: Path) -> list:
    """Invariants of one call's outputs; returns a list of problems."""
    problems = []
    if workload.command == "estimate":
        report = json.loads((run_dir / "out/report.json").read_text())
        edges = json.loads((run_dir / "out/edges.json").read_text())
        if not report["min_eigenvalue"] > 0:
            problems.append(f"min_eigenvalue {report['min_eigenvalue']!r} is not positive")
        if report["edge_count"] != len(edges["edges"]):
            problems.append("edge_count disagrees with edges.json")
        if (report["n"], report["p"]) != (size.n, size.p):
            problems.append(f"report shape {(report['n'], report['p'])} != {(size.n, size.p)}")
    elif workload.command == "stability":
        result = json.loads((run_dir / "stability.json").read_text())
        short = [e for e in result["edges"] if e["occurrences"] < size.retain]
        if short:
            problems.append(f"{len(short)} stable edges recur fewer than {size.retain} times")
        if result["metadata"]["bootstrap_replicates"] != size.replicates:
            problems.append("bootstrap replicate count differs from -B")
    else:
        rows = (run_dir / "out/results.csv").read_text().splitlines()[1:]
        losses = (run_dir / "out/losses.csv").read_text().splitlines()[1:]
        if len(rows) != len(BENCH_CASES) * 5:
            problems.append(f"results.csv has {len(rows)} rows, expected {len(BENCH_CASES) * 5}")
        if len(losses) != len(BENCH_CASES) * size.replications * 5:
            problems.append(f"losses.csv has {len(losses)} rows")
        if not all(math.isfinite(float(line.rsplit(",", 1)[1])) for line in losses):
            problems.append("losses.csv has a non-finite value")
    return problems
