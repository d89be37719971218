"""Replicated estimation benchmarks on synthetic compositions.

For each (case, dimension, replication) cell the runner draws one latent
dataset, closes it to compositions, fits every requested estimator on the
same data, and scores the fits against the ground-truth basis covariance.
Replications fan out across threads and reduce in a fixed order, so the
result table does not depend on the worker count.

Seeding: replication r of case c at dimension p derives its streams from
``SeedSequence((seed, c, p, r))``; the first child seeds the data draw, the
second the fold shuffle.  Estimators within a cell share both, which pairs
their losses and keeps fold assignments identical across estimators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compdata import _check_count, _check_seed
from .metrics import (
    frobenius_loss,
    matrix_l1_loss,
    spectral_loss,
    support_metrics,
)
from .parallel import ordered_map
from .simgen import basis_to_composition, build_omega0, get_case, sample_case
from .tuning import ESTIMATOR_KINDS, EstimatorConfig, estimate, estimate_from_latent

# Fixed metric order for tables.
METRICS = ("matrix_l1", "spectral", "frobenius", "tpr", "fpr")

# "oracle" is not an EstimatorConfig kind: it runs the rcec pipeline on the
# latent basis data, sidestepping the compositional distortion entirely.
BENCH_ESTIMATORS = ESTIMATOR_KINDS + ("oracle",)


@dataclass(frozen=True)
class BenchmarkSpec:
    """What to run: cases, dimensions, sample size, arms and replication count."""

    cases: tuple = (1, 2, 3, 4)
    p_values: tuple = (50, 100, 200)
    n: int = 100
    replications: int = 100
    estimators: tuple = ("rcec", "coat")
    seed: int = 0

    def __post_init__(self):
        if not self.cases:
            raise ValueError("at least one case is required")
        for c in self.cases:
            get_case(c)
        if not self.p_values:
            raise ValueError("at least one dimension is required")
        _check_count(self.n, "n", 4)
        _check_count(self.replications, "replications", 1)
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        for e in self.estimators:
            if e not in BENCH_ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {e!r}; expected one of {BENCH_ESTIMATORS}"
                )
        _check_seed(self.seed)


@dataclass(frozen=True)
class ReplicationRecord:
    """Losses of one estimator on one replication."""

    case: int
    p: int
    estimator: str
    replication: int
    values: dict  # metric name -> float


def _cell_seeds(seed: int, case: int, p: int, rep: int):
    root = np.random.SeedSequence(entropy=(int(seed), int(case), int(p), int(rep)))
    data_seq, fold_seq = root.spawn(2)
    data_seed = int(data_seq.generate_state(1, np.uint64)[0])
    fold_seed = int(fold_seq.generate_state(1, np.uint64)[0])
    return data_seed, fold_seed


def run_benchmark(spec: BenchmarkSpec, config: EstimatorConfig | None = None) -> list:
    """Run all replications and return records in deterministic order."""
    base_config = config if config is not None else EstimatorConfig()
    tasks = [
        (case, p, rep)
        for case in spec.cases
        for p in spec.p_values
        for rep in range(spec.replications)
    ]
    omega_truth = {p: build_omega0(p) for p in spec.p_values}

    def run_cell(task):
        case, p, rep = task
        data_seed, fold_seed = _cell_seeds(spec.seed, case, p, rep)
        y = sample_case(case, spec.n, p, data_seed)
        x = basis_to_composition(y)
        records = []
        for arm in spec.estimators:
            kind = "rcec" if arm == "oracle" else arm
            cfg = replace(base_config, estimator=kind, seed=fold_seed)
            fit = estimate_from_latent(y, cfg) if arm == "oracle" else estimate(x, cfg)
            truth = omega_truth[p]
            support = support_metrics(fit.omega, truth)
            records.append(
                ReplicationRecord(
                    case=int(case),
                    p=int(p),
                    estimator=arm,
                    replication=rep,
                    values={
                        "matrix_l1": matrix_l1_loss(fit.omega, truth),
                        "spectral": spectral_loss(fit.omega, truth),
                        "frobenius": frobenius_loss(fit.omega, truth),
                        "tpr": support.tpr,
                        "fpr": support.fpr,
                    },
                )
            )
        return records

    nested = ordered_map(run_cell, tasks)
    return [record for cell in nested for record in cell]


def summarize(records, spec: BenchmarkSpec) -> list:
    """Aggregate records to (case, p, estimator, metric, mean, sd, ...) rows.

    ``sd`` is the sample standard deviation across replications (0 for a
    single replication).  Rows follow the case, dimension and estimator
    order of ``spec`` with the fixed metric order, so output is deterministic.
    """
    grouped = {}
    for record in records:
        for metric in METRICS:
            key = (record.case, record.p, record.estimator, metric)
            grouped.setdefault(key, []).append(record.values[metric])
    rows = []
    for case in spec.cases:
        for p in spec.p_values:
            for arm in spec.estimators:
                for metric in METRICS:
                    values = np.asarray(grouped[(case, p, arm, metric)])
                    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
                    rows.append(
                        {
                            "case": int(case),
                            "p": int(p),
                            "estimator": arm,
                            "metric": metric,
                            "mean": float(values.mean()),
                            "sd": sd,
                            "replications": int(values.size),
                            "seed": int(spec.seed),
                        }
                    )
    return rows


TABLE_COLUMNS = ("case", "p", "estimator", "metric", "mean", "sd", "replications", "seed")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(TABLE_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_markdown(rows) -> str:
    header = "| " + " | ".join(TABLE_COLUMNS) + " |"
    rule = "|" + "|".join(" --- " for _ in TABLE_COLUMNS) + "|"
    lines = [header, rule]
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(row[c]) for c in TABLE_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    """Per-replication losses in long form, for external plotting."""
    lines = ["case,p,estimator,metric,replication,value"]
    for record in records:
        for metric in METRICS:
            lines.append(
                f"{record.case},{record.p},{record.estimator},{metric},"
                f"{record.replication},{record.values[metric]:.6g}"
            )
    return "\n".join(lines) + "\n"
