"""Replicated estimation benchmarks on synthetic compositions.

For each (case, dimension, replication) cell the runner draws one latent
dataset, closes it to compositions, fits every requested estimator on the
same data, and scores the fits against the ground-truth basis covariance.
Cells fan out across forked worker processes and reduce in a fixed order,
so the result table does not depend on the worker count.

Seeding: replication r of case c at dimension p derives its streams from
``SeedSequence((seed, c, p, r))``; the first child seeds the data draw, the
second the fold shuffle.  Estimators within a cell share both, which pairs
their losses and keeps fold assignments identical across estimators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .compdata import _check_count, _check_seed, clr_transform
from .metrics import (
    frobenius_loss,
    matrix_l1_loss,
    spectral_loss,
    support_metrics,
)
from .parallel import ordered_map
from .simgen import _check_dimension, basis_to_composition, build_omega0, get_case, sample_case
from .tuning import ESTIMATOR_KINDS, EstimatorConfig, estimate_from_latent

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
        # Store what the checks return: distinct Python ints and names, used as they are.
        object.__setattr__(self, "cases", _distinct(self.cases, "case", _check_case))
        object.__setattr__(self, "p_values", _distinct(self.p_values, "dimension", _check_dimension))
        object.__setattr__(self, "n", _check_count(self.n, "n", 4))
        object.__setattr__(self, "replications", _check_count(self.replications, "replications", 1))
        object.__setattr__(self, "estimators", _distinct(self.estimators, "estimator", _check_arm))
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _distinct(values, what: str, check) -> tuple:
    """Each of ``values`` as ``check`` returns it; at least one, none repeated."""
    checked = tuple(map(check, values))
    if not checked:
        raise ValueError(f"at least one {what} is required")
    if len(set(checked)) < len(checked):
        raise ValueError(f"each {what} may be listed once, got {checked}")
    return checked


def _check_case(case) -> int:
    get_case(case)  # a key of CASES, else the error names them
    return _check_count(case, "case", 1)  # a number, not a SimulationCase


def _check_arm(arm) -> str:
    if arm not in BENCH_ESTIMATORS:
        raise ValueError(f"unknown estimator {arm!r}; expected one of {BENCH_ESTIMATORS}")
    return arm


@dataclass(frozen=True)
class ReplicationRecord:
    """Losses of one estimator on one replication."""

    case: int
    p: int
    estimator: str
    replication: int
    values: dict  # metric name -> float


def _cell_seeds(seed: int, case: int, p: int, rep: int):
    """The data seed and the fold seed of one cell."""
    children = np.random.SeedSequence(entropy=(seed, case, p, rep)).spawn(2)
    return tuple(int(child.generate_state(1, np.uint64)[0]) for child in children)


def run_benchmark(spec: BenchmarkSpec, config: EstimatorConfig = EstimatorConfig()) -> list:
    """Run all replications and return records in deterministic order."""
    tasks = itertools.product(spec.cases, spec.p_values, range(spec.replications))
    omega_truth = {p: build_omega0(p) for p in spec.p_values}

    def run_cell(task):
        case, p, rep = task
        data_seed, fold_seed = _cell_seeds(spec.seed, case, p, rep)
        y = sample_case(case, spec.n, p, data_seed)
        # The compositional arms share one clr of the closed data; the
        # oracle fits the latent rows.
        w = clr_transform(basis_to_composition(y)).values
        records = []
        for arm in spec.estimators:
            kind = "rcec" if arm == "oracle" else arm
            cfg = replace(config, estimator=kind, seed=fold_seed)
            fit = estimate_from_latent(y if arm == "oracle" else w, cfg)
            truth = omega_truth[p]
            support = support_metrics(fit.omega, truth)
            records.append(
                ReplicationRecord(
                    case=case,
                    p=p,
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
                            "case": case,
                            "p": p,
                            "estimator": arm,
                            "metric": metric,
                            "mean": float(values.mean()),
                            "sd": sd,
                            "replications": values.size,
                            "seed": spec.seed,
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
