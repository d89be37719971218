"""End-to-end acceptance checks.

Twelve pinned criteria covering the thresholding operators, the robust
covariance, the clr proxy geometry, desk-scale benchmark brackets, the
convergence rate, sign recovery, cross-validation correctness, CLI
determinism and the stability contract.  Each test prints one

    [acceptance] criterion NN <name>: PASS|FAIL

line directly to the terminal (bypassing capture) and asserts the same
outcome, so a plain ``pytest`` run shows the scoreboard.
"""

import functools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import RCEC_FILE, cli_env

from rcec import (
    BenchmarkSpec,
    EstimatorConfig,
    ThresholdRule,
    apply_rule,
    basis_to_composition,
    bootstrap_stability,
    build_omega0,
    clr_transform,
    cv_select,
    default_block_count,
    estimate,
    filter_stable,
    make_folds,
    mom_covariance,
    run_benchmark,
    sample_case,
    sample_covariance,
)
from rcec.bench import _cell_seeds
from rcec.simgen import get_case


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# criterion 1: shrinkage axioms of the thresholding rules

def test_criterion_01_thresholding_axioms(capsys):
    # For every rule and 10^4 random (z, lam, y) triples with |y - z| <= lam:
    #   * tau(z) = 0 whenever |z| <= lam,
    #   * |tau(z) - z| <= lam,
    #   * |tau(z)| <= c |y| with c = 1 for soft and alasso(1), c = eta for
    #     alasso(eta), c = a/(a-1) for scad(a).
    # c = 1 for every rule is impossible: together with |tau - z| <= lam it
    # forces tau to BE soft thresholding, contradicting alasso(2) != soft.
    # The alasso(2) witness below pins a concrete violation.
    rules = [
        (ThresholdRule.parse("soft"), 1.0),
        (ThresholdRule.parse("alasso:1"), 1.0),
        (ThresholdRule.parse("alasso:2"), 2.0),
        (ThresholdRule.parse("alasso:4"), 4.0),
        (ThresholdRule.parse("scad:3.7"), 3.7 / 2.7),
    ]
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    problems = []
    for rule, factor in rules:
        z = rng.uniform(-10.0, 10.0, 10_000)
        lam = rng.uniform(0.0, 5.0, 10_000)
        y = z + rng.uniform(-1.0, 1.0, 10_000) * lam
        tau = apply_rule(rule, z, lam)
        slack = 1e-9 * (1.0 + np.abs(z) + lam)
        if not np.all(tau[np.abs(z) <= lam] == 0.0):
            problems.append(f"{rule.spec()}: small entries not killed")
        if not np.all(np.abs(tau - z) <= lam + slack):
            problems.append(f"{rule.spec()}: shrinkage exceeds lam")
        if not np.all(np.abs(tau) <= factor * np.abs(y) + slack):
            problems.append(f"{rule.spec()}: |tau| > {factor} |y|")
    soft = ThresholdRule.parse("soft")
    alasso1 = ThresholdRule.parse("alasso:1")
    z = rng.uniform(-10.0, 10.0, 10_000)
    lam = rng.uniform(0.0, 5.0, 10_000)
    gap = np.abs(apply_rule(alasso1, z, lam) - apply_rule(soft, z, lam)).max()
    if gap > 1e-12:
        problems.append(f"alasso(1) differs from soft by {gap:.3g}")
    # Witness that the unit-factor bound cannot hold beyond soft: at
    # z = 2, lam = 1, y = 1 the alasso(2) output 1.5 exceeds |y|.
    witness = float(apply_rule(ThresholdRule.parse("alasso:2"), 2.0, 1.0))
    if not (witness == 1.5 and witness > 1.0):
        problems.append(f"alasso(2) witness value {witness!r} unexpected")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")

    ok = not problems
    _report(capsys, 1, "thresholding shrinkage axioms", ok)
    assert ok, problems


# ---------------------------------------------------------------------------
# criterion 2: median-of-means degeneracies

def test_criterion_02_mom_degeneracies(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 31))
        p = int(rng.integers(2, 9))
        w = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0)
        worst = max(worst, float(np.abs(mom_covariance(w, 1) - sample_covariance(w)).max()))
    hand = mom_covariance(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]), 2)
    hand_ok = np.array_equal(hand, np.full((2, 2), 5.0))

    ok = worst <= 1e-12 and hand_ok
    _report(capsys, 2, "median-of-means degeneracies", ok)
    assert worst <= 1e-12, f"single-block mismatch {worst:.3g}"
    assert hand_ok, f"two-block hand example gave {hand!r}"


# ---------------------------------------------------------------------------
# criterion 3: clr proxy distance bound

def test_criterion_03_clr_proxy_bound(capsys):
    from rcec import clr_proxy_gap

    start = time.perf_counter()
    results = {}
    for p in (50, 100, 200):
        gap, bound = clr_proxy_gap(build_omega0(p))
        results[p] = (gap, bound)
    elapsed = time.perf_counter() - start

    ok = all(gap <= bound for gap, bound in results.values()) and elapsed < 1.0
    _report(capsys, 3, "clr proxy distance bound", ok)
    for p, (gap, bound) in results.items():
        assert gap <= bound, f"p={p}: gap {gap:.6g} > bound {bound:.6g}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


# ---------------------------------------------------------------------------
# criterion 4: clr of a closed basis recovers the centered basis

def test_criterion_04_clr_round_trip(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(2, 11))
        y = rng.uniform(-30.0, 30.0, size=(n, p))
        w = clr_transform(basis_to_composition(y)).values
        centered = y - y.mean(axis=1, keepdims=True)
        worst = max(worst, float(np.abs(w - centered).max()))

    ok = worst <= 1e-10
    _report(capsys, 4, "clr round trip", ok)
    assert ok, f"worst deviation {worst:.3g} exceeds 1e-10"


# ---------------------------------------------------------------------------
# criteria 5-7: desk-scale benchmark brackets

def _mean_metric(records, arm, metric):
    values = [r.values[metric] for r in records if r.estimator == arm]
    return float(np.mean(values))


def test_criterion_05_case1_loss_bracket(capsys):
    spec = BenchmarkSpec(
        cases=(1,), p_values=(100,), n=100, replications=50, estimators=("rcec",), seed=20260814
    )
    records = run_benchmark(spec)
    mean_spectral = _mean_metric(records, "rcec", "spectral")
    mean_fpr = _mean_metric(records, "rcec", "fpr")

    ok = 6.0 <= mean_spectral <= 7.2 and mean_fpr <= 0.05
    _report(capsys, 5, "case 1 loss bracket", ok)
    assert 6.0 <= mean_spectral <= 7.2, f"mean spectral {mean_spectral:.4f} outside [6.0, 7.2]"
    assert mean_fpr <= 0.05, f"mean FPR {mean_fpr:.4f} exceeds 0.05"


def test_criterion_06_heavy_tail_robustness(capsys):
    spec = BenchmarkSpec(
        cases=(2,),
        p_values=(100,),
        n=100,
        replications=50,
        estimators=("rcec", "coat"),
        seed=20260814,
    )
    records = run_benchmark(spec)
    rcec_spectral = _mean_metric(records, "rcec", "spectral")
    coat_spectral = _mean_metric(records, "coat", "spectral")

    ok = rcec_spectral < coat_spectral and rcec_spectral < 10.0
    _report(capsys, 6, "heavy tail robustness", ok)
    assert rcec_spectral < coat_spectral, (
        f"robust arm {rcec_spectral:.4f} not below single-block arm {coat_spectral:.4f}"
    )
    assert rcec_spectral < 10.0, f"robust arm spectral loss {rcec_spectral:.4f} >= 10"


def test_criterion_07_contamination_pairwise_wins(capsys):
    spec = BenchmarkSpec(
        cases=(4,),
        p_values=(100,),
        n=100,
        replications=20,
        estimators=("rcec", "coat"),
        seed=1,
    )
    records = run_benchmark(spec)
    rcec = {r.replication: r.values["spectral"] for r in records if r.estimator == "rcec"}
    coat = {r.replication: r.values["spectral"] for r in records if r.estimator == "coat"}
    wins = sum(1 for rep in range(20) if rcec[rep] < coat[rep])

    ok = wins >= 16
    _report(capsys, 7, "contamination pairwise wins", ok)
    assert ok, f"robust arm won only {wins}/20 paired replications"


# ---------------------------------------------------------------------------
# criterion 8: max-norm error halves (roughly) per 4x sample growth

def test_criterion_08_max_norm_rate(capsys):
    p = 50
    case = get_case(2)
    # The estimand is the covariance of the log basis; for t data that is
    # the scale matrix times df / (df - 2).
    target = (case.df / (case.df - 2.0)) * build_omega0(p)
    block_count = default_block_count(p)
    medians = {}
    for n in (100, 400, 1600):
        errs = []
        for rep in range(50):
            seed = int(
                np.random.SeedSequence(entropy=(20260814, 8, n, rep)).generate_state(
                    1, np.uint64
                )[0]
            )
            y = sample_case(case, n, p, seed)
            w = clr_transform(basis_to_composition(y)).values
            gamma = mom_covariance(w, min(block_count, n))
            errs.append(float(np.abs(gamma - target).max()))
        medians[n] = float(np.median(errs))
    ratio_1 = medians[400] / medians[100]
    ratio_2 = medians[1600] / medians[400]

    ok = 0.35 <= ratio_1 <= 0.75 and 0.35 <= ratio_2 <= 0.75
    _report(capsys, 8, "max-norm convergence rate", ok)
    detail = f"medians {medians}, ratios {ratio_1:.3f}, {ratio_2:.3f}"
    assert 0.35 <= ratio_1 <= 0.75, detail
    assert 0.35 <= ratio_2 <= 0.75, detail


# ---------------------------------------------------------------------------
# criterion 9: sign recovery on the strong-signal band

def test_criterion_09_strong_signal_sign_recovery(capsys):
    p, n = 50, 400
    truth = build_omega0(p)
    iu = np.triu_indices(p, k=1)
    diag = np.diag(truth)
    strength = np.abs(truth[iu]) / np.sqrt(np.outer(diag, diag)[iu])
    band = strength >= 0.5
    assert int(band.sum()) == 110  # five off-diagonals of the banded block
    truth_signs = np.sign(truth[iu][band])

    successes = 0
    for rep in range(50):
        data_seed, fold_seed = _cell_seeds(1, 1, p, rep)
        y = sample_case(get_case(1), n, p, data_seed)
        fit = estimate(basis_to_composition(y), EstimatorConfig(seed=fold_seed))
        est_off = fit.omega[iu][band]
        est_signs = np.where(np.abs(est_off) > 0, np.sign(est_off), 0.0)
        successes += bool(np.all(est_signs == truth_signs))

    ok = successes >= 45
    _report(capsys, 9, "strong signal sign recovery", ok)
    assert ok, f"signs fully recovered in only {successes}/50 replications"


# ---------------------------------------------------------------------------
# criterion 10: cross-validation against a brute-force oracle

def test_criterion_10_cv_oracle(capsys):
    rng = np.random.default_rng(100)
    scale = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 1.0]])
    w = rng.multivariate_normal(np.zeros(3), scale, size=20)
    config = EstimatorConfig()
    lam_star, curve = cv_select(w, config)

    # Independent recomputation with explicit loops and scalar shrinkage,
    # sharing only the folds and the candidate grid.
    def soft_scalar(z, t):
        mag = abs(z) - t
        return math.copysign(mag, z) if mag > 0.0 else 0.0

    def robust_cov(rows):
        sub = w[rows]
        m = default_block_count(3, config.L, n_cap=len(rows))
        return mom_covariance(sub, m) if m > 1 else sample_covariance(sub)

    n, p = w.shape
    folds = make_folds(n, config.folds, config.seed)
    grid = curve[:, 0]
    mean_errors = []
    for lam in grid:
        fold_errors = []
        for fold in folds:
            train_rows = np.setdiff1d(np.arange(n), fold)
            g_train = robust_cov(train_rows)
            g_test = robust_cov(fold)
            log_term = math.log(p) / len(train_rows)
            err = 0.0
            for i in range(p):
                for j in range(p):
                    if i == j:
                        fitted = g_train[i, i]
                    else:
                        t = lam * math.sqrt(g_train[i, i] * g_train[j, j] * log_term)
                        fitted = soft_scalar(g_train[i, j], t)
                    err += (fitted - g_test[i, j]) ** 2
            fold_errors.append(err)
        mean_errors.append(sum(fold_errors) / len(fold_errors))
    mean_errors = np.asarray(mean_errors)
    best = int(np.flatnonzero(mean_errors == mean_errors.min())[-1])

    exact_match = lam_star == grid[best]
    curve_gap = float(np.abs(curve[:, 1] - mean_errors).max())

    ok = exact_match and curve_gap <= 1e-12
    _report(capsys, 10, "cross-validation oracle", ok)
    assert exact_match, f"cv_select chose {lam_star!r}, oracle chose {grid[best]!r}"
    assert curve_gap <= 1e-12, f"curve mismatch {curve_gap:.3g}"


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism and thread invariance

def _describe(proc, cwd):
    return (
        f"exit code {proc.returncode} in cwd {cwd}\n"
        f"--- stderr ---\n{proc.stderr}--- stdout ---\n{proc.stdout}"
    )


@functools.cache
def _check_cli_package(cwd):
    # A stale installed copy must not stand in for the checkout.
    probe = "import pathlib, rcec; print(pathlib.Path(rcec.__file__).resolve())"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"child cannot import rcec: {_describe(proc, cwd)}"
    child_file = proc.stdout.strip()
    assert child_file == str(RCEC_FILE), (
        f"CLI subprocess imports rcec from {child_file}, "
        f"but the tests imported it from {RCEC_FILE}"
    )


def _run_cli(args, cwd, env=None):
    _check_cli_package(str(cwd))
    proc = subprocess.run(
        [sys.executable, "-m", "rcec", *args],
        cwd=cwd,
        env=cli_env(env),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"rcec {' '.join(args)} failed: {_describe(proc, cwd)}"


def test_criterion_11_cli_determinism(capsys, tmp_path):
    simulate = ["simulate", "--case", "1", "--n", "40", "--p", "8", "--seed", "0"]
    _run_cli(simulate + ["--out", "samples.csv"], tmp_path)
    data = tmp_path / "samples.csv"

    benchmark = [
        "benchmark", "--cases", "1", "--p", "8", "--n", "40", "--replications", "2",
        "--estimators", "rcec,coat", "--grid-size", "12",
    ]
    # Identical inner file names per run directory keep self-referential
    # fields (the meta file names its CSV) out of the byte comparison.
    for tag in ("a", "b"):
        _run_cli(simulate + ["--out", f"run_{tag}/sim.csv"], tmp_path)
        _run_cli(
            ["estimate", str(data), "--grid-size", "12", "--out", f"run_{tag}/est"],
            tmp_path,
        )
        _run_cli(benchmark + ["--out", f"run_{tag}/ben"], tmp_path)
        _run_cli(
            [
                "stability", str(data), "--bootstrap", "4", "--retain", "2",
                "--grid-size", "12", "--out", f"run_{tag}/stab.json",
            ],
            tmp_path,
        )
    rerun_targets = (
        "sim.csv", "sim.csv.meta.json",
        "est/omega.csv", "est/edges.json", "est/report.json",
        "ben/results.csv", "ben/results.md", "ben/losses.csv",
        "stab.json",
    )
    mismatches = []
    for name in rerun_targets:
        first = (tmp_path / "run_a" / name).read_bytes()
        second = (tmp_path / "run_b" / name).read_bytes()
        if first != second:
            mismatches.append(name)

    _run_cli(benchmark + ["--out", "ben_serial"], tmp_path, env={"RCEC_THREADS": "1"})
    _run_cli(benchmark + ["--out", "ben_threads"], tmp_path, env={"RCEC_THREADS": "8"})
    for name in ("results.csv", "results.md", "losses.csv"):
        serial = (tmp_path / "ben_serial" / name).read_bytes()
        threaded = (tmp_path / "ben_threads" / name).read_bytes()
        if serial != threaded:
            mismatches.append(f"thread cap changed {name}")

    ok = not mismatches
    _report(capsys, 11, "determinism and thread invariance", ok)
    assert ok, mismatches


# ---------------------------------------------------------------------------
# criterion 12: stability self-consistency and retain monotonicity

def test_criterion_12_stability_contract(capsys):
    y = sample_case(get_case(1), 100, 20, seed=12)
    x = basis_to_composition(y)
    config = EstimatorConfig(grid_size=20)

    self_rep = bootstrap_stability(
        x,
        config,
        replicates=1,
        retain_threshold=1,
        seed=0,
        index_sampler=lambda rng, n: np.arange(n),
    )
    self_ok = (
        self_rep.stability == 1.0
        and self_rep.stable.pairs() == self_rep.baseline.pairs()
        and len(self_rep.stable) == len(self_rep.baseline) > 0
    )

    full = bootstrap_stability(x, config, replicates=100, retain_threshold=50, seed=0)
    sizes = [len(filter_stable(full.baseline, k)) for k in (0, 25, 50, 75, 100)]
    monotone = all(a >= b for a, b in zip(sizes, sizes[1:]))
    anchored = sizes[0] == len(full.baseline) and len(full.stable) == sizes[2]

    ok = self_ok and monotone and anchored
    _report(capsys, 12, "stability contract", ok)
    assert self_ok, "single self-replicate did not reproduce the baseline"
    assert monotone, f"retained edge counts not monotone: {sizes}"
    assert anchored, f"retained counts inconsistent with baseline/stable sets: {sizes}"
