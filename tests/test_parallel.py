"""Tests for the deterministic process fan-out helpers."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from conftest import cli_env

from rcec import bench, metrics, mom, parallel, simgen, tuning
from rcec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from rcec.parallel import THREADS_ENV, ordered_map, split_work, worker_count


class TestWorkerCount:
    def test_defaults_to_cpu_count_clamped_by_tasks(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert worker_count(3) == 3
        assert worker_count(100) == 8

    def test_request_caps_the_pool(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert worker_count(100, requested=2) == 2
        assert worker_count(1, requested=16) == 1

    def test_env_caps_the_pool(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        assert worker_count(100) == 2
        assert worker_count(100, requested=8) == 2
        monkeypatch.setenv(THREADS_ENV, "16")
        assert worker_count(100, requested=4) == 4

    def test_zero_tasks_use_one_worker(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert worker_count(0) == 1
        assert worker_count(0, requested=8) == 1

    def test_rejects_bad_env_values(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "many")
        with pytest.raises(ValueError, match="integer"):
            worker_count(4)
        monkeypatch.setenv(THREADS_ENV, "0")
        with pytest.raises(ValueError, match=">= 1"):
            worker_count(4)
        with pytest.raises(ValueError, match=">= 1"):
            worker_count(0)

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert worker_count(10) == 1

    def test_defaults_to_the_affinity_mask(self, monkeypatch):
        # A taskset- or cpuset-limited process may run on fewer CPUs than
        # the host has; the default counts only those.
        monkeypatch.delenv(THREADS_ENV, raising=False)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert worker_count(100) == 2


def with_pid(v):
    return v, os.getpid()


class TestOrderedMap:
    def test_preserves_input_order(self):
        items = list(range(40))
        assert ordered_map(lambda v: v * v, items, workers=4) == [v * v for v in items]

    def test_serial_and_threaded_agree(self):
        items = [3.5, -1.0, 0.25, 9.0]
        fn = lambda v: v**3 - 2.0 * v
        assert ordered_map(fn, items, workers=1) == ordered_map(fn, items, workers=3)

    def test_fan_out_runs_outside_the_calling_process(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        results = ordered_map(with_pid, range(16), workers=4)
        assert [v for v, _ in results] == list(range(16))
        assert os.getpid() not in {pid for _, pid in results}

    def test_serial_path_stays_in_the_calling_process(self):
        assert ordered_map(with_pid, range(4), workers=1) == [(v, os.getpid()) for v in range(4)]

    def test_empty_input(self):
        assert ordered_map(lambda v: v, [], workers=4) == []

    def test_generator_input(self):
        assert ordered_map(lambda v: v + 1, (v for v in range(5)), workers=2) == [1, 2, 3, 4, 5]


class TestProcessFanOut:
    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError])
    def test_task_error_reaches_the_caller_with_its_type(self, error):
        def fail_on_three(v):
            if v == 3:
                raise error("task 3 failed")
            return v

        with pytest.raises(error, match="task 3 failed"):
            ordered_map(fail_on_three, range(8), workers=2)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_successful_map(self):
        assert ordered_map(with_pid, range(8), workers=2)
        assert multiprocessing.active_children() == []

    def test_nested_map_runs_serially_in_the_worker(self):
        def outer(v):
            return ordered_map(lambda u: (u * v, os.getpid()), range(3), workers=2), os.getpid()

        results = ordered_map(outer, range(4), workers=2)
        for v, (inner, pid) in enumerate(results):
            assert inner == [(0, pid), (v, pid), (2 * v, pid)]
            assert pid != os.getpid()

    def test_runs_serially_where_fork_is_unavailable(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        results = ordered_map(with_pid, range(4), workers=2)
        assert results == [(v, os.getpid()) for v in range(4)]

    @pytest.mark.parametrize(
        "error, code, label",
        [(np.linalg.LinAlgError, EXIT_NUMERIC, "numerical failure"), (ValueError, EXIT_DATA, "data error")],
    )
    def test_benchmark_cell_error_keeps_its_exit_code(
        self, tmp_path, monkeypatch, capsys, error, code, label
    ):
        # Two cells on two workers; the patch reaches them through the fork.
        monkeypatch.setenv(THREADS_ENV, "2")
        failing_seed = bench._cell_seeds(0, 1, 8, 1)[1]
        original = bench.estimate

        def estimate(x, cfg):
            if cfg.seed == failing_seed:
                raise error(f"cell failed in process {os.getpid()}")
            return original(x, cfg)

        monkeypatch.setattr(bench, "estimate", estimate)
        argv = [
            "benchmark", "--cases", "1", "--p", "8", "--n", "40", "--replications", "2",
            "--estimators", "rcec", "--grid-size", "6", "--seed", "0",
            "--out", str(tmp_path / "b"),
        ]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{label}: cell failed in process ")
        assert f"process {os.getpid()}\n" not in err
        assert not (tmp_path / "b").exists()


# A task that breaks its worker, run in a fresh interpreter so that a hang
# ends at the subprocess timeout instead of stalling the test session.
BROKEN_TASK_SCRIPT = """
import multiprocessing, os, signal
from rcec.parallel import ordered_map

class TwoArgError(Exception):
    def __init__(self, what, index):
        super().__init__(f"{what} {index}")

def unpicklable_error(v):
    if v == 1:
        raise TwoArgError("task", v)
    return v

parent = os.getpid()

def sigkill(v):
    if v == 1 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return v

try:
    ordered_map(TASK, range(6), workers=2)
except Exception as exc:
    print(type(exc).__name__)
print(len(multiprocessing.active_children()))
"""


@pytest.mark.parametrize("task", ["unpicklable_error", "sigkill"])
def test_broken_worker_raises_instead_of_hanging(task):
    done = subprocess.run(
        [sys.executable, "-c", BROKEN_TASK_SCRIPT.replace("TASK", task)],
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "BrokenProcessPool\n0\n"


def _recording_plan(log, body=None):
    # A plan whose parts record the thread they run on, then run ``body``.
    def plan(threads):
        log.append(("plan", threads, threading.get_ident()))

        def part(k):
            log.append((k, threading.get_ident()))
            if body is not None:
                body(k)

        return part

    return plan


class TestSplitWork:
    def test_splits_over_the_capped_thread_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        log = []
        split_work(_recording_plan(log), 8)
        me = threading.get_ident()
        assert log[0] == ("plan", 2, me)
        threads = dict(log[1:])
        assert threads.keys() == {0, 1}
        assert threads[0] == me != threads[1]

    @pytest.mark.parametrize("threads", [0, 1, 8])
    def test_bad_cap_fails_at_any_thread_bound(self, monkeypatch, threads):
        monkeypatch.setenv(THREADS_ENV, "0")
        with pytest.raises(ValueError, match=">= 1"):
            split_work(_recording_plan([]), threads)

    def test_bound_caps_the_thread_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        log = []
        split_work(_recording_plan(log), 3)
        assert log[0][1] == 3

    @pytest.mark.parametrize("case", ["one thread", "busy", "bound of 1", "bound of 0"])
    def test_runs_on_the_calling_thread(self, monkeypatch, case):
        monkeypatch.setenv(THREADS_ENV, "1" if case == "one thread" else "2")
        threads = {"bound of 1": 1, "bound of 0": 0}.get(case, 8)
        log = []
        if case == "busy":
            with parallel._busy:  # held inside a forked worker or a running map
                split_work(_recording_plan(log), threads, blas=True)
        else:
            split_work(_recording_plan(log), threads, blas=True)
        me = threading.get_ident()
        assert log == [("plan", 1, me), (0, me)]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_part_error_reaches_the_caller_after_every_thread_joined(self, monkeypatch, failing):
        monkeypatch.setenv(THREADS_ENV, "2")
        finished = []

        def body(k):
            if k == failing:
                raise KeyError(f"part {k}")
            time.sleep(0.05)
            finished.append(k)

        before = threading.active_count()
        with pytest.raises(KeyError, match=f"part {failing}"):
            split_work(_recording_plan([], body), 2)
        assert finished == [1 - failing]
        assert threading.active_count() == before
        assert not parallel._busy.locked()

    def test_blas_work_stays_inline_without_the_pin(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        monkeypatch.setattr(parallel, "_openblas", lambda: None)
        log = []
        split_work(_recording_plan(log), 2, blas=True)
        assert log == [("plan", 1, threading.get_ident()), (0, threading.get_ident())]
        log = []
        split_work(_recording_plan(log), 2)  # work without BLAS still splits
        assert log[0][1] == 2


@pytest.fixture
def blas_count():
    """``get`` of numpy's OpenBLAS thread count, with the count set to 2 for
    the test so that a pin to one thread shows."""
    if parallel._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = parallel._openblas()
    old = get()
    set_(2)
    yield get
    set_(old)


class Probe(Exception):
    """Raised by a spy to end a pinned call early."""


W = np.random.default_rng(0).standard_normal((12, 5))
SYM = W.T @ W

# Each function that owns the BLAS pin, a call of it, and a callee to spy on
# as (owner, attribute name).
PINNED = {
    "_median_covariance": (lambda: mom._median_covariance(W, 3, SYM > 0), (mom, "split_work")),
    "sample_covariance": (lambda: mom.sample_covariance(W), (mom, "_block_product")),
    "pd_floor_scan": (
        lambda: tuning.pd_floor_scan(SYM, [0.0], 12, tuning.EstimatorConfig()),
        (np.linalg, "cholesky"),
    ),
    "min_eigenvalue": (lambda: metrics.min_eigenvalue(SYM), (np.linalg, "eigvalsh")),
    "spectral_loss": (lambda: metrics.spectral_loss(SYM, -SYM), (np.linalg, "eigvalsh")),
    "frobenius_loss": (lambda: metrics.frobenius_loss(SYM, -SYM), (np.linalg, "norm")),
    "clr_proxy_gap": (lambda: metrics.clr_proxy_gap(SYM), (metrics, "centering_matrix")),
    "sample_case": (lambda: simgen.sample_case(1, 4, 6, 0), (simgen, "_cholesky")),
}


def spy(monkeypatch, owner, name, seen, fail=False):
    """Replace ``owner.name`` with a wrapper that appends numpy's OpenBLAS
    thread count to ``seen``, then raises ``Probe`` or calls through."""
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(parallel._openblas()[0]())
        if fail:
            raise Probe
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)


class TestBlasPin:
    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_inside_and_restored_after(self, monkeypatch, blas_count, name, fail):
        call, (owner, attr) = PINNED[name]
        seen = []
        spy(monkeypatch, owner, attr, seen, fail)
        if fail:
            with pytest.raises(Probe):
                call()
        else:
            call()
        assert set(seen) == {1}
        assert blas_count() == 2

    def test_split_parts_run_on_one_blas_thread(self, monkeypatch, blas_count):
        monkeypatch.setenv(THREADS_ENV, "2")
        monkeypatch.setattr(mom, "_THREAD_SHARE", 1)
        seen, threads = [], set()
        product = mom._block_product

        def recording_product(block, out):
            seen.append(blas_count())
            threads.add(threading.get_ident())
            return product(block, out)

        monkeypatch.setattr(mom, "_block_product", recording_product)
        mom._median_covariance(W, 6, SYM > 0)
        assert len(threads) == 2
        assert set(seen) == {1}
        assert blas_count() == 2

    def test_forked_map_task_runs_on_one_blas_thread(self, monkeypatch, blas_count):
        monkeypatch.setenv(THREADS_ENV, "2")
        seen = []
        spy(monkeypatch, np.linalg, "eigvalsh", seen)

        def task(v):
            # The workers fork after the spy is set, and fill their own copy
            # of ``seen``.
            metrics.min_eigenvalue(SYM)
            return blas_count(), seen[-1], os.getpid()

        results = ordered_map(task, range(4))
        assert os.getpid() not in {pid for *_, pid in results}
        assert [counts for *counts, _ in results] == [[2, 1]] * 4
        assert seen == []
        assert blas_count() == 2

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_map_restores_the_count_when_a_task_raises(self, monkeypatch, blas_count, threads):
        monkeypatch.setenv(THREADS_ENV, threads)

        def fail(v):
            raise KeyError(f"task {v}")

        with pytest.raises(KeyError):
            ordered_map(fail, range(4))
        assert blas_count() == 2


# Library calls that reach BLAS, written one value or digest a line to
# ``library.txt`` in the directory named by the first argument.  Each PD
# scan prints the thread count its split runs on.
LIBRARY_CALLS = """
import hashlib, pathlib, sys
import numpy as np
from rcec import (basis_to_composition, bootstrap_stability, clr_proxy_gap, estimate,
                  frobenius_loss, sample_case, spectral_loss, tuning)

split_work = tuning.split_work

def recording_split(plan, *args, **kwargs):
    def recorded(threads):
        print("pd_floor_scan threads", threads)
        return plan(threads)
    split_work(recorded, *args, **kwargs)

tuning.split_work = recording_split

def digest(value):
    data = value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()

fit = estimate(basis_to_composition(sample_case(2, 100, 400, 1)))
y = sample_case(2, 100, 200, 1)
fit200 = estimate(basis_to_composition(y))
boot = bootstrap_stability(basis_to_composition(y), replicates=4, reuse_lambda=True)
a, b = np.random.default_rng(1).standard_normal((2, 400, 400))
values = [fit.lambda_star, digest(fit.omega), digest(y), fit200.lambda_star, digest(fit200.omega),
          digest(boot), frobenius_loss(a, b), spectral_loss(a, b), clr_proxy_gap(a)]
out = pathlib.Path(sys.argv[1])
out.mkdir(parents=True)
(out / "library.txt").write_text("\\n".join(map(repr, values)))
"""

# The interpreter arguments of each gated run; OUT names its output directory.
GATE_COMMANDS = {
    "simulate": ["-m", "rcec", "simulate", "--case", "2", "--n", "100", "--p", "200", "--seed", "1",
                 "--out", "OUT/samples.csv"],
    "estimate": ["-m", "rcec", "estimate", "counts.csv", "--counts", "--out", "OUT"],
    "stability": ["-m", "rcec", "stability", "samples.csv", "-B", "4", "--retain", "2", "--reuse-lambda",
                  "--out", "OUT/stability.json"],
    "library": ["-c", LIBRARY_CALLS, "OUT"],
}


def test_output_bytes_do_not_depend_on_the_thread_counts(tmp_path):
    """``simulate`` at p = 200, ``estimate`` on a p = 400 counts table,
    ``stability --reuse-lambda`` at p = 200 and the library calls of
    ``LIBRARY_CALLS`` (``estimate`` at p = 400 and p = 200, ``sample_case``, a
    reuse-lambda ``bootstrap_stability`` and three losses) each write the same
    bytes under every pair of ``OPENBLAS_NUM_THREADS`` and ``RCEC_THREADS`` in
    {1, 2}.  The library's PD scans, at p = 400 and p = 200, split over
    ``RCEC_THREADS`` threads.

    On a 1-core host OpenBLAS runs one thread whatever
    ``OPENBLAS_NUM_THREADS`` says, so there this test cannot fail."""
    x = simgen.basis_to_composition(simgen.sample_case(2, 100, 400, seed=5)).values
    rng = np.random.default_rng(5)
    counts = rng.poisson(x * rng.uniform(15000, 35000, size=(100, 1)))
    header = ",".join(f"t{j}" for j in range(400))
    np.savetxt(tmp_path / "counts.csv", counts, fmt="%d", delimiter=",", header=header, comments="")
    simulate = ["simulate", "--case", "1", "--n", "100", "--p", "200", "--seed", "3"]
    assert main(simulate + ["--out", str(tmp_path / "samples.csv")]) == EXIT_OK
    differ = []
    for command, args in GATE_COMMANDS.items():
        outputs = {}
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / command / f"OPENBLAS_NUM_THREADS={blas},RCEC_THREADS={threads}"
                done = subprocess.run(
                    [sys.executable, *(arg.replace("OUT", str(out)) for arg in args)],
                    cwd=tmp_path,
                    env=cli_env({"OPENBLAS_NUM_THREADS": blas, "RCEC_THREADS": threads}),
                    capture_output=True,
                    timeout=120,
                )
                assert done.returncode == EXIT_OK, done.stderr
                if command == "library":
                    split = threads if parallel._openblas() is not None else "1"
                    # The p = 400 fit, the p = 200 fit and the stability baseline fit.
                    assert done.stdout.decode().split("\n")[:-1] == [f"pd_floor_scan threads {split}"] * 3
                outputs[out.name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        first = next(iter(outputs.values()))
        differ += [f"{command} under {name}" for name, got in outputs.items() if got != first]
    assert differ == []
