"""Tests for the deterministic process fan-out helpers."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from rcec import bench
from rcec.cli import EXIT_DATA, EXIT_NUMERIC, main
from rcec.parallel import THREADS_ENV, ordered_map, single_threaded_blas, worker_count


class TestWorkerCount:
    def test_defaults_to_cpu_count_clamped_by_tasks(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
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

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert worker_count(10) == 1


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


def test_single_threaded_blas_is_a_context_manager():
    with single_threaded_blas():
        pass
