"""The benchmark's patch points name callables that the commands call.

``rcecbench/spans.py`` wraps rcec functions where their callers look them
up; a renamed or deleted name there would fail every traced workload, and a
name no longer called there would drop its layer from the traced split
without failing anything.  The module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "rcecbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_rcecbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
POINTS = [entry[:2] for entry in spans.PATCHES] + list(spans.MAP_PATCHES)


@pytest.mark.parametrize("module_name, attr", POINTS, ids=[".".join(p) for p in POINTS])
def test_patch_point_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is not a callable"


def _counting(point, original, calls):
    def counted(*args, **kwargs):
        calls[point] += 1
        return original(*args, **kwargs)

    return counted


def test_every_patch_point_is_called_by_the_commands(tmp_path, monkeypatch):
    # A refactor that stops calling a patch point leaves the traced split
    # without that layer; the four commands must reach every point.
    from rcec.cli import EXIT_OK, main

    calls = dict.fromkeys(POINTS, 0)
    for point in POINTS:
        module = importlib.import_module(point[0])
        monkeypatch.setattr(module, point[1], _counting(point, getattr(module, point[1]), calls))
    monkeypatch.setenv("RCEC_THREADS", "1")  # fan-outs run in this process

    samples = tmp_path / "samples.csv"
    counts = tmp_path / "counts.csv"
    table = np.random.default_rng(0).poisson(20.0, size=(40, 8))
    counts.write_text(
        ",".join(f"t{j}" for j in range(8)) + "\n"
        + "".join(",".join(map(str, row)) + "\n" for row in table)
    )
    commands = [
        ["simulate", "--case", "2", "--n", "40", "--p", "8", "--out", str(samples)],
        ["estimate", str(counts), "--counts", "--grid-size", "6", "--out", str(tmp_path / "fit")],
        [
            "stability", str(samples), "-B", "2", "--retain", "1", "--grid-size", "6",
            "--reuse-lambda", "--out", str(tmp_path / "stability.json"),
        ],
        [
            "benchmark", "--cases", "1", "--p", "4", "--n", "12", "--replications", "1",
            "--estimators", "rcec,coat", "--grid-size", "6", "--out", str(tmp_path / "bench"),
        ],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    assert len(calls) == 28
    assert [".".join(point) for point, n in calls.items() if n == 0] == []
