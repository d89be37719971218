"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_curve_writes_one_row_per_level(tmp_path, capsys):
    rate_curve = _load("rate_curve")
    out = tmp_path / "rate.csv"
    argv = ["--p", "8", "--levels", "20,80", "--replications", "2", "--out", str(out)]
    assert rate_curve.main(argv) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "n,median_max_norm_error,ratio_to_previous"
    assert [row.split(",")[0] for row in rows] == ["20", "80"]
    first, second = (row.split(",") for row in rows)
    assert first[2] == ""
    assert float(first[1]) > 0.0 and float(second[1]) > 0.0
    assert abs(float(second[2]) - float(second[1]) / float(first[1])) < 1e-3
    assert f"wrote {out}" in capsys.readouterr().out
