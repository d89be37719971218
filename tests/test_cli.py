"""Tests for the command line interface.

Each command is exercised in process through ``main`` (fast, capturable)
plus one subprocess check that the installed module entry point works.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_env
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rcec import cli
from rcec.bench import TABLE_COLUMNS
from rcec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, UsageError, main, read_table


@pytest.fixture()
def samples_csv(tmp_path):
    path = tmp_path / "samples.csv"
    rc = main(
        ["simulate", "--case", "1", "--n", "40", "--p", "8", "--seed", "0", "--out", str(path)]
    )
    assert rc == EXIT_OK
    return path


def run_estimate(samples_csv, outdir, *extra):
    return main(
        ["estimate", str(samples_csv), "--out", str(outdir), "--grid-size", "12", *extra]
    )


class TestReadTable:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n0.2,0.3,0.5\n0.1,0.1,0.8\n")
        taxa, data = read_table(str(path))
        assert taxa == ["a", "b", "c"]
        np.testing.assert_allclose(data, [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])

    def test_reports_line_of_short_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n0.2,0.3,0.5\n0.1,0.9\n")
        with pytest.raises(UsageError, match=r"line 3: expected 3 fields, found 2"):
            read_table(str(path))

    def test_reports_line_and_column_of_bad_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0.5,0.5\n0.4,oops\n")
        with pytest.raises(UsageError, match=r"line 3, column 2: not a number"):
            read_table(str(path))

    @pytest.mark.parametrize(
        "text",
        ["a,b\n0.5,0.5\n0.4,0.6\n\n", "a,b\n0.5,0.5\n\n0.4,0.6\n", "\na,b\n0.5,0.5\n0.4,0.6\n"],
        ids=["trailing", "middle", "leading"],
    )
    def test_skips_blank_lines(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        taxa, data = read_table(str(path))
        assert taxa == ["a", "b"]
        np.testing.assert_array_equal(data, [[0.5, 0.5], [0.4, 0.6]])

    @pytest.mark.parametrize(
        "text",
        ["a,b\n0.5,0.5\n0.4,0.6\n   \n", "a,b\n0.5,0.5\n \t \n0.4,0.6\n", "  \na,b\n0.5,0.5\n0.4,0.6\n"],
        ids=["trailing", "middle", "leading"],
    )
    def test_skips_whitespace_only_lines(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        taxa, data = read_table(str(path))
        assert taxa == ["a", "b"]
        np.testing.assert_array_equal(data, [[0.5, 0.5], [0.4, 0.6]])

    def test_reports_physical_line_after_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n   \n0.5,0.5\n\t\n0.4,oops\n")
        with pytest.raises(UsageError, match=r"line 5, column 2: not a number"):
            read_table(str(path))
        path.write_text("a,b\n0.5,0.5\n  \n , \n")
        with pytest.raises(UsageError, match=r"line 4, column 1: not a number: ' '"):
            read_table(str(path))

    def test_reports_physical_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n\n0.5,0.5\n\n\n0.4,oops\n0.1\n")
        with pytest.raises(UsageError, match=r"line 6, column 2: not a number"):
            read_table(str(path))
        path.write_text("a,b\n\n0.5,0.5\n\n\n0.1\n")
        with pytest.raises(UsageError, match=r"line 6: expected 2 fields, found 1"):
            read_table(str(path))

    def test_needs_a_data_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(UsageError, match="at least one data row"):
            read_table(str(path))

    def test_needs_two_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1.0\n")
        with pytest.raises(UsageError, match="at least 2 columns"):
            read_table(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            read_table(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,0.5,0.5", "column 1: not a number: 'x'"),
            ("0.5,0.5,y", "column 3: not a number: 'y'"),
            ("0.5,x,y", "column 2: not a number: 'x'"),
        ],
    )
    def test_reports_first_bad_cell(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b,c\n0.2,0.3,0.5\n{row}\n")
        with pytest.raises(UsageError, match=f"line 3, {message}$"):
            read_table(str(path))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(2, 5).flatmap(
            lambda p: st.lists(
                st.lists(
                    st.one_of(
                        st.floats().map(repr),
                        st.integers(-(10**30), 10**30).map(str),
                        st.sampled_from(
                            [" 1.5 ", "\t-2\t", "1e999", "-1e999", "nan", "-inf", "1_000", "+.5"]
                        ),
                    ),
                    min_size=p,
                    max_size=p,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_cells_parse_as_float_does(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        header = ",".join(f"t{j}" for j in range(len(rows[0])))
        path.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")
        _, data = read_table(str(path))
        want = np.array([[float(cell) for cell in row] for row in rows])
        assert data.tobytes() == want.tobytes()

    def test_reads_utf8_whatever_the_locale(self, tmp_path):
        # In the C locale with UTF-8 mode and locale coercion off, Python's
        # default text encoding is ASCII.
        path = tmp_path / "t.csv"
        rows = np.random.default_rng(0).dirichlet(np.ones(4), size=12)
        text = "a\u00e9,b,c,d\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)
        path.write_bytes(text.encode("utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "rcec", "estimate", str(path), "--out", str(tmp_path / "out"),
             "--grid-size", "6"],
            capture_output=True,
            env=cli_env({"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        header = (tmp_path / "out" / "omega.csv").read_bytes().split(b"\n")[0]
        assert header == b",a\xc3\xa9,b,c,d"

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # Nor of a config file's first key.
        path = tmp_path / "t.csv"
        rows = np.random.default_rng(0).dirichlet(np.ones(4), size=12)
        text = "a,b,c,d\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfa,")
        taxa, data = read_table(str(path))
        assert taxa == ["a", "b", "c", "d"]
        assert data.tobytes() == rows.tobytes()
        cfg = tmp_path / "rcec.conf"
        cfg.write_text("grid_size = 6\n", encoding="utf-8-sig")
        out = tmp_path / "out"
        assert main(["estimate", str(path), "--out", str(out), "--config", str(cfg)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["grid_size"] == 6
        assert (out / "omega.csv").read_bytes().startswith(b",a,b,c,d\na,")
        for name in ("omega.csv", "edges.json", "report.json"):
            assert "\ufeff".encode() not in (out / name).read_bytes()

    @pytest.mark.parametrize("header", ["a,a,b", "a,b, a", "b,a,c,a"])
    def test_repeated_taxon_name_is_a_usage_error(self, tmp_path, capsys, header):
        path = tmp_path / "t.csv"
        rows = np.random.default_rng(0).dirichlet(np.ones(header.count(",") + 1), size=12)
        path.write_text(header + "\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
        with pytest.raises(UsageError, match=re.escape(f"{path}: taxon name 'a' appears more than once")):
            read_table(str(path))
        out = tmp_path / "out"
        assert main(["estimate", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: taxon name 'a' appears more than once\n"
        assert not out.exists()

    def test_undecodable_input_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_bytes("a\u00e9,b\n0.5,0.5\n0.4,0.6\n".encode("latin-1"))
        rc = main(["estimate", str(path)])
        assert rc == EXIT_USAGE
        assert f"error: cannot read {path}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_malformed_input_exits_with_usage_code(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0.5,oops\n0.5,0.5\n")
        rc = main(["estimate", str(path)])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def _csv_writer_text(header, rows) -> str:
    # The writers' former formulation, kept as their reference: every row,
    # numeric fields included, through csv.writer.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
    -sys.float_info.max, np.inf, -np.inf, np.nan, 1.0, -0.1,
]
_entries = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_names = st.one_of(
    st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "\u00e9", "\u4e2d"]), max_size=5),
    st.text(max_size=4),
)
# Every edge value in every row, and a name that needs each kind of care.
_EDGE_NAMES = ["", " a ", "b,c", 'd"e', "f\ng", "h\ri", "\u00e9"]
_EDGE_ROWS = [np.roll(_EDGE_FLOATS, k)[: len(_EDGE_NAMES)].tolist() for k in range(len(_EDGE_NAMES))]


class TestMatrixWriters:
    @given(
        st.integers(1, 6).flatmap(
            lambda p: st.tuples(
                st.lists(_names, min_size=p, max_size=p),
                st.lists(st.lists(_entries, min_size=p, max_size=p), min_size=p, max_size=p),
            )
        )
    )
    @example((_EDGE_NAMES, _EDGE_ROWS))
    def test_matrix_csv_matches_csv_writer(self, case):
        taxa, rows = case
        matrix = np.array(rows, dtype=float)
        want = _csv_writer_text(
            ["", *taxa], ([name, *map(repr, row.tolist())] for name, row in zip(taxa, matrix))
        )
        assert cli.write_matrix_csv(taxa, matrix) == want

    @given(
        st.integers(1, 6).flatmap(
            lambda p: st.tuples(
                st.lists(_names, min_size=p, max_size=p),
                st.lists(st.lists(_entries, min_size=p, max_size=p), min_size=1, max_size=5),
            )
        )
    )
    @example((_EDGE_NAMES, _EDGE_ROWS))
    def test_samples_csv_matches_csv_writer(self, case):
        taxa, rows = case
        matrix = np.array(rows, dtype=float)
        want = _csv_writer_text(taxa, (map(repr, row.tolist()) for row in matrix))
        assert cli.write_samples_csv(taxa, matrix) == want


class TestEstimateCommand:
    def test_writes_artifacts(self, samples_csv, tmp_path):
        outdir = tmp_path / "fit"
        assert run_estimate(samples_csv, outdir) == EXIT_OK

        header = (outdir / "omega.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "" and header[1] == "taxon_1"
        report = json.loads((outdir / "report.json").read_text())
        assert report["command"] == "estimate"
        assert report["n"] == 40 and report["p"] == 8
        assert report["config"]["estimator"] == "rcec"
        assert report["config"]["rule"] == "soft"
        assert report["config"]["grid_size"] == 12
        assert isinstance(report["block_count"], int)
        assert report["lambda_star"] >= 0.0
        assert isinstance(report["min_eigenvalue"], float)
        assert isinstance(report["warnings"], list)
        curve = np.asarray(report["cv_curve"], dtype=float)
        assert curve.ndim == 2 and curve.shape[1] == 2
        assert report["lambda_star"] in curve[:, 0]

        edges = json.loads((outdir / "edges.json").read_text())
        assert set(edges) == {"edges", "positives", "negatives"}
        assert edges["positives"] + edges["negatives"] == len(edges["edges"])
        assert report["edge_count"] == len(edges["edges"])
        for entry in edges["edges"]:
            assert set(entry) == {"i", "j", "taxon_i", "taxon_j", "sign", "weight", "correlation"}
            assert entry["i"] < entry["j"]
            assert entry["taxon_i"] == f"taxon_{entry['i'] + 1}"
            assert entry["sign"] in (-1, 1)

    def test_matrix_csv_is_symmetric(self, samples_csv, tmp_path):
        outdir = tmp_path / "fit"
        assert run_estimate(samples_csv, outdir) == EXIT_OK
        lines = (outdir / "omega.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[1:] == [f"taxon_{j + 1}" for j in range(8)]
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert matrix.shape == (8, 8)
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_rerun_is_byte_identical(self, samples_csv, tmp_path):
        first = tmp_path / "fit1"
        second = tmp_path / "fit2"
        assert run_estimate(samples_csv, first) == EXIT_OK
        assert run_estimate(samples_csv, second) == EXIT_OK
        for name in ("omega.csv", "edges.json", "report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_counts_input(self, tmp_path):
        path = tmp_path / "counts.csv"
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=(12, 5))
        counts[0, 0] = 0  # force the zero-replacement path
        lines = ["a,b,c,d,e"] + [",".join(str(v) for v in row) for row in counts]
        path.write_text("\n".join(lines) + "\n")

        outdir = tmp_path / "fit"
        rc = main(
            [
                "estimate", str(path), "--counts", "--out", str(outdir),
                "--grid-size", "8", "--folds", "2",
            ]
        )
        assert rc == EXIT_OK
        assert (outdir / "omega.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_zero_replacement_is_a_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "counts.csv"
        path.write_text("a,b\n5,3\n1,0\n2,2\n1,3\n")
        rc = main(["estimate", str(path), "--counts", "--zero-replacement", value])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: --zero-replacement must be positive and finite, got {float(value)!r}\n"

    def test_counts_without_flag_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("a,b\n5,3\n1,2\n2,2\n1,3\n")
        rc = main(["estimate", str(path), "--folds", "2"])
        assert rc == EXIT_DATA
        assert "data error:" in capsys.readouterr().err

    def test_zero_proportion_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n0.0,0.5,0.5\n0.2,0.3,0.5\n0.2,0.3,0.5\n0.2,0.3,0.5\n")
        rc = main(["estimate", str(path), "--folds", "2"])
        assert rc == EXIT_DATA
        assert "strictly positive" in capsys.readouterr().err

    def test_row_sum_error_prints_a_plain_float(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n" + "0.2,0.5,0.5\n" * 6)
        assert main(["estimate", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.endswith("; row 0 sums to 1.2\n")
        assert "np.float64" not in err

    def test_too_few_samples_is_a_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n" + "0.2,0.3,0.5\n" * 4)
        assert main(["estimate", str(path)]) == EXIT_DATA

    def test_coat_reports_single_block(self, samples_csv, tmp_path):
        outdir = tmp_path / "fit"
        assert run_estimate(samples_csv, outdir, "--estimator", "coat") == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["estimator"] == "coat"
        assert report["block_count"] == 1

    def test_rule_and_pd_flags_reach_the_config(self, samples_csv, tmp_path):
        outdir = tmp_path / "fit"
        rc = run_estimate(
            samples_csv, outdir, "--rule", "scad:3.7", "--no-pd", "--threshold-diagonal"
        )
        assert rc == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["rule"] == "scad:3.7"
        assert report["config"]["enforce_pd"] is False
        assert report["config"]["threshold_diagonal"] is True

    def test_bad_rule_is_a_usage_error(self, samples_csv, tmp_path, capsys):
        rc = run_estimate(samples_csv, tmp_path / "fit", "--rule", "hard")
        assert rc == EXIT_USAGE
        assert "bad configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_scad_knee_is_a_usage_error(self, samples_csv, tmp_path, capsys, source):
        out = tmp_path / "fit"
        if source == "flag":
            extra = ["--rule", "scad:inf"]
        else:
            cfg = tmp_path / "rcec.conf"
            cfg.write_text("rule = scad:inf\n")
            extra = ["--config", str(cfg)]
        assert run_estimate(samples_csv, out, *extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: bad configuration: ")
        assert "bad threshold rule 'scad:inf': scad parameter a must be > 2 and finite" in err
        assert not out.exists()

    def test_infinite_alasso_exponent_runs(self, samples_csv, tmp_path):
        outdir = tmp_path / "fit"
        assert run_estimate(samples_csv, outdir, "--rule", "alasso:inf") == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["rule"] == "alasso:inf"

    def test_config_file_and_flag_precedence(self, samples_csv, tmp_path):
        cfg = tmp_path / "rcec.conf"
        cfg.write_text("# tuned settings\ngrid_size = 10\nseed = 3\nfolds = 4\n")
        outdir = tmp_path / "fit"
        rc = main(
            [
                "estimate", str(samples_csv), "--out", str(outdir),
                "--config", str(cfg), "--grid-size", "15",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["grid_size"] == 15  # flag wins
        assert report["config"]["seed"] == 3
        assert report["config"]["folds"] == 4

        # An absent boolean flag leaves the file's value alone.
        cfg.write_text("enforce_pd = false\nthreshold_diagonal = true\n")
        assert run_estimate(samples_csv, outdir, "--config", str(cfg)) == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["enforce_pd"] is False
        assert report["config"]["threshold_diagonal"] is True

        cfg.write_text("enforce_pd = true\n")
        assert run_estimate(samples_csv, outdir, "--config", str(cfg), "--no-pd") == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["enforce_pd"] is False

    @pytest.mark.parametrize("command", ["estimate", "stability"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_bad_L_is_a_usage_error(self, samples_csv, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        rc = main([command, str(samples_csv), "--out", str(out), "--L", value])
        assert rc == EXIT_USAGE
        assert "bad configuration: L must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_is_a_usage_error(self, samples_csv, tmp_path, capsys):
        cfg = tmp_path / "rcec.conf"
        cfg.write_text("grid_size: 10\n")
        rc = main(["estimate", str(samples_csv), "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "bad configuration" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_table_and_metadata(self, tmp_path):
        out = tmp_path / "sim" / "samples.csv"
        rc = main(
            ["simulate", "--case", "2", "--n", "12", "--p", "6", "--seed", "7", "--out", str(out)]
        )
        assert rc == EXIT_OK
        taxa, data = read_table(str(out))
        assert taxa == [f"taxon_{j + 1}" for j in range(6)]
        assert data.shape == (12, 6)
        assert np.all(data > 0)
        np.testing.assert_allclose(data.sum(axis=1), 1.0, atol=1e-12)

        meta = json.loads((out.parent / "samples.csv.meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["case"] == 2
        assert meta["kind"] == "student_t"
        assert meta["n"] == 12 and meta["p"] == 6 and meta["seed"] == 7
        assert meta["data"] == "samples.csv"

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--case", "3", "--n", "10", "--p", "6", "--seed", "1"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
        meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert {k: v for k, v in meta_a.items() if k != "data"} == {
            k: v for k, v in meta_b.items() if k != "data"
        }

    def test_unknown_case_is_rejected_by_the_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--case", "5", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert "--case" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--p", "15"], "p must be an even integer >= 4, got 15"),
            (["--p", "2"], "p must be an even integer >= 4, got 2"),
            (["--n", "1"], "composition matrix needs at least 2 samples, got n=1"),
        ],
        ids=["odd-p", "small-p", "one-sample"],
    )
    def test_bad_size_is_a_usage_error(self, tmp_path, capsys, extra, message):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--case", "1", "--out", str(out)] + extra) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # As for estimate, stability and benchmark.
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--case", "1", "--seed", "-1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()


class TestBenchmarkCommand:
    ARGS = [
        "benchmark", "--cases", "1", "--p", "8", "--n", "40", "--replications", "2",
        "--estimators", "rcec,coat", "--grid-size", "12",
    ]

    def test_writes_tables(self, tmp_path):
        outdir = tmp_path / "bench"
        assert main(self.ARGS + ["--out", str(outdir)]) == EXIT_OK
        csv_lines = (outdir / "results.csv").read_text().splitlines()
        assert csv_lines[0] == ",".join(TABLE_COLUMNS)
        assert len(csv_lines) == 1 + 2 * 5  # two arms, five metrics
        md_lines = (outdir / "results.md").read_text().splitlines()
        assert md_lines[0].startswith("| case |")
        losses = (outdir / "losses.csv").read_text().splitlines()
        assert losses[0] == "case,p,estimator,metric,replication,value"
        assert len(losses) == 1 + 2 * 2 * 5  # arms x replications x metrics

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "b1"
        second = tmp_path / "b2"
        assert main(self.ARGS + ["--out", str(first)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(second)]) == EXIT_OK
        for name in ("results.csv", "results.md", "losses.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_thread_cap_does_not_change_tables(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        monkeypatch.setenv("RCEC_THREADS", "1")
        assert main(self.ARGS + ["--out", str(serial)]) == EXIT_OK
        monkeypatch.setenv("RCEC_THREADS", "4")
        assert main(self.ARGS + ["--out", str(threaded)]) == EXIT_OK
        for name in ("results.csv", "results.md", "losses.csv"):
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    def test_usage_errors(self, tmp_path, capsys):
        out = ["--out", str(tmp_path / "b")]
        assert main(["benchmark", "--cases", "9"] + out) == EXIT_USAGE
        assert main(["benchmark", "--cases", "one"] + out) == EXIT_USAGE
        assert main(["benchmark", "--cases", ""] + out) == EXIT_USAGE
        assert main(["benchmark", "--estimators", "ridge"] + out) == EXIT_USAGE
        assert main(["benchmark", "--cases", "1", "--replications", "0"] + out) == EXIT_USAGE
        capsys.readouterr()
        args = ["benchmark", "--p", "15", "--cases", "1", "--replications", "1"]
        assert main(args + out) == EXIT_USAGE
        assert capsys.readouterr().err == "error: p must be an even integer >= 4, got 15\n"
        # Every arm cross-validates, so n below 2 * folds fails before any fit.
        args = ["benchmark", "--n", "6", "--p", "4", "--cases", "1", "--replications", "1"]
        assert main(args + out) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need --n >= 2 * folds = 10, got 6\n"
        assert main(args + ["--folds", "4"] + out) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need --n >= 2 * folds = 8, got 6\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--cases", "1,1"], "each case may be listed once, got (1, 1)"),
            (["--p", "10,10"], "each dimension may be listed once, got (10, 10)"),
            (["--estimators", "coat,coat"], "each estimator may be listed once, got ('coat', 'coat')"),
        ],
        ids=["cases", "p", "estimators"],
    )
    def test_repeated_entries_are_usage_errors(self, tmp_path, capsys, extra, message):
        # A repeated entry used to run its cells twice and double the replication count.
        args = ["benchmark", "--cases", "1", "--p", "10", "--n", "20", "--replications", "2"]
        out = tmp_path / "b"
        assert main(args + ["--estimators", "coat"] + extra + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_estimator_flag_is_rejected(self, tmp_path, capsys):
        # The arms come from --estimators; --estimator is neither a flag of
        # benchmark nor an abbreviation of --estimators.
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--estimator", "coat", "--out", str(tmp_path / "b")])
        assert excinfo.value.code == EXIT_USAGE
        assert "unrecognized arguments: --estimator coat" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("estimator", ["coat", "rcec"])
    def test_config_file_estimator_is_rejected(self, tmp_path, capsys, estimator):
        # A config file cannot pick the arms either, not even the default.
        cfg = tmp_path / "c.kv"
        cfg.write_text(f"grid_size = 6\nestimator = {estimator}\n")
        capsys.readouterr()
        assert main(self.ARGS + ["--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: bad configuration: {cfg} sets 'estimator'; "
            "benchmark takes it from --estimators\n"
        )
        assert not (tmp_path / "b").exists()
        # The same file without the key runs.
        cfg.write_text("grid_size = 6\n")
        assert main(self.ARGS + ["--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK


class TestStabilityCommand:
    def run(self, samples_csv, out, *extra):
        return main(
            [
                "stability", str(samples_csv), "--out", str(out),
                "--bootstrap", "4", "--retain", "2", "--grid-size", "12", *extra,
            ]
        )

    def test_writes_report(self, samples_csv, tmp_path):
        out = tmp_path / "stab" / "stability.json"
        assert self.run(samples_csv, out) == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "edges", "stability", "positives", "negatives",
            "sign_agreement", "baseline_edges", "metadata",
        }
        assert 0.0 <= payload["stability"] <= 1.0
        assert 0.0 <= payload["sign_agreement"] <= 1.0
        baseline_pairs = {(e["i"], e["j"]) for e in payload["baseline_edges"]}
        stable_pairs = {(e["i"], e["j"]) for e in payload["edges"]}
        assert stable_pairs <= baseline_pairs
        for entry in payload["edges"] + payload["baseline_edges"]:
            assert entry["taxon_i"] == f"taxon_{entry['i'] + 1}"
            assert 0 <= entry["occurrences"] <= 4
        for entry in payload["edges"]:
            assert entry["occurrences"] >= 2
        meta = payload["metadata"]
        assert meta["bootstrap_replicates"] == 4
        assert meta["retain_threshold"] == 2
        assert meta["reuse_lambda"] is False
        assert meta["n"] == 40 and meta["p"] == 8
        assert meta["config"]["grid_size"] == 12

    def test_rerun_is_byte_identical(self, samples_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert self.run(samples_csv, a) == EXIT_OK
        assert self.run(samples_csv, b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reuse_lambda_flag(self, samples_csv, tmp_path):
        out = tmp_path / "s.json"
        assert self.run(samples_csv, out, "--reuse-lambda") == EXIT_OK
        assert json.loads(out.read_text())["metadata"]["reuse_lambda"] is True

    def test_stderr_does_not_depend_on_the_worker_count(self, tmp_path):
        # All-equal rows have zero clr variance, so every replicate floors
        # its diagonal; the floor is a note of the fit, never a line per worker.
        (tmp_path / "equal.csv").write_text("a,b,c,d\n" + "0.1,0.2,0.3,0.4\n" * 12)
        argv = [
            sys.executable, "-m", "rcec", "stability", "equal.csv", "-B", "4",
            "--retain", "1", "--grid-size", "5", "--reuse-lambda", "--out", "s.json",
        ]
        runs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                argv,
                cwd=tmp_path,
                env=cli_env({"RCEC_THREADS": threads}),
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            runs.append((proc.stderr, (tmp_path / "s.json").read_bytes()))
        assert runs[0] == runs[1]

    def test_parameter_validation(self, samples_csv, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        rc = main(["stability", str(samples_csv), "--bootstrap", "0", "--out", out])
        assert rc == EXIT_USAGE
        rc = main(["stability", str(samples_csv), "--retain", "-1", "--out", out])
        assert rc == EXIT_USAGE
        capsys.readouterr()


class TestExitCodes:
    def test_numerical_failure_maps_to_exit_4(self, monkeypatch, capsys):
        def explode(args):
            raise np.linalg.LinAlgError("eigendecomposition failed")

        monkeypatch.setattr(cli, "cmd_estimate", explode)
        rc = main(["estimate", "whatever.csv"])
        assert rc == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err

    def test_data_invariant_maps_to_exit_3(self, monkeypatch, capsys):
        def reject(args):
            raise ValueError("composition rows must sum to 1")

        monkeypatch.setattr(cli, "cmd_estimate", reject)
        assert main(["estimate", "whatever.csv"]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    # Each command's --out below a path that is a regular file; the second
    # item is the first file the command writes.
    UNWRITABLE = {
        "estimate": (
            ["estimate", "{samples}", "--grid-size", "6", "--out", "{blocker}"],
            "omega.csv",
        ),
        "simulate": (
            ["simulate", "--case", "1", "--n", "8", "--p", "4", "--out", "{blocker}/x.csv"],
            "x.csv",
        ),
        "benchmark": (
            [
                "benchmark", "--cases", "1", "--p", "4", "--n", "10", "--replications", "1",
                "--estimators", "coat", "--grid-size", "6", "--out", "{blocker}",
            ],
            "results.csv",
        ),
        "stability": (
            ["stability", "{samples}", "-B", "1", "--grid-size", "6", "--out", "{blocker}/x.json"],
            "x.json",
        ),
    }

    @pytest.mark.parametrize("command", sorted(UNWRITABLE))
    def test_unwritable_output_is_a_usage_error(self, samples_csv, tmp_path, capsys, command):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        template, first_file = self.UNWRITABLE[command]
        argv = [arg.format(samples=samples_csv, blocker=blocker) for arg in template]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker / first_file}: "), err
        assert err.count("\n") == 1
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "value, message",
        [("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"), ("x", "must be an integer, got 'x'")],
    )
    @pytest.mark.parametrize("command", ["estimate", "simulate", "benchmark", "stability"])
    def test_bad_thread_cap_is_a_usage_error_before_any_fit(
        self, samples_csv, tmp_path, capsys, monkeypatch, command, value, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("the command ran a fit")

        monkeypatch.setattr(cli, "estimate", no_fit)
        monkeypatch.setattr(cli, "sample_case", no_fit)
        monkeypatch.setattr(cli, "run_benchmark", no_fit)
        monkeypatch.setattr(cli, "bootstrap_stability", no_fit)
        monkeypatch.setenv("RCEC_THREADS", value)
        out = tmp_path / "out"
        argv = [arg.format(samples=samples_csv, blocker=out) for arg in self.UNWRITABLE[command][0]]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: RCEC_THREADS {message}\n"
        assert not out.exists()

    # Each command's --out, a file of its output set that is a directory
    # (the command writes other files before that one), and flags that
    # change the bytes of every file.
    LATE_BLOCKER = {
        "estimate": (UNWRITABLE["estimate"][0], "report.json", ["--estimator", "coat"]),
        "simulate": (UNWRITABLE["simulate"][0], "x.csv.meta.json", ["--seed", "1"]),
        "benchmark": (UNWRITABLE["benchmark"][0], "losses.csv", ["--seed", "1"]),
    }

    @pytest.mark.parametrize("command", sorted(LATE_BLOCKER))
    def test_failed_write_leaves_no_output_file(self, samples_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        template, blocked, _ = self.LATE_BLOCKER[command]
        (out / blocked).mkdir(parents=True)
        argv = [arg.format(samples=samples_csv, blocker=out) for arg in template]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / blocked}: "), err
        # Neither the files written before the failure nor their temporaries remain.
        assert sorted(p.name for p in out.iterdir()) == [blocked]

    @pytest.mark.parametrize("command", sorted(LATE_BLOCKER))
    def test_failed_write_keeps_earlier_outputs(self, samples_csv, tmp_path, command):
        out = tmp_path / "out"
        template, blocked, other = self.LATE_BLOCKER[command]
        argv = [arg.format(samples=samples_csv, blocker=out) for arg in template]
        assert main(argv) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / blocked).unlink()
        (out / blocked).mkdir()
        assert main(argv + other) == EXIT_USAGE
        del before[blocked]
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != blocked}
        assert after == before


def _composition(rng, n, p):
    x = rng.random((n, p)) + 0.1
    return x / x.sum(axis=1, keepdims=True)


def _duplicated_column(rng):
    x = _composition(rng, 20, 5)
    x = np.column_stack([x, x[:, 0]])
    return x / x.sum(axis=1, keepdims=True)


def _mom_breakdown(rng):
    # 25 of 40 rows carry one part multiplied by e^30, so most of the
    # contiguous median-of-means blocks are contaminated.
    x = rng.random((40, 6)) + 0.1
    x[:25, 0] *= np.exp(30)
    return x / x.sum(axis=1, keepdims=True)


def _zero_count_row(rng):
    counts = rng.integers(1, 20, size=(12, 4))
    counts[3] = 0
    return counts


class TestEdgeInputs:
    # Each input table through ``rcec estimate`` at the default config
    # (5 folds): (table, extra flags, exit code, data error or None).
    CASES = {
        "p2-minimum-n": (lambda rng: _composition(rng, 10, 2), [], EXIT_OK, None),
        "duplicated-column": (_duplicated_column, [], EXIT_OK, None),
        # The fit succeeds without a note when the MOM estimate breaks down.
        "mom-breakdown": (_mom_breakdown, [], EXIT_OK, None),
        "n-below-2-folds": (
            lambda rng: _composition(rng, 9, 4), [], EXIT_DATA,
            "need n >= 2 * folds = 10, got n = 9",
        ),
        "all-zero-count-row": (
            _zero_count_row, ["--counts"], EXIT_DATA, "count matrix contains a row of all zeros",
        ),
        "one-data-row": (
            lambda rng: _composition(rng, 1, 3), [], EXIT_DATA,
            "composition matrix needs at least 2 samples, got n=1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_estimate_exit_code(self, tmp_path, capsys, name):
        make, extra, code, error = self.CASES[name]
        rows = make(np.random.default_rng(0))
        path = tmp_path / "t.csv"
        header = ",".join(f"t{j}" for j in range(rows.shape[1]))
        path.write_text(header + "\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
        out = tmp_path / "fit"
        capsys.readouterr()
        assert main(["estimate", str(path), "--out", str(out), *extra]) == code
        if error is not None:
            assert capsys.readouterr().err == f"data error: {error}\n"
            assert not out.exists()
            return
        report = json.loads((out / "report.json").read_text())
        assert report["min_eigenvalue"] > 0
        assert report["warnings"] == []


class TestCommandsReturnTheirFiles:
    # Each command's argv and the names of its files, in the order written.
    COMMANDS = {
        "simulate": (
            ["simulate", "--case", "2", "--n", "12", "--p", "4", "--out", "{out}/s.csv"],
            ["s.csv", "s.csv.meta.json"],
        ),
        "estimate": (
            ["estimate", "{samples}", "--grid-size", "6", "--out", "{out}"],
            ["omega.csv", "edges.json", "report.json"],
        ),
        "stability": (
            ["stability", "{samples}", "-B", "2", "--retain", "1", "--grid-size", "6",
             "--out", "{out}/st.json"],
            ["st.json"],
        ),
        "benchmark": (
            [
                "benchmark", "--cases", "1", "--p", "4", "--n", "10", "--replications", "1",
                "--estimators", "coat", "--grid-size", "6", "--out", "{out}",
            ],
            ["results.csv", "results.md", "losses.csv"],
        ),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_returns_files_that_main_writes(self, samples_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        template, names = self.COMMANDS[command]
        argv = [arg.format(samples=samples_csv, out=out) for arg in template]
        files = getattr(cli, f"cmd_{command}")(cli.build_parser().parse_args(argv))
        assert not out.exists()
        assert list(files) == [out / name for name in names]
        assert all(isinstance(text, str) for text in files.values())
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {', '.join(map(str, files))}\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert {path: path.read_text() for path in files} == files


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out = tmp_path / "samples.csv"
    # The child imports the rcec the tests imported, installed or from a checkout.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [
            sys.executable, "-m", "rcec", "simulate",
            "--case", "1", "--n", "8", "--p", "4", "--seed", "0", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert str(out) in proc.stdout
