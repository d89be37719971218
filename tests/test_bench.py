"""Tests for the replicated benchmark runner and its tables."""

import dataclasses
import json

import numpy as np
import pytest

from rcec import CASES, BenchmarkSpec, EstimatorConfig, run_benchmark, summarize
from rcec.bench import (
    METRICS,
    TABLE_COLUMNS,
    ReplicationRecord,
    _cell_seeds,
    records_to_csv,
    rows_to_csv,
    rows_to_markdown,
)

SMOKE = BenchmarkSpec(
    cases=(1,),
    p_values=(8,),
    n=40,
    replications=2,
    estimators=("rcec", "coat", "oracle"),
    seed=0,
)
FAST = EstimatorConfig(grid_size=12)


class TestBenchmarkSpec:
    def test_defaults(self):
        spec = BenchmarkSpec()
        assert spec.cases == (1, 2, 3, 4)
        assert spec.p_values == (50, 100, 200)
        assert spec.n == 100
        assert spec.replications == 100
        assert spec.estimators == ("rcec", "coat")
        assert spec.seed == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="case"):
            BenchmarkSpec(cases=(1, 9))
        with pytest.raises(ValueError, match="case"):
            BenchmarkSpec(cases=())
        with pytest.raises(ValueError, match="dimension"):
            BenchmarkSpec(p_values=())
        with pytest.raises(ValueError, match="n must be"):
            BenchmarkSpec(n=3)
        with pytest.raises(ValueError, match="replications"):
            BenchmarkSpec(replications=0)
        with pytest.raises(ValueError, match="estimator"):
            BenchmarkSpec(estimators=("ledoit",))
        with pytest.raises(ValueError, match="estimator"):
            BenchmarkSpec(estimators=())
        with pytest.raises(ValueError, match="seed"):
            BenchmarkSpec(seed=-1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cases": (1, 1)}, "each case may be listed once, got (1, 1)"),
            ({"p_values": (10, 10)}, "each dimension may be listed once, got (10, 10)"),
            ({"estimators": ("coat", "coat")}, "each estimator may be listed once"),
            ({"cases": (2.5,)}, "unknown simulation case 2.5"),
            ({"cases": (True,)}, "unknown simulation case True"),
            ({"cases": (CASES[1],)}, "case must be an integer, got SimulationCase"),
            ({"p_values": (5,)}, "p must be an even integer >= 4, got 5"),
            ({"p_values": (4.0,)}, "p must be an even integer >= 4, got 4.0"),
        ],
        ids=[
            "repeated-case", "repeated-p", "repeated-arm", "fractional-case", "bool-case",
            "case-object", "odd-p", "float-p",
        ],
    )
    def test_rejects_each_entry_when_built(self, fields, message):
        # Each of these used to pass the spec and fail (or double-count) in the cells.
        with pytest.raises(ValueError) as excinfo:
            BenchmarkSpec(**fields)
        assert str(excinfo.value).startswith(message)

    def test_stores_python_ints_and_tuples(self):
        spec = BenchmarkSpec(
            cases=[np.int64(2), 1],
            p_values=[np.int32(8)],
            n=np.int64(40),
            replications=np.uint8(2),
            estimators=["coat"],
            seed=np.int64(7),
        )
        assert spec == BenchmarkSpec(
            cases=(2, 1), p_values=(8,), n=40, replications=2, estimators=("coat",), seed=7
        )
        for value in (*spec.cases, *spec.p_values, spec.n, spec.replications, spec.seed):
            assert type(value) is int
        assert type(spec.cases) is type(spec.p_values) is type(spec.estimators) is tuple
        assert json.loads(json.dumps(dataclasses.asdict(spec)))["cases"] == [2, 1]


class TestCellSeeds:
    def test_deterministic(self):
        assert _cell_seeds(0, 1, 50, 3) == _cell_seeds(0, 1, 50, 3)

    def test_distinct_across_cells(self):
        seeds = {
            _cell_seeds(0, 1, 50, 0),
            _cell_seeds(0, 1, 50, 1),
            _cell_seeds(0, 2, 50, 0),
            _cell_seeds(0, 1, 100, 0),
            _cell_seeds(7, 1, 50, 0),
        }
        assert len(seeds) == 5

    def test_data_and_fold_streams_differ(self):
        data_seed, fold_seed = _cell_seeds(0, 1, 50, 0)
        assert data_seed != fold_seed


class TestRunBenchmark:
    def test_record_layout(self):
        records = run_benchmark(SMOKE, FAST)
        assert len(records) == 2 * 3
        # Cells iterate replications outermost, estimators within a cell.
        expected = [(rep, arm) for rep in range(2) for arm in SMOKE.estimators]
        assert [(r.replication, r.estimator) for r in records] == expected
        for record in records:
            assert record.case == 1
            assert record.p == 8
            assert set(record.values) == set(METRICS)
            for metric in ("matrix_l1", "spectral", "frobenius"):
                assert np.isfinite(record.values[metric])
                assert record.values[metric] >= 0.0
            assert 0.0 <= record.values["tpr"] <= 1.0
            assert 0.0 <= record.values["fpr"] <= 1.0

    def test_reruns_are_identical(self):
        assert run_benchmark(SMOKE, FAST) == run_benchmark(SMOKE, FAST)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("RCEC_THREADS", "1")
        serial = run_benchmark(SMOKE, FAST)
        monkeypatch.setenv("RCEC_THREADS", "3")
        threaded = run_benchmark(SMOKE, FAST)
        rows_a = summarize(serial, SMOKE)
        rows_b = summarize(threaded, SMOKE)
        assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
        assert serial == threaded


class TestSummarize:
    def test_hand_aggregation(self):
        spec = BenchmarkSpec(
            cases=(1,), p_values=(8,), n=40, replications=2, estimators=("rcec",), seed=5
        )
        values_a = {"matrix_l1": 1.0, "spectral": 0.5, "frobenius": 2.0, "tpr": 1.0, "fpr": 0.0}
        values_b = {"matrix_l1": 3.0, "spectral": 1.5, "frobenius": 4.0, "tpr": 0.5, "fpr": 0.25}
        records = [
            ReplicationRecord(case=1, p=8, estimator="rcec", replication=0, values=values_a),
            ReplicationRecord(case=1, p=8, estimator="rcec", replication=1, values=values_b),
        ]
        rows = summarize(records, spec)
        assert len(rows) == len(METRICS)
        assert [row["metric"] for row in rows] == list(METRICS)
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["matrix_l1"]["mean"] == 2.0
        assert by_metric["matrix_l1"]["sd"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert by_metric["tpr"]["mean"] == 0.75
        for row in rows:
            assert row["case"] == 1 and row["p"] == 8 and row["estimator"] == "rcec"
            assert row["replications"] == 2
            assert row["seed"] == 5

    def test_single_replication_has_zero_sd(self):
        spec = BenchmarkSpec(
            cases=(1,), p_values=(8,), n=40, replications=1, estimators=("rcec",), seed=0
        )
        values = {m: 1.0 for m in METRICS}
        rows = summarize(
            [ReplicationRecord(case=1, p=8, estimator="rcec", replication=0, values=values)],
            spec,
        )
        assert all(row["sd"] == 0.0 for row in rows)

    def test_row_order_follows_spec(self):
        records = run_benchmark(SMOKE, FAST)
        rows = summarize(records, SMOKE)
        assert len(rows) == 3 * len(METRICS)
        assert [row["estimator"] for row in rows[:: len(METRICS)]] == list(SMOKE.estimators)


class TestTables:
    def rows(self):
        return [
            {
                "case": 1,
                "p": 50,
                "estimator": "rcec",
                "metric": "spectral",
                "mean": 1.2345678,
                "sd": 0.25,
                "replications": 2,
                "seed": 0,
            }
        ]

    def test_csv_layout(self):
        text = rows_to_csv(self.rows())
        lines = text.splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert lines[1] == "1,50,rcec,spectral,1.23457,0.25,2,0"
        assert text.endswith("\n")

    def test_markdown_layout(self):
        text = rows_to_markdown(self.rows())
        lines = text.splitlines()
        assert lines[0].startswith("| case | p | estimator")
        assert set(lines[1]) <= {"|", "-", " "}
        assert len(lines) == 3

    def test_records_csv_long_form(self):
        values = {"matrix_l1": 1.0, "spectral": 0.5, "frobenius": 2.0, "tpr": 1.0, "fpr": 0.0}
        record = ReplicationRecord(case=2, p=8, estimator="coat", replication=3, values=values)
        text = records_to_csv([record])
        lines = text.splitlines()
        assert lines[0] == "case,p,estimator,metric,replication,value"
        assert len(lines) == 1 + len(METRICS)
        assert lines[1] == "2,8,coat,matrix_l1,3,1"

    def test_table_columns_contract(self):
        assert TABLE_COLUMNS == (
            "case",
            "p",
            "estimator",
            "metric",
            "mean",
            "sd",
            "replications",
            "seed",
        )
