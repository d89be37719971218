"""The byte contract: every output byte of a fixed command matrix.

Each row of ``ROWS`` runs ``rcec.cli.main`` in-process; the rows in
``SUBPROCESS_ROWS`` run ``python -m rcec`` in subprocesses with one BLAS
thread, at a size where BLAS splits work.  A row's result is the SHA-256 of
every file it writes, of stdout and of stderr, plus the exit code of each
command; argparse exits (``-h``, bad flags) count by their ``SystemExit``
code.  The test compares each row with ``contract_digests.json``.

Bytes are promised per machine and numpy build, so the digest file is keyed
on the Python minor version (argparse's help layout differs between
versions), the numpy version and the bundled OpenBLAS build and core.  Under
any other key the test skips and names both keys.

A change that alters output bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_contract.py

and lists every changed digest in CHANGES.md.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_env

from rcec.cli import main

DIGESTS = Path(__file__).with_name("contract_digests.json")

# Help rows wrap at this terminal width.
COLUMNS = "80"

# Rows that clamp a zero clr variance, and the warning filter they run under.
CLAMP_FILTER = "ignore:.*diagonal entries below"
CLAMPED_ROWS = {"estimate-all-equal"}

EST = "estimate inputs/case2.csv --grid-size 12 --out {out}"

# Row name -> commands; ``{out}`` is the row's own output directory.
ROWS = {
    **{
        f"simulate-case{c}": [
            f"simulate --case {c} --n 30 --p 8 --seed 1 --out {{out}}/samples.csv"
        ]
        for c in (1, 2, 3, 4)
    },
    "estimate-soft": [EST],
    "estimate-alasso": [EST + " --rule alasso:2"],
    "estimate-scad": [EST + " --rule scad:3.7"],
    "estimate-coat": [EST + " --estimator coat"],
    "estimate-no-pd": [EST + " --no-pd"],
    "estimate-threshold-diagonal": [EST + " --threshold-diagonal"],
    "estimate-counts": ["estimate inputs/counts.csv --counts --grid-size 12 --out {out}"],
    "estimate-all-equal": ["estimate inputs/equal.csv --grid-size 12 --out {out}"],
    "stability-full": [
        "stability inputs/case2.csv -B 4 --retain 2 --grid-size 8 --out {out}/stability.json"
    ],
    "stability-reuse-lambda": [
        "stability inputs/case2.csv -B 8 --retain 4 --grid-size 8 --reuse-lambda"
        " --out {out}/stability.json"
    ],
    "benchmark": [
        "benchmark --cases 1,4 --p 8 --n 40 --replications 2"
        " --estimators rcec,coat,oracle --grid-size 8 --out {out}"
    ],
    "usage-missing-input": ["estimate inputs/missing.csv --out {out}"],
    "usage-unknown-flag": ["estimate inputs/case2.csv --bogus --out {out}"],
    "usage-bad-case": ["simulate --case 9 --out {out}/samples.csv"],
    "usage-odd-p": ["simulate --case 1 --p 15 --out {out}/samples.csv"],
    "usage-bad-rule": [EST + " --rule bogus"],
    "usage-folds-below-two": [EST + " --folds 1"],
    "usage-bootstrap-zero": ["stability inputs/case2.csv -B 0 --out {out}/stability.json"],
    "usage-benchmark-n": ["benchmark --cases 1 --p 8 --n 3 --out {out}"],
    "data-counts-as-proportions": ["estimate inputs/counts.csv --out {out}"],
    "data-too-few-samples-per-fold": [EST + " --folds 40"],
    "help": ["-h"],
    **{
        f"help-{command}": [f"{command} -h"]
        for command in ("estimate", "simulate", "benchmark", "stability")
    },
    "estimate-p200-subprocess": [
        "simulate --case 2 --n 100 --p 200 --seed 1 --out {out}/samples.csv",
        "estimate {out}/samples.csv --out {out}/fit",
    ],
}
SUBPROCESS_ROWS = {"estimate-p200-subprocess"}


def _openblas_strings() -> list:
    # The build and core strings of the OpenBLAS bundled with numpy, or
    # None where this numpy bundles none.
    libs = sorted(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*"))
    if not libs:
        return [None, None]
    lib = ctypes.CDLL(str(libs[0]))
    values = []
    for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
        getter = getattr(lib, symbol, None)
        if getter is None:
            values.append(None)
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_char_p
        values.append(getter().decode())
    return values


def environment_key() -> dict:
    config, corename = _openblas_strings()
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
        "openblas_config": config,
        "openblas_corename": corename,
    }


def make_inputs(workdir: Path) -> None:
    """Write the tables the rows read, under ``workdir/inputs``."""
    inputs = workdir / "inputs"
    inputs.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        main(["simulate", "--case", "2", "--n", "60", "--p", "12", "--seed", "3",
              "--out", str(inputs / "case2.csv")])
    counts = np.random.default_rng(0).integers(0, 50, size=(30, 6))
    lines = ["a,b,c,d,e,f"] + [",".join(map(str, row)) for row in counts.tolist()]
    (inputs / "counts.csv").write_text("\n".join(lines) + "\n")
    (inputs / "equal.csv").write_text("a,b,c,d\n" + "0.1,0.2,0.3,0.4\n" * 12)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_in_process(args: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def _run_subprocess(args: list) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "rcec", *args],
        env=cli_env({"OPENBLAS_NUM_THREADS": "1", "COLUMNS": COLUMNS}),
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_row(name: str) -> dict:
    """Digests of one row, run in the current directory."""
    run = _run_subprocess if name in SUBPROCESS_ROWS else _run_in_process
    commands = []
    for command in ROWS[name]:
        code, stdout, stderr = run(command.format(out=name).split())
        commands.append({"exit": code, "stdout": _sha(stdout), "stderr": _sha(stderr)})
    outdir = Path(name)
    files = sorted(path for path in outdir.rglob("*") if path.is_file())
    return {
        "commands": commands,
        "files": {path.relative_to(outdir).as_posix(): _sha(path.read_bytes()) for path in files},
    }


@pytest.fixture(scope="module")
def recorded():
    contract = json.loads(DIGESTS.read_text())
    key = environment_key()
    if contract["key"] != key:
        pytest.skip(f"digests recorded under {contract['key']}; this environment is {key}")
    return contract["rows"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    make_inputs(path)
    return path


def test_matrix_is_recorded(recorded):
    assert list(recorded) == list(ROWS)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.filterwarnings(CLAMP_FILTER))
        if name in CLAMPED_ROWS
        else name
        for name in ROWS
    ],
)
def test_row_matches_its_digests(name, recorded, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("RCEC_THREADS", raising=False)
    assert run_row(name) == recorded[name]


def record() -> None:
    """Rewrite the digest file from this checkout, under the test's conditions."""
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop("RCEC_THREADS", None)
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        make_inputs(Path(tmp))
        for name in ROWS:
            with warnings.catch_warnings():
                # The suite turns a RuntimeWarning into an error.
                warnings.simplefilter("error", RuntimeWarning)
                if name in CLAMPED_ROWS:
                    action, message = CLAMP_FILTER.split(":", 1)
                    warnings.filterwarnings(action, message=message)
                rows[name] = run_row(name)
        os.chdir(DIGESTS.parent)
    contract = {"key": environment_key(), "rows": rows}
    DIGESTS.write_text(json.dumps(contract, indent=1) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    record()
