"""Command line interface.

Subcommands: ``estimate`` (fit a covariance network from a composition or
count table), ``simulate`` (draw a synthetic dataset), ``benchmark``
(replicated loss tables on synthetic data) and ``stability`` (bootstrap edge
stability).  Exit codes: 0 success, 2 usage or input-format error, 3 data
invariant violation, 4 numerical failure.

Each ``cmd_*`` function returns the files its command produces as an
ordered ``{Path: text}`` dict and writes nothing; :func:`main` writes them
all or, on failure, none of them, and prints the ``wrote`` line.  All
outputs are plain UTF-8 CSV, markdown or JSON without timestamps;
rerunning a command with identical arguments reproduces identical bytes,
whatever the BLAS thread count (see :mod:`rcec.parallel`).
``RCEC_THREADS`` caps the worker processes of the batch commands and the
threads of one median-of-means covariance; the bytes do not depend on it.
Every command checks it before any work runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .bench import (
    BENCH_ESTIMATORS,
    BenchmarkSpec,
    records_to_csv,
    rows_to_csv,
    rows_to_markdown,
    run_benchmark,
    summarize,
)
from .compdata import DEFAULT_ZERO_REPLACEMENT, CompositionMatrix, _check_count, _check_seed, close_counts
from .parallel import worker_count
from .simgen import CASES, _check_dimension, get_case, basis_to_composition, sample_case
from .stability import DEFAULT_REPLICATES, DEFAULT_RETAIN, bootstrap_stability
from .threshold import ThresholdRule
from .tuning import _FIELD_TYPES, ESTIMATOR_KINDS, EstimatorConfig, _parse_kv, estimate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Bad arguments or malformed input formats (exit code 2)."""


# ---------------------------------------------------------------------------
# input/output helpers

def read_table(path: str):
    """Read a UTF-8 CSV with a taxon-name header row and numeric sample rows.

    A leading byte-order mark, as spreadsheet programs write, is dropped.
    Taxon names must be unique.

    A file that cannot be read or decoded raises :class:`UsageError`, and
    malformed content raises it with a line and column diagnostic; semantic
    validation (positivity, closure) happens in the data containers
    afterwards.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    # Blank and whitespace-only lines (one all-space field) are skipped;
    # diagnostics name the physical line.
    rows = [(reader.line_num, row) for row in reader if len(row) > 1 or (row and row[0].strip())]
    if len(rows) < 2:
        raise UsageError(f"{path}: expected a header row and at least one data row")
    taxa = [cell.strip() for cell in rows[0][1]]
    p = len(taxa)
    if p < 2:
        raise UsageError(f"{path}: need at least 2 columns, found {p}")
    seen = set()
    for name in taxa:
        if name in seen:
            raise UsageError(f"{path}: taxon name {name!r} appears more than once")
        seen.add(name)
    data = np.empty((len(rows) - 1, p))
    for r, (line, row) in enumerate(rows[1:]):
        if len(row) != p:
            raise UsageError(
                f"{path}: line {line}: expected {p} fields, found {len(row)}"
            )
        try:
            data[r] = list(map(float, row))
        except ValueError:
            # Find the first cell that is not a number, for the diagnostic.
            for c, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise UsageError(
                        f"{path}: line {line}, column {c + 1}: not a number: {cell!r}"
                    ) from None
    return taxa, data


def _write_all(files: dict) -> None:
    """Write each ``{path: text}`` item: every file appears, or none does.

    Each text goes to a temporary beside its target; the temporaries are
    renamed onto their targets only once all of them are written.  Any
    failure removes the temporaries, so no output file is created or
    replaced.
    """
    staged = []
    try:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            # A directory at the target would fail only the rename, after
            # other targets may already have been replaced.
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            temp = path.with_name(f".{path.name}.tmp")
            staged.append(temp)
            temp.write_text(text, encoding="utf-8")
        for temp, path in zip(staged, files):
            os.replace(temp, path)
    except OSError as exc:
        for temp in staged:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {path}: {exc}") from None


# csv.writer returns what its file's write returns, so with ``str`` as the
# write, writerow returns the formatted line.
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
# The text of an exact zero, indexed by its sign bit.
_ZERO_TEXT = np.array(["0.0", "-0.0"], dtype=object)


def _csv_text(header, lines) -> str:
    """The header as a CSV row, then each line as given.

    Each line already ends in a newline; its numeric fields are shortest
    round-trip ``repr`` strings, which never need quoting.  Lines are
    formatted one row at a time, so p^2 Python floats or strings are never
    alive at once.
    """
    # Into a StringIO line by line: a "".join of all the lines gives the
    # same text, but left the next fit's MOM calls about 5 ms slower at
    # p = 400 (malloc heap layout, not more live objects).
    buf = io.StringIO()
    buf.write(_csv_line(header))
    for line in lines:
        buf.write(line)
    return buf.getvalue()


def _matrix_fields(row: np.ndarray) -> str:
    # repr of every entry, computed only for the nonzeros: soft thresholding
    # keeps the sign of z, so a zero reads 0.0 or -0.0 by its sign bit.
    fields = _ZERO_TEXT[np.signbit(row).view(np.uint8)]
    nonzero = np.flatnonzero(row)
    fields[nonzero] = list(map(repr, row[nonzero].tolist()))
    return ",".join(fields.tolist())


def write_matrix_csv(taxa, matrix: np.ndarray) -> str:
    # Each taxon name is quoted as csv.writer quotes the first of several
    # fields; the slice drops the newline and keeps the comma.
    return _csv_text(
        ["", *taxa],
        (f"{_csv_line((name, ''))[:-1]}{_matrix_fields(row)}\n" for name, row in zip(taxa, matrix)),
    )


def write_samples_csv(taxa, matrix: np.ndarray) -> str:
    return _csv_text(taxa, (",".join(map(repr, row.tolist())) + "\n" for row in matrix))


def write_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _edge_payload(edge, taxa, omega, occurrences=None):
    d_i = omega[edge.i, edge.i]
    d_j = omega[edge.j, edge.j]
    correlation = (
        edge.weight / float(np.sqrt(d_i * d_j)) if d_i > 0 and d_j > 0 else None
    )
    entry = {
        "i": edge.i,
        "j": edge.j,
        "taxon_i": taxa[edge.i],
        "taxon_j": taxa[edge.j],
        "sign": edge.sign,
        "weight": edge.weight,
        "correlation": correlation,
    }
    if occurrences is not None:
        entry["occurrences"] = occurrences.get((edge.i, edge.j), 0)
    return entry


# ---------------------------------------------------------------------------
# configuration plumbing

def build_config(args, own_flags=None) -> EstimatorConfig:
    """The ``--config`` file (or the defaults), overridden by the flags given.

    ``own_flags`` maps config fields that the command takes from flags of
    its own to those flags; the file may not set them.
    """
    given = vars(args)
    updates = {key: value for key, value in given.items() if key in _FIELD_TYPES}
    try:
        values = _parse_kv(Path(given["config"]).read_text(encoding="utf-8-sig")) if given.get("config") else {}
        for key, flag in (own_flags or {}).items():
            if key in values:
                raise UsageError(
                    f"bad configuration: {given['config']} sets {key!r}; "
                    f"{args.command} takes it from {flag}"
                )
        config = EstimatorConfig(**values)
        if "rule" in updates:
            updates["rule"] = ThresholdRule.parse(updates["rule"])
        return replace(config, **updates)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}") from None


def _usage_check(check, *args, **kwargs):
    """Run a library check on command-line values; a failure is a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_composition(args) -> tuple:
    if args.counts and not 0 < args.zero_replacement < np.inf:
        raise UsageError(
            f"--zero-replacement must be positive and finite, got {args.zero_replacement!r}"
        )
    taxa, data = read_table(args.input)
    if args.counts:
        x = close_counts(data, args.zero_replacement)
    else:
        x = CompositionMatrix(data)
    return taxa, x


# ---------------------------------------------------------------------------
# subcommands

def cmd_estimate(args) -> dict:
    taxa, x = _load_composition(args)
    config = build_config(args)
    result = estimate(x, config)
    from .stability import extract_edges

    edges = extract_edges(result.omega)
    outdir = Path(args.out)
    return {
        outdir / "omega.csv": write_matrix_csv(taxa, result.omega),
        outdir / "edges.json": write_json(
            {
                "edges": [_edge_payload(e, taxa, result.omega) for e in edges.edges],
                "positives": sum(1 for e in edges.edges if e.sign > 0),
                "negatives": sum(1 for e in edges.edges if e.sign < 0),
            }
        ),
        outdir / "report.json": write_json(
            {
                "command": "estimate",
                "input": args.input,
                "n": x.n,
                "p": x.p,
                "config": config.to_dict(),
                "block_count": result.block_count,
                "lambda_star": result.lambda_star,
                "min_eigenvalue": result.min_eig,
                "edge_count": len(edges.edges),
                "warnings": result.warnings,
                "cv_curve": [[float(l), float(e)] for l, e in result.cv_curve],
            }
        ),
    }


def cmd_simulate(args) -> dict:
    # The synthetic truths come from build_omega0; reject a size it cannot build.
    _usage_check(_check_dimension, args.p)
    _usage_check(_check_seed, args.seed)
    if args.n < 2:
        raise UsageError(f"composition matrix needs at least 2 samples, got n={args.n}")
    case = get_case(args.case)
    y = sample_case(case, args.n, args.p, args.seed)
    x = basis_to_composition(y)
    taxa = [f"taxon_{j + 1}" for j in range(args.p)]
    out = Path(args.out)
    return {
        out: write_samples_csv(taxa, x.values),
        Path(str(out) + ".meta.json"): write_json(
            {
                "command": "simulate",
                "case": args.case,
                **asdict(case),
                "n": args.n,
                "p": args.p,
                "seed": args.seed,
                "data": out.name,
            }
        ),
    }


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise UsageError(f"bad {what} list {text!r}; expected comma-separated integers") from None


def cmd_benchmark(args) -> dict:
    cases = _parse_int_list(args.cases, "case")
    p_values = _parse_int_list(args.p, "dimension")
    estimators = tuple(part.strip() for part in args.estimators.split(",") if part.strip())
    config = build_config(args, own_flags={"estimator": "--estimators"})
    spec = _usage_check(
        BenchmarkSpec,
        cases=cases,
        p_values=p_values,
        n=args.n,
        replications=args.replications,
        estimators=estimators,
        seed=config.seed,
    )
    # Every arm cross-validates; reject a sample size the folds cannot split
    # before the first fit.
    if spec.n < 2 * config.folds:
        raise UsageError(f"need --n >= 2 * folds = {2 * config.folds}, got {spec.n}")
    records = run_benchmark(spec, config)
    rows = summarize(records, spec)
    outdir = Path(args.out)
    return {
        outdir / "results.csv": rows_to_csv(rows),
        outdir / "results.md": rows_to_markdown(rows),
        outdir / "losses.csv": records_to_csv(records),
    }


def cmd_stability(args) -> dict:
    taxa, x = _load_composition(args)
    config = build_config(args)
    _usage_check(_check_count, args.bootstrap, "--bootstrap", 1)
    _usage_check(_check_count, args.retain, "--retain", 0)
    result = bootstrap_stability(
        x,
        config,
        replicates=args.bootstrap,
        retain_threshold=args.retain,
        seed=config.seed,
        reuse_lambda=args.reuse_lambda,
    )

    def payloads(edge_set):
        return [
            _edge_payload(e, taxa, result.baseline_omega, result.baseline.occurrences)
            for e in edge_set.edges
        ]

    payload = {
        "edges": payloads(result.stable),
        "stability": result.stability,
        "positives": result.positives,
        "negatives": result.negatives,
        "sign_agreement": result.sign_agreement,
        "baseline_edges": payloads(result.baseline),
        "metadata": {
            "bootstrap_replicates": result.replicates,
            "retain_threshold": result.retain_threshold,
            "seed": result.seed,
            "reuse_lambda": result.reuse_lambda,
            "lambda_star": result.lambda_star,
            "n": x.n,
            "p": x.p,
            "config": config.to_dict(),
        },
    }
    return {Path(args.out): write_json(payload)}


# ---------------------------------------------------------------------------
# parser

def _input_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("input", help="CSV with a taxon header row, one sample per row")
    parent.add_argument("--counts", action="store_true", help="input holds counts, not proportions")
    parent.add_argument(
        "--zero-replacement",
        type=float,
        default=DEFAULT_ZERO_REPLACEMENT,
        metavar="Z",
        help="pseudo-count for zero counts (default %(default)g)",
    )
    return parent


def _estimator_options(with_estimator: bool) -> argparse.ArgumentParser:
    # Each dest is the EstimatorConfig field the flag sets; an absent flag
    # stays out of the namespace, so a value from --config survives.
    # benchmark leaves out --estimator: its arms come from --estimators.
    defaults = EstimatorConfig()
    parent = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    group = parent.add_argument_group("estimator options")
    group.add_argument("--config", metavar="FILE", help="flat key = value config file")
    if with_estimator:
        group.add_argument(
            "--estimator",
            choices=ESTIMATOR_KINDS,
            help=f"covariance estimator (default {defaults.estimator})",
        )
    group.add_argument(
        "--rule",
        metavar="RULE",
        help=f"thresholding rule: soft, alasso:<eta> or scad:<a> (default {defaults.rule.spec()})",
    )
    group.add_argument("--folds", type=int, metavar="V", help=f"CV fold count (default {defaults.folds})")
    group.add_argument(
        "--grid-size", type=int, metavar="G", help=f"tuning grid size (default {defaults.grid_size})"
    )
    group.add_argument(
        "--L", type=float, metavar="L", help=f"block-count aggressiveness (default {defaults.L:g})"
    )
    group.add_argument(
        "--no-pd",
        dest="enforce_pd",
        action="store_false",
        help="skip the positive-definiteness grid restriction",
    )
    group.add_argument(
        "--threshold-diagonal",
        action="store_true",
        help="threshold variance entries as well",
    )
    group.add_argument("--seed", type=int, metavar="S", help=f"seed (default {defaults.seed})")
    return parent


def _join(values) -> str:
    return ",".join(map(str, values))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcec",
        description="Robust sparse covariance estimation for compositional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = _input_options()
    estimator = _estimator_options(with_estimator=True)

    # Each command's own options sit in a parent listed before the estimator
    # options, so the usage line keeps them first.
    own = argparse.ArgumentParser(add_help=False)
    own.add_argument("--out", default="rcec_out", metavar="DIR", help="output directory")
    sub.add_parser(
        "estimate", help="fit a covariance network from a table", parents=[inputs, own, estimator]
    ).set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="draw a synthetic composition table")
    p_sim.add_argument("--case", type=int, required=True, choices=sorted(CASES), help="scenario 1-4")
    p_sim.add_argument("--n", type=int, default=100, help="sample count (default 100)")
    p_sim.add_argument("--p", type=int, default=50, help="dimension (default 50)")
    p_sim.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p_sim.add_argument("--out", default="samples.csv", metavar="FILE", help="output CSV")
    p_sim.set_defaults(func=cmd_simulate)

    spec = BenchmarkSpec()
    own = argparse.ArgumentParser(add_help=False)
    own.add_argument("--cases", default=_join(spec.cases), metavar="LIST", help="cases, e.g. 1,2 (default all)")
    own.add_argument("--p", default=_join(spec.p_values), metavar="LIST", help="dimensions (default %(default)s)")
    own.add_argument("--n", type=int, default=spec.n, help="sample count (default %(default)s)")
    own.add_argument(
        "--replications", type=int, default=spec.replications, metavar="R",
        help="replications per cell (default %(default)s)",
    )
    own.add_argument(
        "--estimators",
        default=_join(spec.estimators),
        metavar="LIST",
        help=f"arms from {_join(BENCH_ESTIMATORS)} (default %(default)s)",
    )
    own.add_argument("--out", default="bench_out", metavar="DIR", help="output directory")
    # No abbreviations: --estimator would otherwise be read as --estimators.
    sub.add_parser(
        "benchmark",
        help="replicated loss tables on synthetic data",
        parents=[own, _estimator_options(with_estimator=False)],
        allow_abbrev=False,
    ).set_defaults(func=cmd_benchmark)

    own = argparse.ArgumentParser(add_help=False)
    own.add_argument(
        "--bootstrap", "-B", type=int, default=DEFAULT_REPLICATES, metavar="B",
        help="replicates (default %(default)s)",
    )
    own.add_argument(
        "--retain", type=int, default=DEFAULT_RETAIN, metavar="K",
        help="stability cutoff (default %(default)s)",
    )
    own.add_argument(
        "--reuse-lambda",
        action="store_true",
        help="reuse the baseline tuning value instead of re-cross-validating",
    )
    own.add_argument("--out", default="stability.json", metavar="FILE", help="output JSON")
    sub.add_parser(
        "stability", help="bootstrap stability of estimated edges", parents=[inputs, own, estimator]
    ).set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _usage_check(worker_count, 1)  # a bad RCEC_THREADS fails before any work runs
        files = args.func(args)
        _write_all(files)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # LinAlgError subclasses ValueError, so numerical failures must be
    # separated out before the data-invariant handler.
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print("wrote " + ", ".join(map(str, files)))
    return EXIT_OK
