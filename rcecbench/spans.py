"""Span tracing of rcec's layers from outside the program.

A :class:`Tracer` replaces layer functions in the module namespaces their
callers look them up in (``rcec.tuning.mom_covariance``, not
``rcec.mom.mom_covariance``), records one span per call in memory and
restores the originals on exit.  Spans nest through a per-thread stack; a
span opened on a pool thread with an empty stack takes the running
``ordered_map`` span as its parent, so the cause crosses threads.

Self time is a span's duration minus the time its same-thread children
cover.  Cross-thread children are not subtracted: the map span's time is the
main thread waiting for the pool.  Pool tasks also record their thread's CPU
time, because a task span keeps running while its thread waits for the GIL.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None


def _mom_bytes(args, kwargs, result):
    # Computed, not measured: one p x p float64 second-moment matrix per
    # block, as the MOM kernel materialises them.
    blocks = args[1] if len(args) > 1 else kwargs["block_count"]
    return {"bytes": int(blocks) * result.shape[0] ** 2 * 8}


def _sample_bytes(args, kwargs, result):
    return {"bytes": result.shape[0] ** 2 * 8}


def _pd_kept(args, kwargs, result):
    return {"full": len(args[1]), "kept": len(result[0])}


# (module the caller looks the name up in, attribute, span name, info)
PATCHES = (
    ("rcec.cli", "read_table", "cli.read", None),
    ("rcec.cli", "write_matrix_csv", "cli.write", None),
    ("rcec.cli", "write_json", "cli.write", None),
    ("rcec.cli", "rows_to_csv", "cli.write", None),
    ("rcec.cli", "rows_to_markdown", "cli.write", None),
    ("rcec.cli", "records_to_csv", "cli.write", None),
    ("rcec.cli", "close_counts", "compdata.close", None),
    ("rcec.cli", "bootstrap_stability", "stability.bootstrap", None),
    ("rcec.tuning", "clr_transform", "compdata.clr", None),
    ("rcec.stability", "clr_transform", "compdata.clr", None),
    ("rcec.tuning", "mom_covariance", "mom.cov", _mom_bytes),
    ("rcec.tuning", "sample_covariance", "mom.cov", _sample_bytes),
    ("rcec.tuning", "threshold_matrix", "threshold", None),
    ("rcec.stability", "threshold_matrix", "threshold", None),
    ("rcec.tuning", "min_eigenvalue", "metrics.eig", None),
    ("rcec.bench", "matrix_l1_loss", "metrics.loss", None),
    ("rcec.bench", "spectral_loss", "metrics.loss", None),
    ("rcec.bench", "frobenius_loss", "metrics.loss", None),
    ("rcec.bench", "support_metrics", "metrics.loss", None),
    ("rcec.tuning", "lambda_grid", "tuning.grid", None),
    ("rcec.tuning", "pd_floor_scan", "tuning.pd_scan", _pd_kept),
    ("rcec.tuning", "cv_select", "tuning.cv", None),
    # estimate() and estimate_from_latent() both look this up in tuning.
    ("rcec.tuning", "_estimate_from_matrix", "tuning.estimate", None),
    # cli.cmd_estimate imports extract_edges from rcec.stability at call time.
    ("rcec.stability", "extract_edges", "stability.edges", None),
    ("rcec.bench", "sample_case", "simgen.sample", None),
    ("rcec.bench", "basis_to_composition", "simgen.sample", None),
)

MAP_PATCHES = (("rcec.stability", "ordered_map"), ("rcec.bench", "ordered_map"))


class Tracer:
    """Records spans of wrapped calls; thread-safe for appends only."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_map = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None, cpu=False):
        """``fn`` wrapped to record a span named ``name`` per call.

        With ``cpu`` the span's info also holds ``cpu_s``, the calling
        thread's CPU seconds during the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._open_map
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            end = None
            cpu_start = time.thread_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                stack.pop()
                if end is None:
                    end = time.perf_counter()
                if cpu:
                    extra = {**(extra or {}), "cpu_s": time.thread_time() - cpu_start}
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), extra)
                )

        return traced

    def _wrap_map(self, original, worker_count):
        @functools.wraps(original)
        def traced_map(fn, items, workers=None):
            items = list(items)
            info = {"tasks": len(items), "workers": worker_count(len(items), workers)}

            def body():
                self._open_map = self._stack()[-1]
                try:
                    return original(self.wrap("parallel.task", fn, cpu=True), items, workers=workers)
                finally:
                    self._open_map = None

            return self.wrap("parallel.map", body, lambda *_: info)()

        return traced_map

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, info in PATCHES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), info))
            worker_count = importlib.import_module("rcec.parallel").worker_count
            for module_name, attr in MAP_PATCHES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap_map(getattr(module, attr), worker_count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                record = s._asdict()
                record["start"] -= origin
                record["end"] -= origin
                fh.write(json.dumps(record) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time of its same-thread children."""
    thread_of = {s.id: s.thread for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None and thread_of.get(s.parent) == s.thread:
            covered[s.parent] += s.end - s.start
    return {s.id: s.end - s.start - covered[s.id] for s in spans}


def layer_split(spans, calls: int) -> dict:
    """Span name -> (self seconds per call, spans per call)."""
    own = self_times(spans)
    seconds = defaultdict(float)
    counts = Counter()
    for s in spans:
        seconds[s.name] += own[s.id]
        counts[s.name] += 1
    return {name: (seconds[name] / calls, counts[name] / calls) for name in sorted(counts)}


def layer_metrics(spans, calls: int) -> dict:
    """The benchmark's per-layer metrics, each per top-level call.

    Ratios carry their base: ``tuning.pd_kept_ratio`` is kept grid values
    over ``tuning.pd_grid_full`` full-grid values, ``parallel.utilisation``
    is the CPU time of the pool tasks over map wall time times workers.
    """
    split = layer_split(spans, calls)

    def self_s(name):
        return split.get(name, (0.0, 0.0))[0]

    def count(name):
        return split.get(name, (0.0, 0.0))[1]

    def info_sum(name, key):
        return sum(s.info[key] for s in spans if s.name == name and s.info)

    maps = [s for s in spans if s.name == "parallel.map"]
    map_capacity = sum((s.end - s.start) * s.info["workers"] for s in maps)
    task_cpu = info_sum("parallel.task", "cpu_s")
    pd_full = info_sum("tuning.pd_scan", "full")
    return {
        "mom.cov_s": self_s("mom.cov"),
        "mom.cov_calls": count("mom.cov"),
        "mom.cov_bytes": info_sum("mom.cov", "bytes") / calls,
        "threshold.s": self_s("threshold"),
        "threshold.calls": count("threshold"),
        "metrics.eig_s": self_s("metrics.eig"),
        "metrics.eig_calls": count("metrics.eig"),
        "metrics.loss_s": self_s("metrics.loss"),
        "tuning.grid_s": self_s("tuning.grid"),
        "tuning.pd_scan_self_s": self_s("tuning.pd_scan"),
        "tuning.cv_self_s": self_s("tuning.cv"),
        "tuning.estimate_calls": count("tuning.estimate"),
        "tuning.pd_kept_ratio": info_sum("tuning.pd_scan", "kept") / pd_full if pd_full else 0.0,
        "tuning.pd_grid_full": pd_full / calls,
        "stability.edges_s": self_s("stability.edges"),
        "stability.edges_calls": count("stability.edges"),
        "stability.aggregate_s": self_s("stability.bootstrap"),
        "parallel.map_s": sum(s.end - s.start for s in maps) / calls,
        "parallel.tasks": sum(s.info["tasks"] for s in maps) / calls,
        "parallel.utilisation": task_cpu / map_capacity if map_capacity else 0.0,
        "compdata.close_s": self_s("compdata.close"),
        "compdata.clr_s": self_s("compdata.clr"),
        "compdata.clr_calls": count("compdata.clr"),
        "cli.read_s": self_s("cli.read"),
        "cli.write_s": self_s("cli.write"),
        "simgen.sample_s": self_s("simgen.sample"),
    }
