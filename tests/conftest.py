"""Shared test configuration."""

import dataclasses
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import rcec
from rcec import parallel

settings.register_profile(
    "default",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def nothing_left_behind():
    """Fail a test that leaves a multiprocessing child running, then end it,
    that leaves a non-daemon thread alive, or that leaves numpy's OpenBLAS
    thread count changed, then set it back.  Tests call ``main`` in-process,
    so a pin that is not undone would reach every later test."""
    before = set(threading.enumerate())
    pin = parallel._openblas()
    blas_threads = pin and pin[0]()
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(10)
    assert not left, f"processes left running after the test: {left}"
    threads = [t for t in threading.enumerate() if t not in before and not t.daemon]
    assert not threads, f"threads left running after the test: {threads}"
    if pin is not None and (changed := pin[0]()) != blas_threads:
        pin[1](blas_threads)
        pytest.fail(f"OpenBLAS thread count left at {changed}, was {blas_threads}")


# The package under test, as this process imported it.  CLI subprocesses
# run in their own working directories, where a relative PYTHONPATH entry
# (the no-install ``PYTHONPATH=src`` route) no longer resolves; putting the
# absolute directory that holds this package first makes every child import
# the same code, whether it came from PYTHONPATH or an editable install.
RCEC_FILE = Path(rcec.__file__).resolve()


def cli_env(env=None) -> dict:
    """The environment for a ``python -m rcec`` subprocess.

    ``RCEC_THREADS`` is dropped, the tested package comes first on
    ``PYTHONPATH``, and ``env`` is applied last.
    """
    full_env = dict(os.environ)
    full_env.pop("RCEC_THREADS", None)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(RCEC_FILE.parents[1])] + ([inherited] if inherited else [])
    )
    if env:
        full_env.update(env)
    return full_env


def assert_same_bits(got, want):
    """Assert that two result dataclasses hold equal fields, arrays and
    floats bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, (np.ndarray, float)):
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name
