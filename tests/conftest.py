"""Shared test configuration."""

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

import rcec

settings.register_profile(
    "default",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

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
