"""The benchmark's patch points name callables that exist.

``rcecbench/spans.py`` wraps rcec functions where their callers look them
up; a renamed or deleted name there would fail every traced workload.  The
module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

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
