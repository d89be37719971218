"""The package imports only the standard library and numpy, and declares
numpy as its one dependency, so a dropped dependency cannot come back
unnoticed."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_modules_import_only_the_standard_library_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    modules = sorted((ROOT / "src" / "rcec").glob("*.py"))
    assert modules
    foreign = {
        path.name: names
        for path in modules
        if (names := sorted({n for n in _absolute_imports(path) if n.split(".")[0] not in allowed}))
    }
    assert foreign == {}


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0] for req in project["dependencies"]] == ["numpy"]
