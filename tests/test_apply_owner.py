"""Every application of a thresholding rule goes through
``rcec.threshold._apply``, so one spy on that name sees them all.

The rule function is named only inside ``rcec/threshold.py``: no other
module imports it, reads it as an attribute or binds a name of its own to
it.  Grid sweeps reach it through ``threshold._sweep``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rcec"

NAME = "_apply"


def _names(tree) -> list:
    # Each use of NAME: a bare name, an attribute, an import or a definition.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == NAME:
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == NAME:
            found.append(node.lineno)
        elif isinstance(node, ast.alias) and NAME in (node.name, node.asname):
            found.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == NAME:
            found.append(node.lineno)
    return found


def test_only_threshold_names_the_rule_function():
    uses = {
        path.stem: _names(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert uses["threshold"], "rcec/threshold.py no longer names _apply"
    assert {module: lines for module, lines in uses.items() if lines and module != "threshold"} == {}
