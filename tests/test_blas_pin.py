"""Every BLAS or LAPACK call in the package runs under the one-thread BLAS
pin, so a new unpinned call cannot come in unnoticed.

The pin is entered in one form only, the decorator ``@one_blas_thread()`` on
a top-level function.  A call counts as BLAS when it is ``np.linalg.*``,
``np.matmul``, ``np.dot``, a ``.dot`` method or the ``@`` operator.  Each
must sit in a decorated function, or in a named helper whose every use
sits in a decorated function or in another such helper.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rcec"

# Helpers that call BLAS without the pin, since every caller holds it.
HELPERS = {
    "mom._block_product",
    "simgen._cholesky",
    "simgen._skew_t_rows",
    "tuning._factors",
    "tuning._is_pd",
}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _calls_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func)
    method = node.func.attr if isinstance(node.func, ast.Attribute) else None
    return name.startswith("np.linalg.") or name == "np.matmul" or method == "dot"


def _is_pin(decorator) -> bool:
    return (
        isinstance(decorator, ast.Call)
        and _dotted(decorator.func) == "one_blas_thread"
        and not decorator.args
        and not decorator.keywords
    )


def _scopes():
    """``(module.function or module.<top level>, decorated, nodes)`` for each
    top-level function and for the rest of each module."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        rest = []
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                pinned = any(_is_pin(d) for d in top.decorator_list)
                yield f"{module}.{top.name}", pinned, list(ast.walk(top))
            else:
                rest += ast.walk(top)
        yield f"{module}.<top level>", False, rest


def _helper_uses(nodes) -> set:
    names = {helper.split(".")[1] for helper in HELPERS}
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in nodes
        if (isinstance(n, ast.Name) and n.id in names) or (isinstance(n, ast.Attribute) and n.attr in names)
    }


def test_every_blas_call_runs_under_the_pin():
    scopes = list(_scopes())
    assert scopes
    allowed = {name for name, pinned, _ in scopes if pinned} | HELPERS
    unpinned = sorted(
        name for name, _, nodes in scopes if name not in allowed and any(map(_calls_blas, nodes))
    )
    assert unpinned == []
    # A helper runs under the pin only where every use of it does.
    leaks = sorted(
        f"{name} uses {used}"
        for name, _, nodes in scopes
        if name not in allowed and (used := _helper_uses(nodes))
    )
    assert leaks == []


def test_the_helpers_exist_and_call_blas():
    # Each helper calls BLAS itself, or uses another helper that reaches it.
    scopes = {name: nodes for name, _, nodes in _scopes()}
    reach = {helper for helper in HELPERS if any(map(_calls_blas, scopes[helper]))}
    while grown := {
        helper
        for helper in HELPERS - reach
        if _helper_uses(scopes[helper]) & {r.split(".")[1] for r in reach}
    }:
        reach |= grown
    assert reach == HELPERS


def test_the_pin_is_entered_only_as_a_decorator():
    pinned = []
    for name, decorated, nodes in _scopes():
        entries = [n for n in nodes if isinstance(n, ast.Name) and n.id == "one_blas_thread"]
        assert len(entries) == (1 if decorated else 0), name
        if decorated:
            pinned.append(name)
    assert pinned == [
        "metrics.spectral_loss",
        "metrics.frobenius_loss",
        "metrics.min_eigenvalue",
        "metrics.clr_proxy_gap",
        "mom._median_covariance",
        "mom.sample_covariance",
        "simgen.sample_case",
        "tuning.pd_floor_scan",
    ]
