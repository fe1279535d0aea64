"""Guard: the library needs numpy only, and integrates in one place.

No module under ``src/tailsum`` imports scipy. The corner integrals and
the corner functional are closed forms; the partial branch's finite-level
correction, ``delta_correction``, is a fixed Gauss-Legendre rule in numpy,
built in ``_delta_rule`` and read only by ``delta_correction``; the VaR
inversion's root finding is a port of Brent's method. A second quadrature
site would be a numerical stand-in for a quantity the library already has
exactly. The scans read the source, so they also catch code no test
reaches.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tailsum"
SOURCE = PACKAGE / "asymptotics.py"


def _called_name(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def _sites(node, match, function=None):
    """``(function, line)`` of every node under ``node`` that ``match``
    accepts, with the innermost enclosing function's name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if match(node):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _sites(child, match, function)


def _functions(tree, match) -> set:
    return {function for function, _ in _sites(tree, match)}


def test_no_scipy_quadrature_in_the_expansions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert SOURCE in modules
    sites = [
        (path.name, site)
        for path in modules
        for site in _sites(ast.parse(path.read_text(encoding="utf-8")), _imports_scipy)
    ]
    assert not sites, f"tailsum imports scipy at {sites}"


def test_quadrature_runs_only_in_delta_correction():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    assert _functions(tree, lambda n: _called_name(n) == "leggauss") == {"_delta_rule"}
    assert _functions(tree, lambda n: _called_name(n) == "_delta_rule") == {"delta_correction"}
