"""Guard: the expansions integrate numerically in one place, without scipy.

``asymptotics.py`` imports no ``scipy.integrate`` and calls no ``quad``:
the corner integrals and the corner functional are closed forms, and the
partial branch's finite-level correction, ``delta_correction``, is a fixed
Gauss-Legendre rule in numpy. The rule is built in ``_delta_rule`` and read
only by ``delta_correction``. A second quadrature site would be a numerical
stand-in for a quantity the library already has exactly, and an adaptive
scipy one would bring the ``scipy.integrate`` import back onto the CLI's
paths. The scan reads the source, so it also catches code no test reaches.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tailsum" / "asymptotics.py"


def _called_name(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_scipy_integrate(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.integrate") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.integrate") or (
            module == "scipy" and any(alias.name == "integrate" for alias in node.names)
        )
    return _called_name(node) == "quad"


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
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    sites = list(_sites(tree, _is_scipy_integrate))
    assert not sites, f"asymptotics.py imports scipy.integrate or calls quad at {sites}"


def test_quadrature_runs_only_in_delta_correction():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    assert _functions(tree, lambda n: _called_name(n) == "leggauss") == {"_delta_rule"}
    assert _functions(tree, lambda n: _called_name(n) == "_delta_rule") == {"delta_correction"}
