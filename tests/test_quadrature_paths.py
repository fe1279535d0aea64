"""Guard: the expansions integrate numerically in one place.

In ``asymptotics.py`` only ``delta_correction`` imports ``scipy.integrate``
or calls ``quad``: the corner integrals and the corner functional are
closed forms, and the partial branch's finite-level correction is the one
quadrature left. A second quadrature site would be a numerical stand-in
for a quantity the library already has exactly, and would bring the
``scipy.integrate`` import back onto paths that need none. The scan reads
the source, so it also catches code no test reaches.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tailsum" / "asymptotics.py"
ALLOWED = {"delta_correction"}


def _is_quadrature(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.integrate") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.integrate") or (
            module == "scipy" and any(alias.name == "integrate" for alias in node.names)
        )
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "quad"
    return False


def _quadrature_sites(node, function=None):
    """``(function, line)`` of every ``scipy.integrate`` import and ``quad``
    call under ``node``, with the innermost enclosing function's name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if _is_quadrature(node):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _quadrature_sites(child, function)


def test_quadrature_runs_only_in_delta_correction():
    sites = list(_quadrature_sites(ast.parse(SOURCE.read_text(encoding="utf-8"))))
    stray = [(function, line) for function, line in sites if function not in ALLOWED]
    assert not stray, f"asymptotics.py integrates outside {sorted(ALLOWED)} at {stray}"
    # the scan must still recognise the site it allows
    assert {function for function, _ in sites} == ALLOWED
