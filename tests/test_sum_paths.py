"""Guard: the Monte Carlo estimators read a sample's sums one way.

``montecarlo.py`` forms the sums ``x + y`` only in the two builders of the
tail store that every estimator reads. A sum formed anywhere else would be a second
estimator path that could disagree with the store, or a full pass over the
sample that the store exists to avoid. The scan reads the source, so it
also catches code no test reaches.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tailsum" / "montecarlo.py"
ALLOWED = {"_store_above", "_store_from_rank"}


def _operand(node):
    """``"x"``/``"y"`` for ``x``, ``pairs.x`` or a subscript of either."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_pair_sum(node) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        operands = (node.left, node.right)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "add"):
        operands = tuple(node.args[:2])
    else:
        return False
    return sorted(map(_operand, operands)) == ["x", "y"]


def _sum_sites(node, function=None):
    """``(function, line)`` of every ``x + y`` / ``np.add(x, y)`` under ``node``,
    with the innermost enclosing function's name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if _is_pair_sum(node):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _sum_sites(child, function)


def test_sums_are_formed_only_by_the_store_builders():
    sites = list(_sum_sites(ast.parse(SOURCE.read_text(encoding="utf-8"))))
    stray = [(function, line) for function, line in sites if function not in ALLOWED]
    assert not stray, f"montecarlo.py forms x + y outside {sorted(ALLOWED)} at {stray}"
    # the scan must still recognise the sites it allows
    assert {function for function, _ in sites} == ALLOWED
