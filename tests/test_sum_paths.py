"""Guard: a sample reaches a chart one way.

``montecarlo.py`` forms the sums ``x + y`` only in the one builder of the
tail stores that every estimator and ``empirical_grid`` read. A sum formed
anywhere else would be a second estimator path that could disagree with the
store, or a full pass over the sample that the store exists to avoid. The
builder is called by the one store rule of :class:`SamplePairs` and by
``empirical_grid``, and the command line builds every panel in one writer.
The scans read the source, so they also catch code no test reaches.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tailsum"
SOURCE = SRC / "montecarlo.py"
CLI = SRC / "cli.py"
ALLOWED = {"_tail_sums"}


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
    # compared as a set: two operands that are neither name both map to None
    return len(operands) == 2 and {_operand(a) for a in operands} == {"x", "y"}


def _scoped(node, scope=None, owner=""):
    """``(scope, node)`` for every node under ``node``, ``scope`` being the
    outermost enclosing function, ``Class.method`` for a method: code in a
    nested function runs for the function that defines it."""
    if scope is None:
        if isinstance(node, ast.ClassDef):
            owner = node.name + "."
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = owner + node.name
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope, owner)


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _name_uses(path, names):
    """``(scope, name, line)`` of every use of one of ``names`` in ``path``."""
    return [
        (scope, node.id, node.lineno)
        for scope, node in _scoped(_tree(path))
        if isinstance(node, ast.Name) and node.id in names
    ]


def test_sums_are_formed_only_by_the_store_builders():
    sites = [(scope, node.lineno) for scope, node in _scoped(_tree(SOURCE)) if _is_pair_sum(node)]
    stray = [(function, line) for function, line in sites if function not in ALLOWED]
    assert not stray, f"montecarlo.py forms x + y outside {sorted(ALLOWED)} at {stray}"
    # the scan must still recognise the sites it allows
    assert {function for function, _ in sites} == ALLOWED


def test_stores_are_built_only_by_the_store_rule_and_the_grid():
    # a third caller of the builder would be a second store rule next to
    # SamplePairs._store, or a second grid pass next to empirical_grid
    allowed = {"SamplePairs._store", "empirical_grid"}
    uses = _name_uses(SOURCE, {"_tail_sums"})
    stray = [use for use in uses if use[0] not in allowed]
    assert not stray, f"montecarlo.py calls _tail_sums outside {sorted(allowed)} at {stray}"
    assert {scope for scope, _, _ in uses} == allowed


def test_the_cli_builds_every_panel_in_the_panel_writer():
    # the expansions, the Monte Carlo grid and the chart of a panel are
    # reached from one function, so tailprob, var and reproduce-figures
    # write the same panel the same way
    names = {"empirical_grid", "render_line_chart", "tailprob_expansion_ev", "var_expansion_ev"}
    uses = _name_uses(CLI, names)
    stray = [use for use in uses if use[0] != "_write_panels"]
    assert not stray, f"cli.py uses {sorted(names)} outside _write_panels at {stray}"
    assert {name for _, name, _ in uses} == names
