"""Guards: each decision about a copula is made in one place.

The hypothesis checker decides how a copula is checked in one place.

``check_assumptions`` picks its default scales from its one corner-slope
read and derives every corner target from that slope. ``tailsum check``
only passes the user's settings through: a depth rule in the CLI (a scale
sequence of its own, or a test of ``PickandsEV.log_refined`` standing in for
a vanishing corner slope) would let the library and the command disagree on
the same copula, and a ``partial_traits`` argument would be a second corner
path next to the one read from the dependence function.

``copulas._require_dependence_function`` is the one place that knows what a
valid ``PickandsEV`` is; a second test of the contract (a convexity margin
or a corner-slope range in ``asymptotics.py``) could again accept what the
first rejects. The scans read the source, so they also catch code no test
reaches.
"""

import ast
import inspect
from pathlib import Path

from tailsum import check_assumptions

SRC = Path(__file__).resolve().parents[1] / "src" / "tailsum"


def _tree(module: str):
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _is_negative_number(node) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and node.operand.value > 0
    )


def _scale_sequences(tree):
    """Lines of every literal tuple or list of at least three negative
    numbers: a sequence of ``log10 t`` scales."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Tuple, ast.List))
        and len(node.elts) >= 3
        and all(map(_is_negative_number, node.elts))
    ]


def test_cli_has_no_depth_rule():
    tree = _tree("cli.py")
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "log_refined"
    ]
    assert not reads, f"cli.py reads log_refined at lines {reads}"
    sequences = _scale_sequences(tree)
    assert not sequences, f"cli.py defines log10 t scale sequences at lines {sequences}"
    # the scan must still recognise the sequences the checker owns
    assert len(_scale_sequences(_tree("copulas.py"))) == 2


def test_check_assumptions_takes_no_partial_traits():
    assert "partial_traits" not in inspect.signature(check_assumptions).parameters


# phrases of the messages that reject a broken PickandsEV contract
_CONTRACT_PHRASES = ("corner slope a2_fn", "not symmetric", "bounds max(x, y)", "Euler identity", "not convex")


def _message_strings(tree):
    """``(line, text)`` of every string constant that is not a docstring."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def _unit_interval_tests(tree):
    """Lines of every chained comparison ``0 <= x <= 1`` (either inequality
    strict): a range test of a value that must lie in ``[0, 1]``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and len(node.ops) == 2
        and all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
        and isinstance(node.left, ast.Constant) and node.left.value == 0
        and isinstance(node.comparators[1], ast.Constant) and node.comparators[1].value == 1
    ]


def test_one_function_checks_the_dependence_function_contract():
    tree = _tree("copulas.py")
    [check] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_require_dependence_function"
    ]
    inside = range(check.lineno, check.end_lineno + 1)
    for path in sorted(SRC.glob("*.py")):
        for line, text in _message_strings(_tree(path.name)):
            named = [phrase for phrase in _CONTRACT_PHRASES if phrase in text]
            assert not named or (path.name == "copulas.py" and line in inside), (
                f"{path.name}:{line} names the contract property {named[0]!r}"
            )
    # the scans must still recognise the check's own messages and range test
    texts = " ".join(text for line, text in _message_strings(tree) if line in inside)
    assert all(phrase in texts for phrase in _CONTRACT_PHRASES)
    assert any(line in inside for line in _unit_interval_tests(tree))
    tests = _unit_interval_tests(_tree("asymptotics.py"))
    assert not tests, f"asymptotics.py tests a value against [0, 1] at lines {tests}"
