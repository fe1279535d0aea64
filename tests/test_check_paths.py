"""Guard: the hypothesis checker decides how a copula is checked in one place.

``check_assumptions`` picks its default scales from its one corner-slope
read and derives every corner target from that slope. ``tailsum check``
only passes the user's settings through: a depth rule in the CLI (a scale
sequence of its own, or a test of ``PickandsEV.log_refined`` standing in for
a vanishing corner slope) would let the library and the command disagree on
the same copula, and a ``partial_traits`` argument would be a second corner
path next to the one read from the dependence function. The scan reads the
source, so it also catches code no test reaches.
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
