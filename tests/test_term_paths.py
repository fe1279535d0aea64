"""Guard: the expansions turn second-order terms into numbers one way.

``asymptotics.py`` writes every second-order term as a threshold-free spec
``(kind, coefficient, exponent, arg)`` and evaluates specs only in
``_evaluate``. An ``ExpansionTerm`` built anywhere else would be a second
place that turns the paper's terms into numbers, one that the trait
branches and the extreme-value candidates could disagree through. The scan
reads the source, so it also catches code no test reaches.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tailsum" / "asymptotics.py"
ALLOWED = {"_evaluate"}


def _is_term_construction(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "ExpansionTerm"


def _term_sites(node, function=None):
    """``(function, line)`` of every ``ExpansionTerm(...)`` under ``node``,
    with the innermost enclosing function's name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if _is_term_construction(node):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _term_sites(child, function)


def test_expansion_terms_are_constructed_only_by_the_evaluator():
    sites = list(_term_sites(ast.parse(SOURCE.read_text(encoding="utf-8"))))
    stray = [(function, line) for function, line in sites if function not in ALLOWED]
    assert not stray, f"asymptotics.py constructs ExpansionTerm outside {sorted(ALLOWED)} at {stray}"
    # the scan must still recognise the site it allows
    assert {function for function, _ in sites} == ALLOWED
