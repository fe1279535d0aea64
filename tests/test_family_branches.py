"""Guard: the expansions, the trait builders, the hypothesis checker and the
command line's family handling never test a family name.

An extreme-value family is defined once, by its dependence function, and
everything the expansions, the traits and the checker need is derived from
it. A comparison against a family name in these places would be a second
definition that a family defined elsewhere (see ``test_galambos.py``)
silently misses. The scan reads the source, so it also catches branches no
other test reaches.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tailsum"
NAMES = {"gumbel", "independence", "comonotone", "log-interaction"}


def _scope(module: str, function):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    if function is None:
        return tree
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )


@pytest.mark.parametrize(
    "module, function",
    [
        ("asymptotics.py", None),
        ("copulas.py", "tail_order_traits"),
        ("copulas.py", "check_assumptions"),
        ("cli.py", "_resolve_family"),
        ("cli.py", "_cmd_panel"),
        ("cli.py", "_write_panels"),
        ("cli.py", "_cmd_check"),
    ],
)
def test_no_comparison_against_a_family_name(module, function):
    hits = [
        (node.lineno, sub.value)
        for node in ast.walk(_scope(module, function))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)
        if isinstance(sub, ast.Constant) and sub.value in NAMES
    ]
    assert not hits, f"{module} {function or ''}: family-name comparisons at {hits}"


def test_only_the_classifier_and_the_plan_read_case_labels():
    # every other function works from the plan's coefficients, so a case
    # label is read in exactly two places
    def label_reads(tree):
        return [
            node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id.startswith("LABEL_")
                and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "label")
        ]

    tree = _scope("asymptotics.py", None)
    inside = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, ast.FunctionDef) and scope.name in ("classify_case", "_model_plan")
        for node in label_reads(scope)
    }
    outside = [node.lineno for node in label_reads(tree) if id(node) not in inside]
    assert inside and not outside, f"asymptotics.py reads case labels at lines {outside}"
