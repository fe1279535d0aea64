"""Guard: the expansions turn second-order terms into numbers one way.

``asymptotics.py`` writes every second-order term as a threshold-free spec
``(kind, coefficient, exponent, arg)``. One function, ``_spec_value``, turns
a spec into its value (it alone calls ``delta_correction``, the truncated
mean and the slowly varying ``h``), and only ``_evaluate`` wraps values into
``ExpansionTerm`` records, for the stated terms; ``_model_plan`` writes
every spec, the candidates' trait branches among them. A term evaluated or
an ``ExpansionTerm`` built anywhere else would be a second place that turns
the paper's terms into numbers, one that the stated value and its
candidates could disagree through. The scans read the source, so they also
catch code no test reaches; the last test pins that the candidates and the
inversion, which sum plain values, give the numbers of the records.
"""

import ast
from pathlib import Path

import pytest

import tailsum.asymptotics as asymptotics
from tailsum import ParetoMarginal, gumbel_pickands, tailprob_expansion_ev
from tailsum import var_from_tailprob_inversion

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tailsum" / "asymptotics.py"


def _called_name(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _sites(node, names, function=None):
    """``(function, line)`` of every call of one of ``names`` under
    ``node``, with the innermost enclosing function's name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if _called_name(node) in names:
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _sites(child, names, function)


def _functions(names) -> list:
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    return sorted({function for function, _ in _sites(tree, names)})


def test_expansion_terms_are_constructed_only_by_the_evaluator():
    assert _functions({"ExpansionTerm"}) == ["_evaluate"]


def test_term_factors_are_evaluated_only_by_the_spec_value():
    for name in ("delta_correction", "powered_tail_truncated_mean", "h"):
        assert _functions({name}) == ["_spec_value"], name


@pytest.mark.parametrize("phi", [1.0, 1.0001, 2.0, 10.0])
@pytest.mark.parametrize("alpha", [0.8, 2.0])
def test_plain_values_equal_the_sums_of_the_records(phi, alpha, monkeypatch):
    m, p = ParetoMarginal(alpha, 1.0), gumbel_pickands(phi)
    plan = asymptotics._model_plan(m, p)

    def recorded(specs, m, t, sf):
        return 2.0 * sf + sum(term.value for term in asymptotics._evaluate(specs, m, t, sf)[0])

    for sf in (1e-2, 1e-5, 1e-8, 1e-12):
        t = m.quantile(1.0 - sf)
        e = tailprob_expansion_ev(m, p, t)
        assert repr(e.value) == repr(recorded(plan.terms, m, t, m.survival(t)))
        for name, specs in (plan.candidates or {}).items():
            assert repr(e.candidates[name]) == repr(recorded(specs, m, t, m.survival(t))), name
    qs = (0.9, 0.99, 0.999)
    inverted = [var_from_tailprob_inversion(m, p, q).inverted for q in qs]
    monkeypatch.setattr(asymptotics, "_tail_value", recorded)
    assert repr(inverted) == repr([var_from_tailprob_inversion(m, p, q).inverted for q in qs])
