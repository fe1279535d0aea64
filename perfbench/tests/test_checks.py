"""The analytic accuracy check and the pairing of traced passes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def test_a_cell_tolerance_scales_the_larger_edge_error():
    tolerances = workloads.error_tolerances([1.0, 2.0, 0.5])
    want = workloads.ERROR_SLACK * 2.0 + workloads.ERROR_FLOOR
    assert tolerances == [want, want]


def test_accuracy_check_fails_an_answer_one_percent_off(monkeypatch):
    monkeypatch.chdir(ROOT)  # the oracle is read from tests/
    inputs = workloads.build_analytic(3, 10.0)
    md = inputs.models[0]
    answers = {}
    for kind, key, level, _ in workloads.analytic_queries(md, inputs.qs):
        if key in (f"a{md.alpha}/t5", f"a{md.alpha}/t6", f"a{md.alpha}/q1"):
            call, answer = workloads.QUERIES[kind]
            answers[key] = answer(call(md, level))
    answers[f"a{md.alpha}/t6"]["log_refined"] *= 1.01
    means, too_far = workloads.analytic_reference(inputs, answers)
    assert set(too_far) == {f"a{md.alpha}/t6"}
    assert "log_refined" in too_far[f"a{md.alpha}/t6"]
    assert means["tail_logerr_mean"] > 0.0


def _passes(*walls):
    """Passes of a traced run: pairs of equal work, traced first in every other pair."""
    return [
        {"wall_s": w, "traced": (i + i // 2) % 2 == 1, "work": str(i // 2)}
        for i, w in enumerate(walls)
    ]


def test_tracing_overhead_is_the_median_over_pairs():
    result = {"layers": {}, "passes": _passes(1.0, 1.5, 3.0, 2.0, 1.0, 1.1)}
    layers = run.per_layer([0.5], result)
    assert layers["trace.overhead_s"] == pytest.approx(0.5)
    assert layers["trace.overhead_frac"] == pytest.approx(0.5)
    assert layers["cli.import_s"] == 0.5


def test_unpaired_passes_are_an_error():
    passes = _passes(1.0, 1.5)
    passes[1]["work"] = "other"
    with pytest.raises(run.BenchmarkError):
        run.per_layer([0.5], {"layers": {}, "passes": passes})
