"""Self-time arithmetic and patching of the benchmark's tracer.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tailsum  # noqa: E402
import tailsum.asymptotics  # noqa: E402
import tailsum.cli  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, install, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 2),  # overlaps a, as a span of another thread would
        Span(4, "a.child", 2.0, 3.0, 2, 1),
        Span(5, "late", 9.0, 12.0, 1, 1),  # sticks out of its parent: clipped
        Span(6, "other-root", 20.0, 21.5, None, 1),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (5.0 + 1.0)
    assert own[2] == 3.0 - 1.0
    assert own[3] == 3.0
    assert own[4] == 1.0
    assert own[5] == 3.0
    assert own[6] == 1.5


def test_self_time_of_identical_children_counts_their_interval_once():
    spans = [
        Span(1, "root", 0.0, 4.0, None, 1),
        Span(2, "x", 1.0, 2.0, 1, 1),
        Span(3, "y", 1.0, 2.0, 1, 2),
    ]
    assert self_times(spans)[1] == 3.0


def test_spans_nest_per_thread():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        thread = threading.Thread(target=lambda: _one_span(tracer, "elsewhere"))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["elsewhere"].parent is None


def _one_span(tracer, name):
    with tracer.span(name):
        pass


def test_install_patches_every_binding_and_restores_it():
    original = tailsum.asymptotics.tailprob_expansion_ev
    tracer = Tracer()
    with install(tracer):
        patched = tailsum.asymptotics.tailprob_expansion_ev
        assert patched is not original
        assert tailsum.tailprob_expansion_ev is patched
        assert tailsum.cli.tailprob_expansion_ev is patched
        m, p = tailsum.ParetoMarginal(2.0), tailsum.gumbel_pickands(1.0)
        value = tailsum.tailprob_expansion_ev(m, p, 100.0).value
    assert tailsum.asymptotics.tailprob_expansion_ev is original
    assert tailsum.cli.tailprob_expansion_ev is original
    assert value == original(m, p, 100.0).value

    metrics = layer_metrics(tracer, traced_passes=1)
    assert metrics["asymptotics.tailprob_expansion_ev.calls"] == 1
    assert metrics["asymptotics.classify_case.calls"] == 1
    assert metrics["copulas.estimate_corner_slope.calls"] == 1
    assert metrics["asymptotics.classify_case.calls_per_model"] == 1
    assert metrics["marginals.survival.calls"] >= 1
    assert metrics["asymptotics.tailprob_expansion_ev.self_s"] > 0


def test_counts_are_attributed_to_the_enclosing_span():
    tracer = Tracer()
    m = tailsum.ParetoMarginal(0.8)
    traits = tailsum.gumbel_log_refined_traits(10.0)
    with install(tracer):
        tailsum.delta_correction(traits, m, 1e4)
    calls = layer_metrics(tracer, traced_passes=1)
    in_delta = tracer.counts[("marginals.density", "asymptotics.delta_correction")]
    assert in_delta > 0
    assert calls["asymptotics.delta_correction.density_evals_per_call"] == in_delta


def test_every_layer_metric_is_reported():
    names = {m.name for m in tracing.LAYER_METRICS}
    assert len(names) == len(tracing.LAYER_METRICS)
    computed = set(layer_metrics(Tracer(), traced_passes=1))
    # the rest need numbers from outside the traced passes and are filled in
    # by the worker and run.py
    assert names - computed == {
        "montecarlo.sample_pairs.ns_per_pair_1thread",
        "montecarlo.sample_pairs.thread_efficiency",
        "cli.import_s",
        "trace.overhead_s",
        "trace.overhead_frac",
    }
    assert computed <= names
