"""In-memory span tracer that measures tailsum's layers from outside.

The tracer never edits the package. ``install`` replaces each traced public
function, in every ``tailsum`` module that binds it, by a wrapper that
records a span (name, start, end, parent, thread, argument key) or, for the
per-quadrature-node marginal methods, only a count. Spans stay in memory
until the run ends. A span's parent is the innermost open span of the same
thread, so spans opened inside the sampler's worker threads have no parent.

``self_times`` and ``layer_metrics`` turn the spans of the traced passes into
the per-layer metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    key: object = None


class Tracer:
    """Collects spans and counts; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (counted name, name of the innermost open span or None) -> calls
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, key: object = None):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), key)
            )

    def timed(self, name: str, fn: Callable, key: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so that every call records a span named ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, key(*args, **kwargs) if key else None):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that every call is counted, attributed to the
        innermost open span of the calling thread, and not timed."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            enclosing = stack[-1][1] if stack else None
            with tracer._lock:
                tracer.counts[(name, enclosing)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------


def _model_key(alpha, p, *args, **kwargs):
    return (alpha, p.family, p.param)


def _args_key(*args, **kwargs):
    return args


def _sample_size_key(*args, **kwargs):
    n = kwargs["n"] if "n" in kwargs else args[2]
    return int(n)


def _pairs_size_key(pairs, *args, **kwargs):
    return int(pairs.x.size)


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module or ``module:Class``."""

    name: str
    owner: str
    attr: str
    timed: bool = True
    key: Optional[Callable] = None


TARGETS = (
    Target("asymptotics.classify_case", "tailsum.asymptotics", "classify_case", key=_model_key),
    Target("asymptotics.integral_I", "tailsum.asymptotics", "integral_I", key=_args_key),
    Target("asymptotics.power_term_coefficient", "tailsum.asymptotics", "power_term_coefficient"),
    Target("asymptotics.delta_correction", "tailsum.asymptotics", "delta_correction"),
    Target("asymptotics.tailprob_expansion_ev", "tailsum.asymptotics", "tailprob_expansion_ev"),
    Target("asymptotics.var_expansion_ev", "tailsum.asymptotics", "var_expansion_ev"),
    Target(
        "asymptotics.var_from_tailprob_inversion",
        "tailsum.asymptotics", "var_from_tailprob_inversion",
    ),
    Target("copulas.estimate_corner_slope", "tailsum.copulas", "estimate_corner_slope"),
    Target("copulas.tail_order_traits", "tailsum.copulas", "tail_order_traits"),
    Target("copulas.gumbel_log_refined_traits", "tailsum.copulas", "gumbel_log_refined_traits"),
    Target("copulas.check_assumptions", "tailsum.copulas", "check_assumptions"),
    Target("marginals.truncated_mean", "tailsum.marginals:ParetoMarginal", "truncated_mean"),
    Target(
        "marginals.powered_tail_truncated_mean",
        "tailsum.marginals:ParetoMarginal", "powered_tail_truncated_mean",
    ),
    Target("marginals.quantile", "tailsum.marginals:ParetoMarginal", "quantile"),
    Target("marginals.survival", "tailsum.marginals:ParetoMarginal", "survival", timed=False),
    Target("marginals.density", "tailsum.marginals:ParetoMarginal", "density", timed=False),
    Target("montecarlo.sample_pairs", "tailsum.montecarlo", "sample_pairs", key=_sample_size_key),
    Target(
        "montecarlo.empirical_tailprob", "tailsum.montecarlo", "empirical_tailprob",
        key=_pairs_size_key,
    ),
    Target(
        "montecarlo.empirical_var", "tailsum.montecarlo", "empirical_var", key=_pairs_size_key
    ),
    Target("svg.render_line_chart", "tailsum._svg", "render_line_chart"),
)


def _tailsum_modules() -> Iterable:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "tailsum" or name.startswith("tailsum."))
    ]


@contextlib.contextmanager
def install(tracer: Tracer, targets: Iterable[Target] = TARGETS):
    """Patch every target while the block runs; restore the originals after."""
    importlib.import_module("tailsum.cli")
    modules = _tailsum_modules()
    undo = []
    try:
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            owners = [getattr(module, class_name)] if class_name else modules
            original = getattr(owners[0] if class_name else module, target.attr)
            if target.timed:
                wrapper = tracer.timed(target.name, original, target.key)
            else:
                wrapper = tracer.counted(target.name, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        undo.append((owner, attr, value))
                        setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals: list) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict:
    """Map span id to its duration minus the time its child spans cover."""
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]
        ]
        out[span.id] = (span.end - span.start) - _covered(clipped)
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str


_TIMED_CALLS_SELF = (
    "asymptotics.classify_case",
    "copulas.estimate_corner_slope",
    "asymptotics.integral_I",
    "asymptotics.power_term_coefficient",
    "copulas.tail_order_traits",
    "asymptotics.delta_correction",
    "copulas.gumbel_log_refined_traits",
    "asymptotics.tailprob_expansion_ev",
    "asymptotics.var_expansion_ev",
    "asymptotics.var_from_tailprob_inversion",
    "marginals.truncated_mean",
    "marginals.powered_tail_truncated_mean",
    "montecarlo.sample_pairs",
    "montecarlo.empirical_tailprob",
    "montecarlo.empirical_var",
    "copulas.check_assumptions",
    "svg.render_line_chart",
)

CLI_COMMANDS = ("tailprob", "var", "check", "reproduce_figures")

LAYER_METRICS = tuple(
    [
        m for name in _TIMED_CALLS_SELF
        for m in (LayerMetric(f"{name}.calls", "count"), LayerMetric(f"{name}.self_s", "s"))
    ]
    + [
        LayerMetric("asymptotics.classify_case.calls_per_model", "ratio"),
        LayerMetric("asymptotics.integral_I.calls_per_distinct_args", "ratio"),
        LayerMetric("asymptotics.delta_correction.density_evals_per_call", "count"),
        LayerMetric("asymptotics.var_from_tailprob_inversion.tail_evals_per_root", "count"),
        LayerMetric("marginals.survival.calls", "count"),
        LayerMetric("marginals.density.calls", "count"),
        LayerMetric("marginals.quantile.calls", "count"),
        LayerMetric("marginals.quantile.busy_s", "s"),
        LayerMetric("montecarlo.sample_pairs.ns_per_pair", "ns"),
        LayerMetric("montecarlo.sample_pairs.ns_per_pair_1thread", "ns"),
        LayerMetric("montecarlo.sample_pairs.thread_efficiency", "ratio"),
        LayerMetric("montecarlo.sample_pairs.threads", "count"),
        LayerMetric("montecarlo.empirical_tailprob.ms_per_call", "ms"),
        LayerMetric("montecarlo.empirical_var.ms_per_call", "ms"),
        LayerMetric("montecarlo.sum_passes_per_sample", "count"),
        LayerMetric("montecarlo.bytes_computed", "bytes"),
    ]
    + [LayerMetric(f"cli.{cmd}.self_s", "s") for cmd in CLI_COMMANDS]
    + [
        LayerMetric("cli.import_s", "s"),
        LayerMetric("trace.overhead_s", "s"),
        LayerMetric("trace.overhead_frac", "ratio"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_passes: int) -> dict:
    """Per-layer metrics from the spans and counts of ``traced_passes`` passes.

    Calls, self times and busy times are per traced pass, and so are the
    calls in the ``calls_per_*`` ratios: their ideal of 1 means one call per
    distinct argument set and pass. Ratios are 0 where their base is 0, i.e.
    on workloads that bypass the layer. The metrics
    that need numbers from outside the traced passes (the single-thread
    sampler baseline, import time, tracing overhead) are filled by the
    caller.
    """
    per_pass = max(traced_passes, 1)
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    out = {}
    for name in _TIMED_CALLS_SELF:
        out[f"{name}.calls"] = calls(name) / per_pass
        out[f"{name}.self_s"] = sum(own[s.id] for s in by_name[name]) / per_pass

    for name, metric in (
        ("asymptotics.classify_case", "calls_per_model"),
        ("asymptotics.integral_I", "calls_per_distinct_args"),
    ):
        distinct = len({s.key for s in by_name[name]})
        out[f"{name}.{metric}"] = _ratio(calls(name) / per_pass, distinct)

    density_in_delta = tracer.counts[("marginals.density", "asymptotics.delta_correction")]
    out["asymptotics.delta_correction.density_evals_per_call"] = _ratio(
        density_in_delta, calls("asymptotics.delta_correction")
    )
    inversion_ids = {s.id for s in by_name["asymptotics.var_from_tailprob_inversion"]}
    tail_in_inversion = sum(
        1 for s in by_name["asymptotics.tailprob_expansion_ev"] if s.parent in inversion_ids
    )
    out["asymptotics.var_from_tailprob_inversion.tail_evals_per_root"] = _ratio(
        tail_in_inversion, len(inversion_ids)
    )

    for name in ("marginals.survival", "marginals.density"):
        total = sum(c for (counted, _), c in tracer.counts.items() if counted == name)
        out[f"{name}.calls"] = total / per_pass

    quantile = by_name["marginals.quantile"]
    out["marginals.quantile.calls"] = len(quantile) / per_pass
    out["marginals.quantile.busy_s"] = sum(s.end - s.start for s in quantile) / per_pass

    samples = by_name["montecarlo.sample_pairs"]
    pairs = sum(s.key for s in samples)
    out["montecarlo.sample_pairs.ns_per_pair"] = _ratio(
        sum(s.end - s.start for s in samples) * 1e9, pairs
    )
    # a sampler call starts its own worker threads, so count per call
    out["montecarlo.sample_pairs.threads"] = float(max(
        (len({q.thread for q in quantile if s.start <= q.start and q.end <= s.end})
         for s in samples),
        default=0,
    ))

    estimators = ("montecarlo.empirical_tailprob", "montecarlo.empirical_var")
    for name in estimators:
        spans_of = by_name[name]
        out[f"{name}.ms_per_call"] = _ratio(
            sum(s.end - s.start for s in spans_of) * 1e3, len(spans_of)
        )
    estimator_calls = sum(calls(name) for name in estimators)
    out["montecarlo.sum_passes_per_sample"] = _ratio(estimator_calls, len(samples))
    # computed from array sizes, not measured: each estimator call at this
    # commit reads x and y and writes x + y, 8 bytes each per pair
    out["montecarlo.bytes_computed"] = (
        24.0 * sum(s.key for name in estimators for s in by_name[name]) / per_pass
    )

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = sum(own[s.id] for s in by_name[f"cli.{cmd}"]) / per_pass
    return out
