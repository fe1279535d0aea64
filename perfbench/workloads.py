"""The benchmark's workloads: inputs built from the seed, one pass, checks.

Every workload is a single closed-loop client: it starts an operation only
after the previous one returned. An operation is one call into the public
API of ``tailsum`` (or one CLI run) and is recorded as an ``Op`` with its
latency and a summary of its answer. The package is reached through
``tailsum.<name>`` attributes at call time, so the tracer's patches apply.

Op kinds shared by the end-to-end metrics: ``tail`` is one tail-probability
answer and ``var`` one Value-at-Risk answer, whatever layer gives it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tailsum
import tailsum.cli

# Fixed inputs. A change that claims a speed-up may not alter them.
ANALYTIC_ALPHAS = (0.8, 2.0)
ANALYTIC_TAIL_POINTS = 40
ANALYTIC_LOG10_SF = (-10.0, -2.0)
ANALYTIC_VAR_POINTS = 5
ANALYTIC_LOG10_1MQ = (-4.0, -2.0)
ANALYTIC_INVERSION_LEVELS = (0, 2, 4)  # indices into the VaR levels
MC_N = 10_000_000
MC_GRID_SF = (1e-2, 1e-5, 20)
MC_GRID_Q = (0.99, 0.995, 0.999, 0.9995, 0.9999)
CLI_N = 1_000_000
SCALE = 1.0
# The accuracy check of the analytic workloads (see analytic_reference).
ERROR_TABLE = Path(__file__).resolve().parent / "expansion_error.json"
ERROR_SLACK = 1.005
ERROR_FLOOR = 1e-9


@dataclass
class Op:
    """One timed operation; ops with equal keys repeat identical work and
    must give identical answers."""

    kind: str
    key: str
    seconds: float
    value: object = None
    error: Optional[str] = None


def _finite(value) -> bool:
    if isinstance(value, dict):
        return _finite(list(value.values()))
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def timed_op(kind: str, key: str, fn: Callable, summary: Optional[Callable] = None) -> tuple:
    """Run one operation; return ``(Op, raw result)``.

    ``summary`` turns the raw result into the answer recorded on the op,
    which must be finite. Any exception is recorded as the operation's
    failure instead of ending the run, so ``failed`` counts it.
    """
    start = time.perf_counter()
    try:
        raw = fn()
    except Exception as exc:  # the run continues and reports the failure
        seconds = time.perf_counter() - start
        return Op(kind, key, seconds, error=f"{type(exc).__name__}: {exc}"), None
    op = Op(kind, key, time.perf_counter() - start)
    if summary is not None:
        op.value = summary(raw)
        if not _finite(op.value):
            op.error = f"non-finite answer {op.value!r}"
    return op, raw


def _threshold(alpha: float, sf: float) -> float:
    """Pareto threshold with survival ``sf``, computed on the survival side."""
    return SCALE * (sf ** (-1.0 / alpha) - 1.0)


def _jittered(rng: np.random.Generator, lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` evenly spaced values in ``[lo, hi]``, each moved by up to
    half a step and clipped to the range."""
    base = np.linspace(lo, hi, points)
    half = (hi - lo) / (points - 1) / 2.0
    return np.clip(base + rng.uniform(-half, half, points), lo, hi)


# ---------------------------------------------------------------------------
# Analytic workloads
# ---------------------------------------------------------------------------


@dataclass
class AnalyticModel:
    alpha: float
    phi: float
    marginal: object
    pickands: object
    thresholds: tuple


@dataclass
class AnalyticInputs:
    models: list
    qs: tuple


def cell_edges(lo: float, hi: float, points: int) -> np.ndarray:
    """Edges of the ``points`` cells in which ``_jittered`` keeps its points:
    point ``i`` lies between edges ``i`` and ``i + 1``."""
    half = (hi - lo) / (points - 1) / 2.0
    return np.clip(np.linspace(lo - half, hi + half, points + 1), lo, hi)


def build_analytic(seed: int, phi: float) -> AnalyticInputs:
    rng = np.random.default_rng(seed)
    sfs = tuple(10.0 ** _jittered(rng, *ANALYTIC_LOG10_SF, ANALYTIC_TAIL_POINTS))
    qs = tuple(1.0 - 10.0 ** _jittered(rng, *ANALYTIC_LOG10_1MQ, ANALYTIC_VAR_POINTS))
    return AnalyticInputs(analytic_models(phi, sfs), qs)


def analytic_models(phi: float, sfs) -> list:
    return [
        AnalyticModel(
            alpha, phi, tailsum.ParetoMarginal(alpha, SCALE), tailsum.gumbel_pickands(phi),
            tuple(_threshold(alpha, sf) for sf in sfs),
        )
        for alpha in ANALYTIC_ALPHAS
    ]


def _expansion_answer(expansion) -> dict:
    """The expansion's value and every candidate refinement it offers; in
    the degenerate case only the candidates depend on ``delta_correction``."""
    return {"value": expansion.value, **(getattr(expansion, "candidates", None) or {})}


# kind -> (call on a model at a level, answer of the result)
QUERIES = {
    "tail": (lambda md, t: tailsum.tailprob_expansion_ev(md.marginal, md.pickands, t),
             _expansion_answer),
    "var": (lambda md, q: tailsum.var_expansion_ev(md.marginal, md.pickands, q),
            _expansion_answer),
    "inversion": (lambda md, q: tailsum.var_from_tailprob_inversion(md.marginal, md.pickands, q),
                  lambda r: {"inverted": r.inverted, "formula": r.formula}),
}


def analytic_queries(md: AnalyticModel, qs: tuple):
    """``(kind, op key, level, grid cell)`` of every query a pass makes on
    ``md``; a ``tail`` level is a threshold, the others a probability."""
    for i, t in enumerate(md.thresholds):
        yield "tail", f"a{md.alpha}/t{i}", t, i
    for j, q in enumerate(qs):
        yield "var", f"a{md.alpha}/q{j}", q, j
    for j in ANALYTIC_INVERSION_LEVELS:
        yield "inversion", f"a{md.alpha}/inv{j}", qs[j], j


def analytic_pass(inputs: AnalyticInputs, tracer=None, index: int = 0) -> list:
    ops = []
    for md in inputs.models:
        for kind, key, level, _ in analytic_queries(md, inputs.qs):
            call, answer = QUERIES[kind]
            op, _ = timed_op(kind, key, lambda: call(md, level), answer)
            ops.append(op)
    return ops


def import_oracles():
    """The test suite's independent quadrature oracle, ``tests/oracles.py``."""
    tests_dir = str(Path.cwd() / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import oracles

    return oracles


def log_errors(oracles, md: AnalyticModel, kind: str, level: float, answer: dict,
               cache: dict) -> dict:
    """``|log(x / exact)|`` for each number ``x`` of a query's answer, but
    an inversion's ``formula``, which is the ``var`` answer again.

    ``cache`` keeps the exact values, as VaR and inversion queries share
    their levels.
    """
    exact_of = oracles.exact_sum_tail if kind == "tail" else oracles.exact_sum_var
    ckey = (md.alpha, md.phi, exact_of.__name__, level)
    if ckey not in cache:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache[ckey] = exact_of(md.alpha, SCALE, "gumbel", md.phi, level)
    return {
        name: abs(math.log(x / cache[ckey])) for name, x in answer.items() if name != "formula"
    }


def error_key(md: AnalyticModel, kind: str) -> str:
    return f"phi{md.phi:g}/alpha{md.alpha:g}/{kind}"


def error_tolerances(table: list) -> list:
    """Tolerance per cell from the log errors at the cell edges."""
    return [
        ERROR_SLACK * max(lo, hi) + ERROR_FLOOR for lo, hi in zip(table[:-1], table[1:])
    ]


def analytic_reference(inputs: AnalyticInputs, answers: dict) -> tuple:
    """Check the expansions against the exact values, outside every timed region.

    Returns the mean ``|log(value / exact)|`` over the tail and the VaR
    grid, and per op key whose answer is too far from the exact value a
    message. Every number of an answer is checked: the value, each
    candidate refinement, the inverted VaR. Its tolerance is
    ``ERROR_SLACK`` times the larger log error the same number had, when
    the benchmark was added, at the two edges of its grid cell
    (``ERROR_TABLE``), plus ``ERROR_FLOOR``. So an expansion or quadrature
    made less accurate shows up as failed operations.
    """
    oracles = import_oracles()
    table = json.loads(ERROR_TABLE.read_text(encoding="utf-8"))
    means = {"tail": [], "var": []}
    too_far, cache = {}, {}
    for md in inputs.models:
        for kind, key, level, cell in analytic_queries(md, inputs.qs):
            if key not in answers:
                continue  # the op failed already
            errors = log_errors(oracles, md, kind, level, answers[key], cache)
            if kind in means:
                means[kind].append(errors["value"])
            reference = table[error_key(md, kind)]
            if set(errors) != set(reference):
                too_far[key] = f"answer has {sorted(errors)}, expected {sorted(reference)}"
                continue
            for name, err in errors.items():
                tol = error_tolerances(reference[name])[cell]
                if err > tol:
                    too_far[key] = (f"{name}: |log(answer / exact)| = {err:.3e} "
                                    f"> tolerance {tol:.3e}")
    return {
        "tail_logerr_mean": float(np.mean(means["tail"])),
        "var_logerr_mean": float(np.mean(means["var"])),
    }, too_far


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


@dataclass
class MCInputs:
    marginal: object
    phi: float
    seed: int
    n: int
    thresholds: tuple
    qs: tuple
    passes_per_sample: int


def build_mc(
    seed: int, alpha: float, phi: float, sfs: tuple, qs: tuple, passes_per_sample: int
) -> MCInputs:
    return MCInputs(
        tailsum.ParetoMarginal(alpha, SCALE), phi, seed, MC_N,
        tuple(_threshold(alpha, sf) for sf in sfs), tuple(qs), passes_per_sample,
    )


def _estimate(est) -> list:
    return [est.point, est.stderr, est.ci_low, est.ci_high]


def mc_seed(inputs: MCInputs, sample: int) -> int:
    """Sampler seed of the run's ``sample``-th sample."""
    return inputs.seed * 1000 + sample


def mc_pass(inputs: MCInputs, tracer=None, index: int = 0) -> list:
    m = inputs.marginal
    # a run draws many samples, because the estimators' speed depends on the
    # sample's values; consecutive passes may repeat one sample
    sample_no = index // inputs.passes_per_sample
    seed = mc_seed(inputs, sample_no)
    op, sample = timed_op(
        "sample", f"{sample_no}/sample",
        lambda: tailsum.sample_pairs(m, "gumbel", inputs.n, seed, phi=inputs.phi),
    )
    ops = [op]
    if sample is None:
        return ops
    for i, t in enumerate(inputs.thresholds):
        op, _ = timed_op("tail", f"{sample_no}/t{i}",
                         lambda: tailsum.empirical_tailprob(sample, t), _estimate)
        ops.append(op)
    for j, q in enumerate(inputs.qs):
        op, _ = timed_op("var", f"{sample_no}/q{j}",
                         lambda: tailsum.empirical_var(sample, q), _estimate)
        ops.append(op)
    return ops


def _digest(sample) -> str:
    h = hashlib.sha256()
    h.update(memoryview(sample.x))
    h.update(memoryview(sample.y))
    return h.hexdigest()


def mc_recount(inputs: MCInputs) -> dict:
    """Expected estimator outputs for sample 0 from a plain numpy recount,
    and the single-thread check, all outside the timed passes.

    Returns the expected answer per op key, whether the sample drawn with
    one thread equals the default-thread sample bit for bit, and the
    single-thread sampling time.
    """
    m = inputs.marginal
    seed = mc_seed(inputs, 0)
    sample = tailsum.sample_pairs(m, "gumbel", inputs.n, seed, phi=inputs.phi)
    default_digest = _digest(sample)
    n = sample.x.size
    ordered = np.sort(sample.x + sample.y)
    del sample
    expected = {}
    for i, t in enumerate(inputs.thresholds):
        p = (n - int(np.searchsorted(ordered, t, side="right"))) / n
        expected[f"0/t{i}"] = [p, math.sqrt(p * (1.0 - p) / n), None, None]
    for j, q in enumerate(inputs.qs):
        k = int(math.floor(n * q))
        d = int(math.ceil(3.0 * math.sqrt(n * q * (1.0 - q))))
        lo, hi = max(k - d, 1), min(k + d, n)
        low, high = float(ordered[lo - 1]), float(ordered[hi - 1])
        expected[f"0/q{j}"] = [float(ordered[k - 1]), (high - low) / 6.0, low, high]
    del ordered
    start = time.perf_counter()
    single = tailsum.sample_pairs(m, "gumbel", inputs.n, seed, phi=inputs.phi, threads=1)
    t1 = time.perf_counter() - start
    same = _digest(single) == default_digest
    return {"expected": expected, "threads_agree": same, "sample_1thread_s": t1}


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


@dataclass
class CLICommand:
    kind: str
    key: str
    argv: list
    expect: int
    outputs: list = field(default_factory=list)


@dataclass
class CLIInputs:
    commands: list
    in_process: bool
    n: int = CLI_N


def build_cli(seed: int, work: Path, in_process: bool) -> CLIInputs:
    s, n = str(seed), str(CLI_N)
    figs = work / "figures"
    figure_csvs = [figs / f"figure{f}-{x}.csv" for f in (1, 2) for x in "abcd"]
    commands = [
        CLICommand("figures", "figures",
                   ["reproduce-figures", "--n", n, "--seed", s, "--out-dir", str(figs)], 0,
                   figure_csvs),
        CLICommand("tail", "tailprob",
                   ["tailprob", "--alpha", "0.8", "--family", "gumbel", "--phi", "10",
                    "--n", n, "--seed", s, "--out-csv", str(work / "tailprob.csv")], 0,
                   [work / "tailprob.csv"]),
        CLICommand("var", "var",
                   ["var", "--alpha", "2", "--family", "gumbel", "--phi", "1",
                    "--n", n, "--seed", s, "--out-csv", str(work / "var.csv")], 0,
                   [work / "var.csv"]),
        CLICommand("check", "check-gumbel", ["check", "--family", "gumbel", "--phi", "10"], 0),
        CLICommand("check", "check-log-interaction",
                   ["check", "--family", "log-interaction", "--sigma", "0.5"], 4),
    ]
    return CLIInputs(commands, in_process)


def _run_cli(inputs: CLIInputs, cmd: CLICommand, tracer) -> int:
    if not inputs.in_process:
        # the environment run.py gave this process puts src on the path
        done = subprocess.run(
            [sys.executable, "-m", "tailsum.cli", *cmd.argv], capture_output=True, timeout=150,
        )
        return done.returncode
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            return tailsum.cli.main(cmd.argv)
        with tracer.span(f"cli.{cmd.argv[0].replace('-', '_')}"):
            return tailsum.cli.main(cmd.argv)


def cli_pass(inputs: CLIInputs, tracer=None, index: int = 0) -> list:
    ops = []
    for cmd in inputs.commands:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        op, code = timed_op(cmd.kind, cmd.key, lambda: _run_cli(inputs, cmd, tracer))
        if op.error is None:
            if code != cmd.expect:
                op.error = f"exit code {code}, expected {cmd.expect}"
            else:
                h = hashlib.sha256()
                for path in cmd.outputs:
                    h.update(path.read_bytes())
                # the byte digest of the written CSVs is the answer that must
                # repeat from pass to pass
                op.value = [code, h.hexdigest()]
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "analytic", "mc" or "cli"
    build: Callable  # (seed, work_dir, trace) -> inputs
    run_pass: Callable  # (inputs, tracer, pass index) -> list of Op


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-phi1",
            "Gumbel phi=1, alpha 0.8 and 2: case classification dominates each "
            "sub-millisecond query; no quadrature-heavy branch and no Monte Carlo.",
            "analytic",
            lambda seed, work, trace: build_analytic(seed, 1.0),
            analytic_pass,
        ),
        Workload(
            "analytic-phi10",
            "Gumbel phi=10, alpha 0.8 and 2: the degenerate-case delta_correction "
            "quadrature dominates 2-25 ms queries; no Monte Carlo.",
            "analytic",
            lambda seed, work, trace: build_analytic(seed, 10.0),
            analytic_pass,
        ),
        Workload(
            "mc-gumbel",
            "Sampler-bound: Gumbel phi=10 Kanter/Marshall-Olkin sampling of 1e7 pairs, "
            "then one tail and one VaR estimate.",
            "mc",
            lambda seed, work, trace: build_mc(seed, 0.8, 10.0, (1e-3,), (0.999,), 2),
            mc_pass,
        ),
        Workload(
            "mc-grid",
            "Estimator-bound: cheap phi=1 sample of 1e7 pairs read by 20 tail and "
            "5 VaR estimates, each rebuilding x + y.",
            "mc",
            lambda seed, work, trace: build_mc(
                seed, 2.0, 1.0, tuple(np.geomspace(*MC_GRID_SF)), MC_GRID_Q,
                # traced runs pair an untraced and a traced pass on each sample
                2 if trace else 1,
            ),
            mc_pass,
        ),
        Workload(
            "cli",
            "Five CLI runs in fresh interpreters: the only workload timing import, "
            "the CLI, the SVG writer and the hypothesis checker.",
            "cli",
            lambda seed, work, trace: build_cli(seed, work, in_process=bool(trace)),
            cli_pass,
        ),
    )
}
