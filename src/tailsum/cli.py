"""Command line interface.

Subcommands
-----------
``tailprob``
    Evaluate the tail expansion of the sum over a threshold grid next to a
    Monte Carlo estimate, and write a CSV (optionally an SVG chart).
``var``
    Same for the quantile expansion over a probability grid.
``check``
    Run the scaling hypothesis checks for a copula family and report a
    verdict per hypothesis.
``reproduce-figures``
    Regenerate the standard comparison figures (weak and strong dependence,
    both tail indices, tail probability and quantile panels).

Exit codes
----------
0 success (including an inconclusive check, which prints a warning),
2 configuration or usage error, 3 boundary-case error (the expansion is
undefined on a parameter boundary), 4 hypothesis-check failure, 5 I/O error.

Configuration
-------------
``--config FILE`` reads flat ``key = value`` lines (``#`` comments allowed);
explicit command line flags override file values. Keys mirror the flags:
``marginal.alpha``, ``marginal.scale``, ``copula.family``, ``copula.phi``,
``copula.sigma``, ``mc.n``, ``mc.seed``, ``grid.t``, ``grid.q``,
``grid.sf_min``, ``grid.sf_max``, ``grid.points``, ``out.csv``, ``out.svg``,
``out.dir``, ``check.log10_t``, ``check.grid``, ``check.tolerance``,
``check.trial_kappa``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from ._svg import render_line_chart
from .asymptotics import tailprob_expansion_ev, var_expansion_ev
from .copulas import (
    _EV_FAMILIES,
    _FAMILY_PARAMS,
    check_assumptions,
    gumbel_pickands,
    make_survival_copula,
    trial_tail_order_traits,
)
from .errors import (
    BoundaryCaseError,
    ConfigError,
    DomainError,
    UnsupportedFamilyError,
)
from .marginals import ParetoMarginal
from .montecarlo import empirical_tailprob, empirical_var, sample_pairs

__all__ = ["main"]

CSV_HEADER = (
    "abscissa",
    "first_order",
    "expansion",
    "mc_point",
    "mc_stderr",
    "case_label",
    "diagnostics",
)

_KNOWN_KEYS = {
    "marginal.alpha",
    "marginal.scale",
    "copula.family",
    "copula.phi",
    "copula.sigma",
    "mc.n",
    "mc.seed",
    "grid.t",
    "grid.q",
    "grid.sf_min",
    "grid.sf_max",
    "grid.points",
    "out.csv",
    "out.svg",
    "out.dir",
    "check.log10_t",
    "check.grid",
    "check.tolerance",
    "check.trial_kappa",
}

_DEFAULT_Q_GRID = (0.99, 0.995, 0.999, 0.9995, 0.9999)
# family name -> its dependence function, given the gumbel exponent; the
# comonotone family has no expansion (see _resolve_family)
_EXPANSION_PICKANDS = {k: v for k, v in _EV_FAMILIES.items() if k != "comonotone"}
# panel kind -> (chart title, x label, y label, logarithmic x axis)
_PANEL_AXES = {
    "tailprob": ("Tail of the sum", "threshold t", "P(X + Y > t)", True),
    "var": ("Quantile of the sum", "probability level q", "quantile of X + Y", False),
}
_MIN_MC_N = 1000


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in _KNOWN_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    return values


class _Settings:
    """Resolved configuration: defaults, then file values, then flags."""

    def __init__(self, file_values: dict, args: argparse.Namespace) -> None:
        self._file = file_values
        self._args = args

    def _flag(self, attr: str):
        return getattr(self._args, attr, None)

    def get(self, key: str, attr: str, default=None, cast=None):
        value = self._flag(attr)
        if value is None and key in self._file:
            value = self._file[key]
        if value is None:
            return default
        if cast is not None and isinstance(value, str):
            try:
                return cast(value)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {key}: {value!r}") from exc
        return value

    def require(self, key: str, attr: str, cast=None):
        value = self.get(key, attr, default=None, cast=cast)
        if value is None:
            raise ConfigError(f"missing required setting {key} (flag --{attr.replace('_', '-')})")
        return value


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _resolve_marginal(cfg: _Settings) -> ParetoMarginal:
    alpha = cfg.require("marginal.alpha", "alpha", cast=float)
    scale = cfg.get("marginal.scale", "scale", default=1.0, cast=float)
    return ParetoMarginal(alpha=float(alpha), scale=float(scale))


def _resolve_family(cfg: _Settings, *, for_expansion: bool) -> tuple:
    family = cfg.require("copula.family", "family")
    phi = cfg.get("copula.phi", "phi", cast=float)
    sigma = cfg.get("copula.sigma", "sigma", cast=float)
    if for_expansion:
        if family == "comonotone":
            raise ConfigError(
                "the comonotone family sits on the boundary the expansions exclude; "
                "use the check subcommand or Monte Carlo directly"
            )
        if family not in _EXPANSION_PICKANDS:
            raise ConfigError(
                f"family {family!r} has no tail expansion; "
                f"expected one of {tuple(_EXPANSION_PICKANDS)}"
            )
        if family == "gumbel" and phi is None:
            raise ConfigError("the gumbel family requires copula.phi (flag --phi)")
    for name, value in (("phi", phi), ("sigma", sigma)):
        # an unknown family is reported by make_survival_copula
        if value is not None and _FAMILY_PARAMS.get(family, name) != name:
            raise ConfigError(f"family {family!r} takes no copula.{name} (flag --{name})")
    return family, phi, sigma


def _resolve_mc(cfg: _Settings) -> tuple:
    n = cfg.get("mc.n", "n", default=100000, cast=int)
    n = int(n)
    if n < _MIN_MC_N:
        raise ConfigError(f"mc.n must be at least {_MIN_MC_N}, got {n}")
    seed = cfg.get("mc.seed", "seed", cast=int)
    if seed is None:
        raise ConfigError(
            "mc.seed is required for Monte Carlo comparisons (flag --seed); "
            "runs must be reproducible"
        )
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"mc.seed must be nonnegative, got {seed}")
    return n, seed


def _resolve_t_grid(cfg: _Settings, m: ParetoMarginal) -> tuple:
    explicit = cfg.get("grid.t", "t")
    if explicit is not None:
        ts = _float_list(explicit)
        if not ts:
            raise ConfigError("grid.t must contain at least one threshold")
        return ts
    sf_min = float(cfg.get("grid.sf_min", "sf_min", default=1e-5, cast=float))
    sf_max = float(cfg.get("grid.sf_max", "sf_max", default=1e-2, cast=float))
    points = int(cfg.get("grid.points", "points", default=20, cast=int))
    if not (0.0 < sf_min < sf_max < 1.0):
        raise ConfigError(
            f"survival grid needs 0 < sf_min < sf_max < 1, got {sf_min}, {sf_max}"
        )
    if points < 2:
        raise ConfigError(f"grid.points must be at least 2, got {points}")
    # 1 - sf_min may round to 1, or its quantile overflow at a tiny alpha
    with np.errstate(over="ignore"):
        if 1.0 - sf_min == 1.0 or not math.isfinite(m.quantile(1.0 - sf_min)):
            raise ConfigError(f"grid.sf_min {sf_min} has no finite threshold at alpha {m.alpha}")
    sfs = np.geomspace(sf_max, sf_min, points)
    return tuple(float(m.quantile(1.0 - sf)) for sf in sfs)


def _resolve_q_grid(cfg: _Settings) -> tuple:
    explicit = cfg.get("grid.q", "q")
    if explicit is None:
        return _DEFAULT_Q_GRID
    qs = _float_list(explicit)
    if not qs:
        raise ConfigError("grid.q must contain at least one probability level")
    return qs


def _format(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(path: Optional[str], rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows([[_format(v) for v in row] for row in rows])
    if path is None or path == "-":
        sys.stdout.write(buf.getvalue())
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def _diagnostics_text(expansion) -> str:
    parts = list(expansion.diagnostics)
    if getattr(expansion, "candidates", None):
        joined = " ".join(
            f"{name}={format(val, '.17g')}"
            for name, val in sorted(expansion.candidates.items())
        )
        parts.append(f"candidates: {joined}")
    return "; ".join(parts)


def _panel_rows(kind: str, m: ParetoMarginal, pickands, grid, sample) -> list:
    """One CSV row per grid point: the expansion at a threshold
    (``kind == "tailprob"``) or a probability level (``"var"``) next to the
    Monte Carlo estimate on ``sample``."""
    # read the module attributes at call time, not from a table built at
    # import, so perfbench's tracer sees the calls it patches in
    if kind == "tailprob":
        expand, estimate = tailprob_expansion_ev, empirical_tailprob
    else:
        expand, estimate = var_expansion_ev, empirical_var
    rows = []
    for x in grid:
        expansion = expand(m, pickands, x)
        est = estimate(sample, x)
        rows.append(
            (x, expansion.first_order, expansion.value, est.point, est.stderr,
             expansion.case.label, _diagnostics_text(expansion))
        )
    return rows


def _write_panel(
    kind: str, rows: list, csv_path: Optional[str], svg_path: Optional[str],
    model: str, n: int, seed: int,
) -> None:
    """Write the rows as CSV and, when ``svg_path`` is set, chart the
    expansion against Monte Carlo."""
    _write_rows(csv_path, rows)
    if not svg_path:
        return
    title, xlabel, ylabel, logx = _PANEL_AXES[kind]
    xs = [row[0] for row in rows]
    render_line_chart(
        svg_path,
        title=f"{title} ({model})",
        xlabel=xlabel,
        ylabel=ylabel,
        series=[
            ("expansion", xs, [row[2] for row in rows]),
            (f"monte carlo (n={n}, seed={seed})", xs, [row[3] for row in rows]),
        ],
        logx=logx,
        logy=True,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_panel(cfg: _Settings, kind: str) -> int:
    m = _resolve_marginal(cfg)
    family, phi, _ = _resolve_family(cfg, for_expansion=True)
    n, seed = _resolve_mc(cfg)
    grid = _resolve_t_grid(cfg, m) if kind == "tailprob" else _resolve_q_grid(cfg)

    pickands = _EXPANSION_PICKANDS[family](phi)
    sample = sample_pairs(m, family, n, seed, phi=pickands.param)
    rows = _panel_rows(kind, m, pickands, grid, sample)
    _write_panel(
        kind, rows, cfg.get("out.csv", "out_csv"), cfg.get("out.svg", "out_svg"),
        f"{family}, alpha={m.alpha:g}", n, seed,
    )
    return 0


def _check_verdict_word(passed) -> str:
    if passed is True:
        return "pass"
    if passed is False:
        return "fail"
    return "inconclusive"


def _print_report(report, heading: str) -> None:
    print(heading)
    print(f"  scales (log10 t): {', '.join(f'{x:g}' for x in report.log10_t_sequence)}")
    print(f"  grid: {', '.join(f'{x:g}' for x in report.grid)}; tolerance {report.tolerance:g}")
    for warning in report.warnings:
        print(f"  note: {warning}")
    for name, result in report.checks.items():
        fitted = f", fitted c={result.fitted_c:.6g}" if result.fitted_c is not None else ""
        note = f" ({result.note})" if result.note else ""
        print(
            f"  {name}: {_check_verdict_word(result.passed)}"
            f" [final deviation {result.last_deviation:.3e}{fitted}]{note}"
        )
    for name in report.skipped:
        print(f"  {name}: skipped (not applicable)")


def _cmd_check(cfg: _Settings) -> int:
    family, phi, sigma = _resolve_family(cfg, for_expansion=False)
    copula = make_survival_copula(family, phi=phi, sigma=sigma)

    # settings the user left unset take check_assumptions' defaults; the
    # default scales follow the copula's corner
    kwargs = {}
    log10_raw = cfg.get("check.log10_t", "log10_t")
    if log10_raw is not None:
        kwargs["log10_t_sequence"] = _float_list(log10_raw)
    grid_raw = cfg.get("check.grid", "scale_grid")
    if grid_raw is not None:
        kwargs["grid"] = _float_list(grid_raw)
    tolerance = cfg.get("check.tolerance", "tolerance", cast=float)
    if tolerance is not None:
        kwargs["tolerance"] = float(tolerance)

    csv_rows = []
    trial_raw = cfg.get("check.trial_kappa", "trial_kappa")
    if copula.pickands is not None:
        if trial_raw is not None:
            raise ConfigError(f"family {family!r} has a tail order; drop check.trial_kappa")
        reports = [(None, check_assumptions(copula, **kwargs))]
    else:
        if trial_raw is not None:
            trial_kappas = _float_list(trial_raw)
        else:
            trial_kappas = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))
        print(
            f"family {family!r} has no declared tail order; "
            f"sweeping trial orders {', '.join(f'{k:g}' for k in trial_kappas)}"
        )
        reports = [
            (kappa, check_assumptions(copula, trial_tail_order_traits(kappa), **kwargs))
            for kappa in trial_kappas
        ]

    for kappa, report in reports:
        heading = (
            f"checks for family {family!r}"
            if kappa is None
            else f"checks for family {family!r} with trial tail order {kappa:g}"
        )
        _print_report(report, heading)
        for name, result in report.checks.items():
            csv_rows.append(
                (
                    "" if kappa is None else format(float(kappa), ".17g"),
                    name,
                    _check_verdict_word(result.passed),
                    format(result.last_deviation, ".17g"),
                    "" if result.fitted_c is None else format(result.fitted_c, ".17g"),
                    result.note,
                )
            )

    out_csv = cfg.get("out.csv", "out_csv")
    if out_csv and out_csv != "-":
        with open(out_csv, "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ("trial_kappa", "check", "verdict", "final_deviation", "fitted_c", "note")
            )
            writer.writerows(csv_rows)

    if any(report.all_pass for _, report in reports):
        if len(reports) > 1:
            passing = [k for k, report in reports if report.all_pass]
            print(f"verdict: pass (trial tail order {', '.join(f'{k:g}' for k in passing)})")
        else:
            print("verdict: pass")
        return 0
    if all(report.any_fail for _, report in reports):
        print("verdict: fail (at least one scaling hypothesis rejected)")
        return 4
    print(
        "verdict: inconclusive (no hypothesis rejected, but the evidence "
        "did not stabilise; warning only)"
    )
    return 0


def _cmd_reproduce_figures(cfg: _Settings) -> int:
    n, seed = _resolve_mc(cfg)
    out_dir = cfg.get("out.dir", "out_dir", default="figures")
    phi_setting = cfg.get("copula.phi", "phi", cast=float)
    phis = (float(phi_setting),) if phi_setting is not None else (1.0, 10.0)

    os.makedirs(out_dir, exist_ok=True)
    alphas = (0.8, 2.0)
    sf_grid = np.geomspace(1e-2, 1e-5, 20)

    for phi in phis:
        fig_index = 1 if phi == 1.0 else 2
        pickands = gumbel_pickands(phi)
        samples = {
            alpha: sample_pairs(ParetoMarginal(alpha, 1.0), "gumbel", n, seed, phi=phi)
            for alpha in alphas
        }
        panels = (
            ("a", alphas[0], "tailprob"),
            ("b", alphas[1], "tailprob"),
            ("c", alphas[0], "var"),
            ("d", alphas[1], "var"),
        )
        for letter, alpha, kind in panels:
            m = ParetoMarginal(alpha, 1.0)
            if kind == "tailprob":
                grid = [m.quantile(1.0 - float(sf)) for sf in sf_grid]
            else:
                grid = _DEFAULT_Q_GRID
            rows = _panel_rows(kind, m, pickands, grid, samples[alpha])
            base = os.path.join(out_dir, f"figure{fig_index}-{letter}")
            _write_panel(
                kind, rows, base + ".csv", base + ".svg",
                f"gumbel phi={phi:g}, alpha={alpha:g}", n, seed,
            )
        # release this phi's samples before the next phi draws its own
        del samples
        print(f"wrote figure{fig_index}-a..d (.csv, .svg) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailsum",
        description=(
            "Asymptotic tail and quantile expansions for the sum of two "
            "heavy-tailed dependent risks, with a seedable Monte Carlo reference."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--alpha", type=float, help="marginal tail index (positive)")
    model.add_argument("--scale", type=float, help="marginal scale (default 1)")
    model.add_argument(
        "--family",
        help="copula family: independence, gumbel, comonotone, log-interaction",
    )
    model.add_argument("--phi", type=float, help="gumbel interaction exponent (>= 1)")
    model.add_argument("--sigma", type=float, help="log-interaction strength in (0, 1]")

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--n", type=int, help=f"Monte Carlo sample size (default 100000, min {_MIN_MC_N})")
    mc.add_argument("--seed", type=int, help="Monte Carlo seed (required)")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-csv", help="CSV output path ('-' or omitted: stdout)")
    out.add_argument("--out-svg", help="optional SVG chart path")

    p_tail = sub.add_parser(
        "tailprob",
        parents=[common, model, mc, out],
        help="tail expansion of the sum over a threshold grid, next to Monte Carlo",
    )
    p_tail.add_argument("--t", help="explicit comma-separated threshold grid")
    p_tail.add_argument("--sf-min", type=float, help="smallest survival level (default 1e-5)")
    p_tail.add_argument("--sf-max", type=float, help="largest survival level (default 1e-2)")
    p_tail.add_argument("--points", type=int, help="log-spaced grid size (default 20)")

    p_var = sub.add_parser(
        "var",
        parents=[common, model, mc, out],
        help="quantile expansion of the sum over a probability grid, next to Monte Carlo",
    )
    p_var.add_argument("--q", help="comma-separated probability levels in (0.5, 1)")

    p_check = sub.add_parser(
        "check",
        parents=[common, model],
        help="scaling hypothesis checks for a copula family",
    )
    p_check.add_argument(
        "--log10-t", dest="log10_t",
        help="comma-separated scales as log10 t, strictly decreasing (default: by corner slope)",
    )
    p_check.add_argument(
        "--scale-grid", dest="scale_grid", help="comma-separated relative grid (default 0.5,1,2,4)"
    )
    p_check.add_argument("--tolerance", type=float, help="verdict tolerance (default 1e-3)")
    p_check.add_argument(
        "--trial-kappa", dest="trial_kappa",
        help="comma-separated trial tail orders for families without declared traits",
    )
    p_check.add_argument("--out-csv", help="optional CSV evidence path")

    p_fig = sub.add_parser(
        "reproduce-figures",
        parents=[common, mc],
        help="regenerate the standard comparison figures",
    )
    p_fig.add_argument(
        "--phi", type=float,
        help="only the figure for this gumbel exponent (default: both 1 and 10)",
    )
    p_fig.add_argument("--out-dir", help="output directory (default figures)")

    return parser


_DISPATCH = {
    "tailprob": functools.partial(_cmd_panel, kind="tailprob"),
    "var": functools.partial(_cmd_panel, kind="var"),
    "check": _cmd_check,
    "reproduce-figures": _cmd_reproduce_figures,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _load_config_file(args.config) if args.config else {}
        cfg = _Settings(file_values, args)
        return _DISPATCH[args.command](cfg)
    except BoundaryCaseError as exc:
        print(f"boundary case: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
