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
2 configuration, usage or domain error (a model or level the expansions do
not cover), 4 hypothesis-check failure, 5 I/O error.

Configuration
-------------
``--config FILE`` reads flat ``key = value`` lines (``#`` comments allowed);
explicit command line flags override file values. The keys are the flags'
config names, which ``--help`` shows as each flag's metavar
(``--alpha MARGINAL.ALPHA`` reads ``marginal.alpha``); a file may hold the
key of any subcommand's flag.
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
    SurvivalCopula,
    check_assumptions,
    make_survival_copula,
    trial_tail_order_traits,
)
from .errors import ConfigError, DomainError, UnsupportedFamilyError
from .marginals import ParetoMarginal
from .montecarlo import empirical_grid

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
_CHECK_HEADER = ("trial_kappa", "check", "verdict", "final_deviation", "fitted_c", "note")

_DEFAULT_Q_GRID = (0.99, 0.995, 0.999, 0.9995, 0.9999)
# survival-level threshold grid: smallest level, largest level, points
_SF_GRID = (1e-5, 1e-2, 20)
# panel kind -> (chart title, x label, y label, logarithmic x axis)
_PANEL_AXES = {
    "tailprob": ("Tail of the sum", "threshold t", "P(X + Y > t)", True),
    "var": ("Quantile of the sum", "probability level q", "quantile of X + Y", False),
}
_MIN_MC_N = 1000


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def _load_config_file(path: str, known_keys) -> dict:
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
                if key not in known_keys:
                    raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    return values


class _Settings:
    """Resolved configuration: defaults, then file values, then flags.

    ``flags`` maps each config key of the running subcommand to its flag's
    action, whose ``dest`` is the key. A file value is cast with the flag's
    ``type`` only when the command reads the key. An output path (``out.*``)
    read empty, or an ``out.svg`` read as ``-`` (stdout, which only
    ``out.csv`` writes to), is an error by flag and by file alike.
    """

    def __init__(self, file_values: dict, args: argparse.Namespace, flags: dict) -> None:
        self._file = file_values
        self._args = args
        self._flags = flags

    def get(self, key: str, default=None):
        value = getattr(self._args, key)
        if value is None and key in self._file:
            text, cast = self._file[key], self._flags[key].type or str
            try:
                value = cast(text)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {key}: {text!r}") from exc
        if key.startswith("out.") and (value == "" or (value == "-" and key == "out.svg")):
            raise ConfigError(f"{key} needs a path, got {value!r}")
        return default if value is None else value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            flag = self._flags[key].option_strings[0]
            raise ConfigError(f"missing required setting {key} (flag {flag})")
        return value


def _float_list(text: str, empty: Optional[str] = None) -> tuple:
    """The numbers of a comma-separated list; ``empty``, when given, is the
    error for a list that holds none."""
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from exc
    if empty is not None and not values:
        raise ConfigError(empty)
    return values


def _resolve_marginal(cfg: _Settings) -> ParetoMarginal:
    return ParetoMarginal(cfg.require("marginal.alpha"), cfg.get("marginal.scale", 1.0))


def _resolve_family(cfg: _Settings) -> SurvivalCopula:
    """The configured survival copula: ``make_survival_copula`` owns the
    family rules, and its errors gain the settings they were given."""
    family = cfg.require("copula.family")
    phi, sigma = cfg.get("copula.phi"), cfg.get("copula.sigma")
    try:
        return make_survival_copula(family, phi=phi, sigma=sigma)
    except (DomainError, UnsupportedFamilyError) as exc:
        given = {"copula.family": family, "copula.phi": phi, "copula.sigma": sigma}
        settings = ", ".join(f"{k} = {v}" for k, v in given.items() if v is not None)
        raise ConfigError(f"{exc} ({settings})") from exc


def _resolve_mc(cfg: _Settings) -> tuple:
    n = cfg.get("mc.n", 100000)
    if n < _MIN_MC_N:
        raise ConfigError(f"mc.n must be at least {_MIN_MC_N}, got {n}")
    seed = cfg.require("mc.seed")
    if seed < 0:
        raise ConfigError(f"mc.seed must be nonnegative, got {seed}")
    return n, seed


def _sf_grid(m: ParetoMarginal, sf_min: float, sf_max: float, points: int) -> tuple:
    """Thresholds whose marginal survival levels run log-spaced from
    ``sf_max`` down to ``sf_min``."""
    if not (0.0 < sf_min < sf_max < 1.0):
        raise ConfigError(
            f"survival grid needs 0 < sf_min < sf_max < 1, got {sf_min}, {sf_max}"
        )
    if points < 2:
        raise ConfigError(f"grid.points must be at least 2, got {points}")
    # 1 - sf_min may round to 1, or its quantile overflow at a tiny alpha
    if 1.0 - sf_min == 1.0 or not math.isfinite(m.quantile(1.0 - sf_min)):
        raise ConfigError(f"grid.sf_min {sf_min} has no finite threshold at alpha {m.alpha}")
    sfs = np.geomspace(sf_max, sf_min, points)
    return tuple(float(m.quantile(1.0 - sf)) for sf in sfs)


def _resolve_t_grid(cfg: _Settings, m: ParetoMarginal) -> tuple:
    explicit = cfg.get("grid.t")
    if explicit is not None:
        return _float_list(explicit, "grid.t must contain at least one threshold")
    sf_min, sf_max, points = _SF_GRID
    return _sf_grid(
        m, cfg.get("grid.sf_min", sf_min), cfg.get("grid.sf_max", sf_max),
        cfg.get("grid.points", points),
    )


def _resolve_q_grid(cfg: _Settings) -> tuple:
    explicit = cfg.get("grid.q")
    if explicit is None:
        return _DEFAULT_Q_GRID
    return _float_list(explicit, "grid.q must contain at least one probability level")


def _format(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(path: Optional[str], rows: Sequence[Sequence], header=CSV_HEADER) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
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


def _write_panels(
    m: ParetoMarginal, copula: SurvivalCopula, n: int, seed: int, model: str, panels: list
) -> None:
    """Write each panel ``(kind, grid, csv_path, svg_path)`` of ``panels``: the
    expansion at each threshold (``kind == "tailprob"``) or probability level
    (``"var"``) of ``grid`` next to its Monte Carlo estimate, as CSV and, when
    ``svg_path`` is set, as a chart. Every expansion is evaluated before
    sampling, so an invalid grid point is reported by the expansion, and one
    streamed sample serves every panel."""
    # read the module attributes at each call, not from a table built at
    # import, so perfbench's tracer sees the calls it patches in; the Monte
    # Carlo estimates come from empirical_grid, which it does not patch, so
    # their time counts as the command's own
    expand = {"tailprob": tailprob_expansion_ev, "var": var_expansion_ev}
    grids = {kind: grid for kind, grid, _, _ in panels}
    expansions = {
        kind: [expand[kind](m, copula.pickands, x) for x in grid] for kind, grid in grids.items()
    }
    tails, quantiles = empirical_grid(
        m, copula.family, n, seed, phi=copula.param,
        thresholds=grids.get("tailprob", ()), levels=grids.get("var", ()),
    )
    estimates = {"tailprob": tails, "var": quantiles}
    for kind, grid, csv_path, svg_path in panels:
        rows = [
            (x, e.first_order, e.value, est.point, est.stderr, e.case.label, _diagnostics_text(e))
            for x, e, est in zip(grid, expansions[kind], estimates[kind])
        ]
        _write_rows(csv_path, rows)
        if not svg_path:
            continue
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
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_panel(cfg: _Settings, kind: str) -> int:
    m = _resolve_marginal(cfg)
    copula = _resolve_family(cfg)
    pickands = copula.pickands
    # the expansions decide the rest of the domain (a tail order a(1, 1) = 1
    # among it) before any sampling
    if pickands is None:
        raise ConfigError(
            f"family {copula.family!r} has no tail expansion: the expansions need a "
            "dependence function; use the check subcommand or Monte Carlo directly"
        )
    n, seed = _resolve_mc(cfg)
    grid = _resolve_t_grid(cfg, m) if kind == "tailprob" else _resolve_q_grid(cfg)
    _write_panels(
        m, copula, n, seed, f"{copula.family}, alpha={m.alpha:g}",
        [(kind, grid, cfg.get("out.csv"), cfg.get("out.svg"))],
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
    copula = _resolve_family(cfg)
    family = copula.family
    out_csv = cfg.get("out.csv")

    # settings the user left unset take check_assumptions' defaults; the
    # default scales follow the copula's corner
    kwargs = {}
    log10_raw = cfg.get("check.log10_t")
    if log10_raw is not None:
        kwargs["log10_t_sequence"] = _float_list(log10_raw)
    grid_raw = cfg.get("check.grid")
    if grid_raw is not None:
        kwargs["grid"] = _float_list(grid_raw)
    tolerance = cfg.get("check.tolerance")
    if tolerance is not None:
        kwargs["tolerance"] = tolerance

    csv_rows = []
    trial_raw = cfg.get("check.trial_kappa")
    if copula.pickands is not None:
        if trial_raw is not None:
            raise ConfigError(f"family {family!r} has a tail order; drop check.trial_kappa")
        reports = [(None, check_assumptions(copula, **kwargs))]
    else:
        if trial_raw is not None:
            trial_kappas = _float_list(
                trial_raw, "check.trial_kappa must contain at least one tail order"
            )
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
                ("" if kappa is None else kappa, name, _check_verdict_word(result.passed),
                 result.last_deviation, "" if result.fitted_c is None else result.fitted_c,
                 result.note)
            )

    if out_csv is not None:
        _write_rows(out_csv, csv_rows, _CHECK_HEADER)

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
    out_dir = cfg.get("out.dir", "figures")
    phi_setting = cfg.get("copula.phi")
    phis = (phi_setting,) if phi_setting is not None else (1.0, 10.0)

    # every copula is built, so a rejected exponent leaves no directory
    copulas = [(phi, make_survival_copula("gumbel", phi=phi)) for phi in phis]
    os.makedirs(out_dir, exist_ok=True)
    # alpha -> (tail panel, quantile panel)
    panel_letters = {0.8: ("a", "c"), 2.0: ("b", "d")}

    for phi, copula in copulas:
        name = {1.0: "figure1", 10.0: "figure2"}.get(phi, f"figure-phi{phi:g}")
        for alpha, letters in panel_letters.items():
            m = ParetoMarginal(alpha, 1.0)
            tail_base, var_base = (os.path.join(out_dir, f"{name}-{x}") for x in letters)
            # one streamed sample per (phi, alpha) serves both panels
            _write_panels(m, copula, n, seed, f"gumbel phi={phi:g}, alpha={alpha:g}", [
                ("tailprob", _sf_grid(m, *_SF_GRID), tail_base + ".csv", tail_base + ".svg"),
                ("var", _DEFAULT_Q_GRID, var_base + ".csv", var_base + ".svg"),
            ])
        print(f"wrote {name}-a..d (.csv, .svg) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> tuple:
    """The argument parser, and per subcommand its settings flags by config
    key. A settings flag's ``dest`` is its dotted config key, so the key,
    the flag and the type of each setting are written once, here."""
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
    model.add_argument(
        "--alpha", dest="marginal.alpha", type=float, help="marginal tail index (positive)"
    )
    model.add_argument(
        "--scale", dest="marginal.scale", type=float, help="marginal scale (default 1)"
    )
    model.add_argument(
        "--family", dest="copula.family",
        help="copula family: independence, gumbel, comonotone, log-interaction",
    )
    model.add_argument(
        "--phi", dest="copula.phi", type=float, help="gumbel interaction exponent (>= 1)"
    )
    model.add_argument(
        "--sigma", dest="copula.sigma", type=float, help="log-interaction strength in (0, 1]"
    )

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument(
        "--n", dest="mc.n", type=int,
        help=f"Monte Carlo sample size (default 100000, min {_MIN_MC_N})",
    )
    mc.add_argument("--seed", dest="mc.seed", type=int, help="Monte Carlo seed (required)")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-csv", dest="out.csv", help="CSV output path ('-' or omitted: stdout)")
    out.add_argument("--out-svg", dest="out.svg", help="optional SVG chart path")

    p_tail = sub.add_parser(
        "tailprob",
        parents=[common, model, mc, out],
        help="tail expansion of the sum over a threshold grid, next to Monte Carlo",
    )
    p_tail.add_argument("--t", dest="grid.t", help="explicit comma-separated threshold grid")
    p_tail.add_argument(
        "--sf-min", dest="grid.sf_min", type=float, help="smallest survival level (default 1e-5)"
    )
    p_tail.add_argument(
        "--sf-max", dest="grid.sf_max", type=float, help="largest survival level (default 1e-2)"
    )
    p_tail.add_argument(
        "--points", dest="grid.points", type=int, help="log-spaced grid size (default 20)"
    )

    p_var = sub.add_parser(
        "var",
        parents=[common, model, mc, out],
        help="quantile expansion of the sum over a probability grid, next to Monte Carlo",
    )
    p_var.add_argument("--q", dest="grid.q", help="comma-separated probability levels in (0.5, 1)")

    p_check = sub.add_parser(
        "check",
        parents=[common, model],
        help="scaling hypothesis checks for a copula family",
    )
    p_check.add_argument(
        "--log10-t", dest="check.log10_t",
        help="comma-separated scales as log10 t, strictly decreasing (default: by corner slope)",
    )
    p_check.add_argument(
        "--scale-grid", dest="check.grid", help="comma-separated relative grid (default 0.5,1,2,4)"
    )
    p_check.add_argument(
        "--tolerance", dest="check.tolerance", type=float, help="verdict tolerance (default 1e-3)"
    )
    p_check.add_argument(
        "--trial-kappa", dest="check.trial_kappa",
        help="comma-separated trial tail orders for families without declared traits",
    )
    p_check.add_argument("--out-csv", dest="out.csv", help="CSV evidence path ('-': stdout)")

    p_fig = sub.add_parser(
        "reproduce-figures",
        parents=[common, mc],
        help="regenerate the standard comparison figures",
    )
    p_fig.add_argument(
        "--phi", dest="copula.phi", type=float,
        help="only the figure for this gumbel exponent (default: both 1 and 10)",
    )
    p_fig.add_argument("--out-dir", dest="out.dir", help="output directory (default figures)")

    flags = {
        name: {action.dest: action for action in p._actions if "." in action.dest}
        for name, p in sub.choices.items()
    }
    return parser, flags


_DISPATCH = {
    "tailprob": functools.partial(_cmd_panel, kind="tailprob"),
    "var": functools.partial(_cmd_panel, kind="var"),
    "check": _cmd_check,
    "reproduce-figures": _cmd_reproduce_figures,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, flags = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a file may hold the key of any subcommand's flag
        known_keys = set().union(*flags.values())
        file_values = _load_config_file(args.config, known_keys) if args.config else {}
        cfg = _Settings(file_values, args, flags[args.command])
        return _DISPATCH[args.command](cfg)
    except (ConfigError, DomainError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
