"""End-to-end tests for the command-line interface."""

import csv
import io
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from tailsum import (
    ParetoMarginal,
    empirical_tailprob,
    empirical_var,
    gumbel_pickands,
    independence_pickands,
    sample_pairs,
    tailprob_expansion_ev,
    var_expansion_ev,
)
from tailsum.cli import main

HEADER = "abscissa,first_order,expansion,mc_point,mc_stderr,case_label,diagnostics"


def _rows(capsys):
    out = capsys.readouterr().out
    return list(csv.reader(io.StringIO(out)))


# ---------------------------------------------------------------------------
# tailprob / var


def test_tailprob_stdout_csv_contract(capsys):
    rc = main(
        [
            "tailprob",
            "--alpha", "0.8", "--family", "gumbel", "--phi", "10",
            "--seed", "1", "--n", "2000", "--points", "4",
        ]
    )
    assert rc == 0
    rows = _rows(capsys)
    assert ",".join(rows[0]) == HEADER
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        assert len(row) == 7
        float(row[0]), float(row[1]), float(row[2])
        assert row[5] == "C1\\(C2∩C3)"
        assert "candidates:" in row[6]


def test_var_csv_values_match_library(capsys):
    rc = main(
        [
            "var",
            "--alpha", "0.8", "--family", "gumbel", "--phi", "10",
            "--seed", "1", "--n", "2000", "--q", "0.99,0.999",
        ]
    )
    assert rc == 0
    rows = _rows(capsys)
    assert ",".join(rows[0]) == HEADER
    m = ParetoMarginal(0.8, 1.0)
    p = gumbel_pickands(10.0)
    for row, q in zip(rows[1:], (0.99, 0.999)):
        assert float(row[0]) == q
        # 17 significant digits reproduce the double exactly
        assert float(row[2]) == var_expansion_ev(m, p, q).value


@pytest.mark.parametrize(
    "alpha, label", [("0.8", "C1\\(C2∩C3)"), ("2", "C1ᶜ")]
)
def test_independence_rows_come_from_the_ev_path(capsys, alpha, label):
    # independence is the extreme-value copula a(x, y) = x + y: every numeric
    # expansion cell is the .17g of the EV path, and the case label is filled
    m = ParetoMarginal(float(alpha), 1.0)
    p = independence_pickands()
    for cmd, grid, flag, expand in (
        ("tailprob", (50.0, 1e3), "--t", tailprob_expansion_ev),
        ("var", (0.99, 0.999), "--q", var_expansion_ev),
    ):
        rc = main([cmd, "--alpha", alpha, "--family", "independence", "--seed", "3",
                   "--n", "1000", flag, ",".join(map(repr, grid))])
        assert rc == 0
        rows = _rows(capsys)[1:]
        assert len(rows) == len(grid)
        for row, x in zip(rows, grid):
            e = expand(m, p, x)
            assert row[:3] == [format(v, ".17g") for v in (x, e.first_order, e.value)]
            assert row[5] == label


def test_explicit_threshold_grid(capsys):
    rc = main(
        ["tailprob", "--alpha", "2", "--family", "independence",
         "--seed", "3", "--n", "1000", "--t", "50,100"]
    )
    assert rc == 0
    rows = _rows(capsys)
    assert [float(r[0]) for r in rows[1:]] == [50.0, 100.0]


def test_csv_file_output_and_determinism(tmp_path):
    args = [
        "var", "--alpha", "2", "--family", "independence",
        "--seed", "5", "--n", "1000", "--q", "0.99",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out-csv", str(a)]) == 0
    assert main(args + ["--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_svg_output_is_wellformed(tmp_path):
    svg = tmp_path / "chart.svg"
    rc = main(
        ["tailprob", "--alpha", "0.8", "--family", "independence",
         "--seed", "2", "--n", "1000", "--points", "4",
         "--out-csv", str(tmp_path / "o.csv"), "--out-svg", str(svg)]
    )
    assert rc == 0
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")


# ---------------------------------------------------------------------------
# exit codes


def test_boundary_alpha_exits_3(capsys):
    rc = main(["var", "--alpha", "1", "--family", "independence",
               "--seed", "1", "--n", "1000"])
    assert rc == 3
    assert "boundary" in capsys.readouterr().err.lower()


def test_usage_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("marginal.alpha = 0.8\nnot.a.key = 1\n")
    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("marginal.alpha = 0.8\njust words\n")
    indep = ["--alpha", "2", "--family", "independence", "--n", "1000"]
    cases = [
        # families with no expansion route
        (["tailprob", "--alpha", "0.8", "--family", "comonotone", "--seed", "1", "--n", "1000"],
         "family 'comonotone' has no tail expansion"),
        (["var", "--alpha", "0.8", "--family", "log-interaction", "--sigma", "0.5",
          "--seed", "1", "--n", "1000"],
         "family 'log-interaction' has no tail expansion"),
        (["tailprob", *indep], "missing required setting mc.seed (flag --seed)"),
        (["tailprob", *indep, "--seed", "1", "--n", "500"], "mc.n must be at least 1000, got 500"),
        (["var", *indep, "--seed", "-1"], "mc.seed must be nonnegative, got -1"),
        (["tailprob", "--config", str(bad), *indep, "--seed", "1"],
         "unknown configuration key 'not.a.key'"),
        (["tailprob", "--config", str(tmp_path / "missing.cfg"), *indep, "--seed", "1"],
         "cannot read configuration file"),
        (["tailprob", "--config", str(no_equals), *indep, "--seed", "1"],
         "no_equals.cfg:2: expected 'key = value', got 'just words'"),
        (["var", *indep, "--seed", "1", "--q", "0.9,abc"],
         "expected a comma-separated list of numbers, got '0.9,abc'"),
        (["tailprob", *indep, "--seed", "1", "--sf-min", "0.1", "--sf-max", "0.01"],
         "survival grid needs 0 < sf_min < sf_max < 1, got 0.1, 0.01"),
        (["tailprob", *indep, "--seed", "1", "--points", "1"],
         "grid.points must be at least 2, got 1"),
        (["tailprob", "--alpha", "2", "--family", "gumbel", "--seed", "1", "--n", "1000"],
         "gumbel family requires the interaction exponent phi"),
        (["check", "--family", "gumbel"], "gumbel family requires the interaction exponent phi"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err, argv
        assert "verdict" not in captured.out


@pytest.mark.parametrize(
    "argv, line, key",
    [
        (["check", "--out-csv="], "", "out.csv"),
        (["check"], "out.csv =", "out.csv"),
        (["tailprob", "--out-csv="], "", "out.csv"),
        (["tailprob"], "out.csv =", "out.csv"),
        (["tailprob", "--out-svg="], "", "out.svg"),
        (["tailprob"], "out.svg =", "out.svg"),
        (["tailprob", "--out-svg", "-"], "", "out.svg"),
        (["tailprob"], "out.svg = -", "out.svg"),
        (["reproduce-figures", "--phi", "1", "--out-dir="], "", "out.dir"),
        (["reproduce-figures", "--phi", "1"], "out.dir =", "out.dir"),
    ],
)
def test_an_empty_output_path_exits_2_naming_its_key(argv, line, key, tmp_path, monkeypatch,
                                                     capsys):
    # these once wrote nothing and exited 0, exited 5 on open(''), or wrote
    # a chart to a file named '-'
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "marginal.alpha = 2\ncopula.family = independence\nmc.n = 1000\nmc.seed = 1\n"
        + line + "\n"
    )
    assert main([*argv, "--config", "run.cfg"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} ")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_infinite_threshold_exits_2(capsys):
    # an infinite threshold has no expansion; it once printed a NaN row and exited 0
    rc = main(["tailprob", "--alpha", "2", "--family", "gumbel", "--phi", "1",
               "--seed", "1", "--n", "1000", "--t", "100,inf"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "finite t" in captured.err
    assert "nan" not in captured.out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["0.0001", "0.003"])
def test_tiny_tail_index_var_exits_2(alpha, capsys):
    # the first order overflows: at 1e-4 this once ended in an OverflowError
    # traceback (exit 1), at 0.003 in an inf row and exit 0; the overflowing
    # quantile gives inf without a numpy warning
    rc = main(["var", "--alpha", alpha, "--family", "gumbel", "--phi", "1",
               "--seed", "1", "--n", "1000", "--q", "0.99"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "overflows" in captured.err
    assert captured.out == ""


def test_non_positive_var_exits_2(capsys):
    # the second-order VaR is -9.45e13 here; it once printed that row and exited 0
    rc = main(["var", "--alpha", "0.05", "--family", "gumbel", "--phi", "1",
               "--seed", "1", "--n", "1000", "--q", "0.6"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "not positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("alpha, sf_min", [("2", "1e-17"), ("0.01", "1e-5")])
def test_sf_grid_without_a_finite_threshold_exits_2(alpha, sf_min, capsys):
    # 1 - sf_min rounds to 1, or the quantile overflows at a tiny alpha
    rc = main(["tailprob", "--alpha", alpha, "--family", "gumbel", "--phi", "1",
               "--seed", "1", "--n", "1000", "--sf-min", sf_min])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"grid.sf_min {float(sf_min)}" in captured.err
    assert captured.out == ""


def test_unwritable_outputs_exit_5(tmp_path, capsys):
    # a CSV path in a missing directory, and an output directory that is a file
    assert main(["tailprob", "--alpha", "0.8", "--family", "independence", "--seed", "1",
                 "--n", "1000", "--out-csv", str(tmp_path / "missing" / "x.csv")]) == 5
    assert capsys.readouterr().err.startswith("i/o error: ")
    regular = tmp_path / "file"
    regular.write_text("")
    assert main(["reproduce-figures", "--phi", "1", "--seed", "1", "--n", "1000",
                 "--out-dir", str(regular)]) == 5
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "marginal.alpha = 2.0\n"
        "copula.family = independence\n"
        "mc.n = 1000\n"
        "mc.seed = 9\n"
        "grid.q = 0.999\n"
    )
    # flag overrides the file value for alpha
    rc = main(["var", "--config", str(cfg), "--alpha", "0.8"])
    assert rc == 0
    rows = _rows(capsys)
    m = ParetoMarginal(0.8, 1.0)
    assert float(rows[1][2]) == var_expansion_ev(m, independence_pickands(), 0.999).value


def test_a_file_value_is_cast_only_when_the_command_reads_it(tmp_path):
    # var reads neither check.tolerance nor grid.t, so neither is cast
    base = ("marginal.alpha = 2\ncopula.family = independence\n"
            "mc.n = 1000\nmc.seed = 5\ngrid.q = 0.99\n")
    plain, extra = tmp_path / "plain.cfg", tmp_path / "extra.cfg"
    plain.write_text(base)
    extra.write_text(base + "check.tolerance = abc\ngrid.t = 1,2\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["var", "--config", str(plain), "--out-csv", str(a)]) == 0
    assert main(["var", "--config", str(extra), "--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_an_invalid_file_value_exits_2_naming_its_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("marginal.alpha = 2\ncopula.family = independence\nmc.n = x1\nmc.seed = 5\n")
    assert main(["var", "--config", str(cfg)]) == 2
    assert "invalid value for mc.n: 'x1'" in capsys.readouterr().err


def test_a_missing_setting_names_its_flag(capsys):
    assert main(["var", "--family", "independence", "--seed", "1", "--n", "1000"]) == 2
    assert "missing required setting marginal.alpha (flag --alpha)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_passes_for_independence(capsys):
    rc = main(["check", "--family", "independence"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("A2", "A3", "A4", "evcond"):
        assert f"  {name}: pass" in out
    assert "pass" in out


def test_check_gumbel_defaults_to_deep_scales(capsys):
    rc = main(["check", "--family", "gumbel", "--phi", "10"])
    assert rc == 0
    capsys.readouterr()


def test_check_counterexample_fails_with_4(tmp_path, capsys):
    csv_path = tmp_path / "evidence.csv"
    rc = main(["check", "--family", "log-interaction", "--sigma", "0.5",
               "--out-csv", str(csv_path)])
    assert rc == 4
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["trial_kappa", "check", "verdict", "final_deviation",
                       "fitted_c", "note"]
    kappas = {row[0] for row in rows[1:]}
    assert len(kappas) == 11  # trial sweep 1.0 .. 2.0
    a2 = [row for row in rows[1:] if row[1] == "A2"]
    assert a2 and all(row[2] == "fail" for row in a2)
    capsys.readouterr()


def test_check_comonotone_inconclusive_warns_but_passes(capsys):
    rc = main(["check", "--family", "comonotone"])
    assert rc == 0
    out = capsys.readouterr().out.lower()
    assert "inconclusive" in out
    assert "warning" in out


def test_check_subnormal_grid_value_with_zero_corner_slope(capsys):
    # the corner derivative of a vanishing corner slope is 0; its power
    # v ** -1 once overflowed at the subnormal grid value
    rc = main(["check", "--family", "gumbel", "--phi", "10", "--scale-grid", "1e-320,0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "A4: inconclusive" in out


@pytest.mark.parametrize(
    "flag", ["--scale-grid=0.5,nan", "--scale-grid=inf", "--log10-t=-1,-2,nan", "--log10-t=-1,-2,-inf"]
)
def test_check_non_finite_scale_or_grid_value_exits_2(flag, capsys):
    # these once ran and exited 0 with inconclusive verdicts
    assert main(["check", "--family", "gumbel", "--phi", "10", flag]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["var", "--alpha", "2", "--family", "independence", "--phi", "3"],
        ["tailprob", "--alpha", "2", "--family", "gumbel", "--phi", "2", "--sigma", "0.2"],
        ["check", "--family", "independence", "--phi", "3"],
        ["check", "--family", "comonotone", "--sigma", "0.2"],
        ["check", "--family", "log-interaction", "--phi", "2"],
        ["check", "--family", "gumbel", "--phi", "2", "--trial-kappa", "1.5"],
    ],
)
def test_parameters_the_family_does_not_take_exit_2(argv, capsys):
    # each was once dropped silently, with exit 0 and the rows of the bare
    # family (or its declared tail order instead of the trial orders)
    if argv[0] != "check":
        argv = [*argv, "--seed", "1", "--n", "1000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_config_parameter_the_family_does_not_take_exits_2(tmp_path, capsys):
    cfg = tmp_path / "stray.cfg"
    cfg.write_text("copula.family = independence\ncopula.phi = 3\n")
    assert main(["check", "--config", str(cfg)]) == 2
    assert "copula.phi" in capsys.readouterr().err


def test_check_reads_a_zero_corner_slope_just_above_phi_1(capsys):
    # a2(1, 0) = 0 for every phi > 1: the deep scales, no note line, and the
    # corner checks fail at the 1e-3 tolerance
    rc = main(["check", "--family", "gumbel", "--phi", "1.0001"])
    assert rc == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  scales (log10 t): -8200, -8400, -8600, -8800, -9000"
    assert not any(line.startswith("  note: ") for line in lines)
    assert lines[4].startswith("  A3: pass")
    assert lines[5].startswith("  A4: fail [final deviation 3.999e+00]")
    assert lines[-1] == "verdict: fail (at least one scaling hypothesis rejected)"


def test_check_trial_kappa_flag(capsys):
    rc = main(["check", "--family", "log-interaction", "--sigma", "0.5",
               "--trial-kappa", "1.5"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "1.5" in out


@pytest.mark.parametrize("value", ["", ","])
def test_check_empty_trial_kappa_flag_exits_2(value, capsys):
    # an empty list once ran no check and exited 4 with a fail verdict
    assert main(["check", "--family", "log-interaction", "--trial-kappa", value]) == 2
    captured = capsys.readouterr()
    assert "check.trial_kappa must contain at least one tail order" in captured.err
    assert "verdict" not in captured.out


def test_check_empty_trial_kappa_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("copula.family = log-interaction\ncheck.trial_kappa =\n")
    assert main(["check", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "check.trial_kappa must contain at least one tail order" in captured.err
    assert "verdict" not in captured.out


def test_check_out_csv_dash_writes_the_evidence_to_stdout(capsys):
    # '-' once wrote no CSV at all; the rows follow the report
    rc = main(["check", "--family", "log-interaction", "--sigma", "0.5",
               "--trial-kappa", "1.5", "--out-csv", "-"])
    assert rc == 4
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("trial_kappa,check,verdict,final_deviation,fitted_c,note")
    assert lines[start - 1].startswith("  ")  # the last line of the report
    rows = list(csv.reader(lines[start + 1:-1]))
    assert rows and all(row[0] == "1.5" for row in rows)
    assert {row[1] for row in rows} >= {"A2"}
    assert lines[-1] == "verdict: fail (at least one scaling hypothesis rejected)"


def test_check_tolerance_flag_passes_a_trial_sweep(capsys):
    # a tolerance no deviation reaches passes every trial order
    rc = main(["check", "--family", "log-interaction", "--tolerance", "1e300",
               "--trial-kappa", "1.5,2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("  grid: 0.5, 1, 2, 4; tolerance 1e+300") == 2
    assert lines[-1] == "verdict: pass (trial tail order 1.5, 2)"


# ---------------------------------------------------------------------------
# reproduce-figures


def test_reproduce_figures_single_phi(tmp_path):
    rc = main(["reproduce-figures", "--phi", "1", "--seed", "7",
               "--n", "2000", "--out-dir", str(tmp_path)])
    assert rc == 0
    for panel in "abcd":
        assert (tmp_path / f"figure1-{panel}.csv").exists()
        assert (tmp_path / f"figure1-{panel}.svg").exists()
    assert not (tmp_path / "figure2-a.csv").exists()


def test_reproduce_figures_both_and_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc = main(["reproduce-figures", "--seed", "7", "--n", "2000",
                   "--out-dir", str(d)])
        assert rc == 0
    names = sorted(p.name for p in d1.glob("*.csv"))
    assert names == [f"figure{i}-{p}.csv" for i in (1, 2) for p in "abcd"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_panels_report_the_in_memory_estimates(tmp_path):
    # the CLI streams its sample; its Monte Carlo columns are those of the
    # estimators on the same sample held in memory
    m = ParetoMarginal(0.8, 1.0)
    sample = sample_pairs(m, "gumbel", 70000, 11, phi=2.0)
    for kind, grid, estimate in (("tailprob", "--t=20,5,1e3,5", empirical_tailprob),
                                 ("var", "--q=0.999,0.9,0.99", empirical_var)):
        out = tmp_path / f"{kind}.csv"
        rc = main([kind, "--alpha", "0.8", "--family", "gumbel", "--phi", "2",
                   "--n", "70000", "--seed", "11", grid, "--out-csv", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        for row in rows:
            est = estimate(sample, float(row["abscissa"]))
            assert (float(row["mc_point"]), float(row["mc_stderr"])) == (est.point, est.stderr)


def test_reproduce_figures_names_other_phis_apart(tmp_path):
    # phi 3 must not take the names of the phi = 10 figure
    rc = main(["reproduce-figures", "--phi", "3", "--seed", "7",
               "--n", "2000", "--out-dir", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"figure-phi3-{p}.{ext}" for p in "abcd" for ext in ("csv", "svg"))
    assert not list(tmp_path.glob("figure2-*"))


def test_tailprob_never_holds_the_sample(tmp_path, monkeypatch):
    # x alone would take 3.2 MB; one worker's scratch block is 2 MiB
    monkeypatch.setenv("TAILSUM_THREADS", "1")
    argv = ["tailprob", "--alpha", "2", "--family", "independence", "--n", "400000",
            "--seed", "3", "--out-csv", str(tmp_path / "t.csv")]
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 400000 * 8, peak


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tailsum.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tailprob" in proc.stdout
