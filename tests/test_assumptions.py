"""Unit tests for the numerical assumption checker."""

import dataclasses
import math
import warnings

import pytest

from test_galambos import mixed_pickands
from tailsum import copulas
from tailsum import (
    ConfigError,
    check_assumptions,
    comonotone_pickands,
    ev_survival_copula,
    gumbel_pickands,
    independence_pickands,
    make_survival_copula,
    tail_order_traits,
    trial_tail_order_traits,
)

CHECK_NAMES = ("A2", "A3", "A4", "evcond")
_SHALLOW = (-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0)
_DEEP = (-8200.0, -8400.0, -8600.0, -8800.0, -9000.0)


def _full_report(copula, p, **kwargs):
    return check_assumptions(copula, tail_traits=tail_order_traits(p), **kwargs)


def test_independence_passes_all_checks(sc_ind):
    report = _full_report(sc_ind, independence_pickands())
    assert report.all_pass
    assert not report.any_fail
    for name in CHECK_NAMES:
        check = report.checks[name]
        assert check.passed is True
        assert check.last_deviation < 1e-3


def test_gumbel_phi_one_passes_at_default_depth():
    sc = make_survival_copula("gumbel", phi=1.0)
    report = _full_report(sc, gumbel_pickands(1.0))
    assert report.all_pass


# the A2 deviations of Gumbel 1.0000001 at log10 t = -8200 .. -9000: rounding
# of lchat(...) - kappa*log t, about eps*|log t| with |log t| near 2e4
_DEEP_ROUNDING = (7.28e-12, 6.28e-12, 6.78e-12, 6.78e-12, 7.78e-12)


def test_verdict_noise_floor_follows_the_scale():
    ln10 = math.log(10.0)
    deep = [x * ln10 for x in _DEEP]
    shallow = [x * ln10 for x in _SHALLOW[:5]]
    assert copulas._verdict(_DEEP_ROUNDING, 1e-3, deep) == (True, "")
    # at shallow scales the floor is 1e-12, so the same jitter is a trend
    assert copulas._verdict(_DEEP_ROUNDING, 1e-3, shallow) == (
        False, "deviations not shrinking over the final scales"
    )


@pytest.mark.parametrize("phi", [1.0, 1.0000001])
def test_deep_rounding_jitter_passes_the_diagonal_check(phi):
    # both once failed A2 as "not shrinking" at the deep scales
    sc = make_survival_copula("gumbel", phi=phi)
    check = check_assumptions(sc, log10_t_sequence=_DEEP).checks["A2"]
    assert max(check.deviations) < 1e-11
    assert check.passed is True


def test_gumbel_phi_ten_needs_depth():
    sc = make_survival_copula("gumbel", phi=10.0)
    p = gumbel_pickands(10.0)
    # at the shallow scales the slowly-converging diagonal check still fails
    shallow = _full_report(sc, p, log10_t_sequence=_SHALLOW)
    assert shallow.checks["A2"].passed is False
    assert shallow.checks["A2"].last_deviation > 0.1
    # far enough into the tail every check clears the tolerance
    deep = _full_report(sc, p, log10_t_sequence=_DEEP)
    assert deep.all_pass
    for name in CHECK_NAMES:
        assert deep.checks[name].last_deviation < 1e-3


def test_independence_diagonal_constant_fits_to_one(sc_ind):
    report = _full_report(sc_ind, independence_pickands())
    assert math.isclose(report.checks["A3"].fitted_c, 1.0, rel_tol=1e-6)


def test_comonotone_is_inconclusive_not_failing(sc_co):
    report = check_assumptions(sc_co, tail_traits=tail_order_traits(comonotone_pickands()))
    assert not report.any_fail
    assert any(c.passed is None for c in report.checks.values())
    assert not report.all_pass
    assert report.checks["A2"].passed is True


def test_counterexample_fails_scaling_check_for_every_trial_kappa(sc_log):
    for k in [1.0 + 0.1 * i for i in range(11)]:
        report = check_assumptions(sc_log, tail_traits=trial_tail_order_traits(k))
        assert report.checks["A2"].passed is False
        assert report.any_fail


def test_counterexample_fails_corner_taylor_check(sc_log):
    report = check_assumptions(sc_log, tail_traits=trial_tail_order_traits(1.5))
    assert report.checks["A4"].passed is False
    # checks needing a dependence function are skipped, not silently passed
    assert report.skipped == ("A3", "evcond")


@pytest.mark.parametrize(
    "family, kwargs, trial, verdicts",
    [
        ("gumbel", {"phi": 2.0}, None, dict.fromkeys(CHECK_NAMES, False)),
        ("comonotone", {}, None, {**dict.fromkeys(CHECK_NAMES, False), "A2": True}),
        ("log-interaction", {"sigma": 0.5}, 2.0, {"A2": False, "A4": None}),
        ("gumbel", {"phi": 1.5}, None, {**dict.fromkeys(CHECK_NAMES, None), "evcond": False}),
    ],
)
def test_scales_above_one_give_verdicts_without_warnings(family, kwargs, trial, verdicts):
    # at t > 1 the log arguments turn positive: Gumbel at phi 1.5 raises a
    # negative base to a fractional power (phi 2's exponents are integers)
    # and log-interaction's log1p falls below its pole; both give nan
    # statistics, never a warning or an exception
    traits = None if trial is None else trial_tail_order_traits(trial)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(
            make_survival_copula(family, **kwargs), traits, log10_t_sequence=(0.5, 0.2, 0.1)
        )
    assert {name: check.passed for name, check in report.checks.items()} == verdicts


def test_deviation_rows_are_recorded(sc_ind):
    report = _full_report(sc_ind, independence_pickands())
    check = report.checks["A2"]
    assert len(check.deviations) == len(report.log10_t_sequence)
    assert check.last_deviation == check.deviations[-1]
    # rows carry per-(scale, grid-point) detail, one block per scale
    assert len(check.rows) % len(check.deviations) == 0
    assert len(check.rows) >= len(check.deviations)


def test_config_errors(sc_ind):
    traits = tail_order_traits(independence_pickands())
    with pytest.raises(ConfigError):
        check_assumptions(sc_ind, tail_traits=traits, log10_t_sequence=(-1.0, -2.0))
    with pytest.raises(ConfigError):
        check_assumptions(sc_ind, tail_traits=traits, log10_t_sequence=(-1.0, -3.0, -2.0))
    with pytest.raises(ConfigError):
        check_assumptions(sc_ind, tail_traits=traits, grid=())
    with pytest.raises(ConfigError):
        check_assumptions(sc_ind, tail_traits=traits, grid=(0.5, -1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            check_assumptions(sc_ind, tail_traits=traits, grid=(0.5, bad))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            check_assumptions(sc_ind, tail_traits=traits, log10_t_sequence=(-1.0, -2.0, bad))
    with pytest.raises(ConfigError):
        check_assumptions(sc_ind, tail_traits=traits, tolerance=0.0)


@pytest.mark.parametrize(
    "family,phi", [("independence", None), ("gumbel", 1.5), ("gumbel", 10.0), ("comonotone", None)]
)
def test_corner_slope_is_probed_once_per_check(family, phi, monkeypatch):
    # the default depth and the corner target share one corner-slope read
    sc = make_survival_copula(family, phi=phi)
    unpatched = check_assumptions(sc)
    probe, calls = copulas.estimate_corner_slope, []

    def counted(p):
        calls.append(p)
        return probe(p)

    monkeypatch.setattr(copulas, "estimate_corner_slope", counted)
    report = check_assumptions(sc)
    assert calls == [sc.pickands]
    assert repr(report) == repr(unpatched)


def test_library_default_depth_agrees_with_the_cli():
    # a vanishing corner slope with a(1,1) > 1 picks the deep scales, as
    # `tailsum check --family gumbel --phi 10` does
    g10 = check_assumptions(make_survival_copula("gumbel", phi=10.0))
    assert g10.log10_t_sequence == _DEEP
    assert g10.all_pass
    assert repr(g10) == repr(
        check_assumptions(make_survival_copula("gumbel", phi=10.0), log10_t_sequence=_DEEP)
    )
    # a positive slope, a(1,1) = 1 or no dependence function keeps -1 .. -7
    cases = [
        (make_survival_copula("independence"), None),
        (make_survival_copula("comonotone"), None),
        (make_survival_copula("log-interaction", sigma=0.5), trial_tail_order_traits(1.5)),
    ]
    for sc, traits in cases:
        default = check_assumptions(sc, traits)
        assert default.log10_t_sequence == _SHALLOW
        assert repr(default) == repr(check_assumptions(sc, traits, log10_t_sequence=_SHALLOW))
    # and the defaults still give the pinned evidence
    for case in ("independence", "log-interaction"):
        report = _evidence_report(case)
        for name, (deviations, _) in _EVIDENCE[case].items():
            assert report.checks[name].deviations == pytest.approx(deviations, rel=1e-12, abs=0.0)


def _counting(sc):
    calls = []

    def log_chat_v(lu, lv):
        calls.append((lu, lv))
        return sc.log_chat_v(lu, lv)

    return dataclasses.replace(sc, log_chat_v=log_chat_v), calls


@pytest.mark.parametrize(
    "family, phi, expected", [("gumbel", 10.0, 60), ("independence", None, 84)]
)
def test_corner_is_scanned_once(family, phi, expected):
    # A3 reads log_chat_v twice per point and A4 once (5 deep or 7 shallow
    # scales x 4 grid values x the probability grid (0.5,))
    sc, calls = _counting(make_survival_copula(family, phi=phi))
    check_assumptions(sc)
    assert len(calls) == expected


_SCAN_MODELS = [
    ("independence", {}), ("comonotone", {}),
    *(("gumbel", {"phi": phi}) for phi in (1.0, 1.0000001, 1.0001, 1.05, 1.2, 1.5, 2.0, 3.0,
                                           5.0, 10.0, 20.0)),
    ("log-interaction", {"sigma": 0.5}), ("log-interaction", {"sigma": 1.0}),
]


@pytest.mark.parametrize(
    "family, kwargs", _SCAN_MODELS,
    ids=[family + "".join(map(str, kw.values())) for family, kw in _SCAN_MODELS],
)
def test_each_check_reports_its_own_scan(family, kwargs):
    # every check runs for every copula or is skipped, never both, and no
    # two checks of a report file the same evidence
    sc = make_survival_copula(family, **kwargs)
    trials = (None,) if sc.pickands is not None else (1.0, 1.5, 2.0)
    for kappa in trials:
        traits = None if kappa is None else trial_tail_order_traits(kappa)
        for scales in (None, _SHALLOW, _DEEP):
            kw = {} if scales is None else {"log10_t_sequence": scales}
            report = check_assumptions(sc, traits, **kw)
            if sc.pickands is None:
                assert tuple(report.checks) == ("A2", "A4")
                assert report.skipped == ("A3", "evcond")
            else:
                assert tuple(report.checks) == CHECK_NAMES
                assert report.skipped == ()
            assert not set(report.checks) & set(report.skipped)
            rows = [check.rows for check in report.checks.values()]
            assert all(a != b for i, a in enumerate(rows) for b in rows[i + 1:])


@pytest.mark.parametrize("phi", [1.0000001, 1.0001])
def test_near_independent_gumbel_is_checked_at_the_deep_scales(phi):
    # the corner slope a2(1, 0) is 0 for every phi > 1, so the default depth
    # is the deep one; a2(1, y) ~ y**(phi - 1) is still near 1 there, so the
    # corner check is about max(grid) = 4 off its zero target
    report = check_assumptions(make_survival_copula("gumbel", phi=phi))
    assert report.log10_t_sequence == _DEEP
    assert report.checks["A4"].passed is False
    assert report.checks["A4"].last_deviation == pytest.approx(4.0, rel=1e-3)
    assert report.checks["A3"].passed is True
    assert report.checks["evcond"].passed is True
    assert report.any_fail
    assert "warnings" not in {f.name for f in dataclasses.fields(report)}


def test_traits_are_derived_from_shipped_families(sc_ind, sc_log):
    report = check_assumptions(sc_ind)
    assert report.all_pass
    from tailsum import UnsupportedFamilyError

    with pytest.raises(UnsupportedFamilyError):
        check_assumptions(sc_log)



# Per-scale worst deviations and fitted constants of three reports, frozen:
# a changed row moves them even where every verdict holds.
_EVIDENCE = {
    "independence": {
        "A2": ((2.220446049250313e-16, 4.440892098500626e-16, 4.440892098500626e-16,
                1.887379141862766e-15, 1.887379141862766e-15, 1.9984014443252818e-15,
                5.329070518200751e-15), None),
        "A3": ((6.661338147750939e-16, 6.661338147750939e-16, 6.661338147750939e-16,
                1.9984014443252818e-15, 1.9984014443252818e-15, 1.9984014443252818e-15,
                3.3306690738754696e-15), 0.9999999999999998),
        "A4": ((2.220446049250313e-16, 2.220446049250313e-16, 8.881784197001252e-16,
                2.220446049250313e-16, 2.220446049250313e-16, 2.220446049250313e-16,
                1.7763568394002505e-15), None),
        "evcond": ((0.0,) * 7, 0.0),
    },
    "gumbel10-deep": {
        "A2": ((0.00027610063209566643, 0.0002695275794679357, 0.0002632602080245055,
                0.00025727769053329085, 0.0002515610320886963), None),
        "A3": ((0.0009593615796106292, 0.0009365101346940907, 0.0009147219782434934,
                0.0008939245844068466, 0.0008740518783492135), 1.0004343083876222),
        "A4": ((9.694831335805237e-40, 7.804489873440336e-40, 6.314886064754128e-40,
                5.134537283578884e-40, 4.194274337497326e-40), None),
        "evcond": ((1.1478222240557278e-08, 1.0938110069673748e-08, 1.0435243509378298e-08,
                    9.966273674198835e-09, 9.528221422235744e-09), 0.0004762162078440048),
    },
    # the negative control of `tailsum check --family log-interaction`;
    # A3 and evcond are skipped
    "log-interaction": {
        "A2": ((0.9964417928620298, 0.9999999197940833, 0.999999999999991,
                1.0, 1.0, 1.0, 1.0), None),
        "A4": ((4.245661013139918, 3.4207227144039205, 2.219573447710317,
                1.3052211877890867, 0.7253711915982628, 0.3885879126256352,
                0.2028689842065432), None),
    },
}


def _evidence_report(case):
    if case == "independence":
        return check_assumptions(make_survival_copula("independence"))
    if case == "gumbel10-deep":
        return check_assumptions(make_survival_copula("gumbel", phi=10.0), log10_t_sequence=_DEEP)
    return check_assumptions(
        make_survival_copula("log-interaction", sigma=0.5),
        tail_traits=trial_tail_order_traits(1.5),
    )


@pytest.mark.parametrize("case", sorted(_EVIDENCE))
def test_checker_evidence_is_pinned(case):
    report = _evidence_report(case)
    assert set(report.checks) == set(_EVIDENCE[case])
    for name, (deviations, fitted_c) in _EVIDENCE[case].items():
        check = report.checks[name]
        assert check.deviations == pytest.approx(deviations, rel=1e-12, abs=0.0), name
        if fitted_c is None:
            assert check.fitted_c is None, name
        else:
            assert check.fitted_c == pytest.approx(fitted_c, rel=1e-12, abs=0.0), name


# Valid models that the checker rejects (ROADMAP item 24): their corner
# deviations decay only like 1/log(1/t), so no float scale brings them below
# the fixed tolerance. Tawn's mixed model at theta 0.5 fails A2, A3 and A4
# at the default scales; Gumbel 1.5 fails A4 at the deep ones (0.0461 at
# log10 t = -9000).
_SLOW_CORNERS = {
    "mixed0.5": lambda: ev_survival_copula(mixed_pickands(0.5)),
    "gumbel1.5": lambda: make_survival_copula("gumbel", phi=1.5),
}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 24: the verdict holds deviations that decay like 1/log(1/t) "
    "to a fixed tolerance instead of to their leading term",
)
@pytest.mark.parametrize("case", sorted(_SLOW_CORNERS))
def test_valid_models_with_slow_corners_pass(case):
    assert check_assumptions(_SLOW_CORNERS[case]()).all_pass


def test_mixed_model_corner_deviation_decays_like_one_over_log_t():
    # A4's deviation times |log10 t| reads 0.444, 0.488, 0.494, 0.496,
    # 0.497, 0.497, 0.497 over log10 t = -1 .. -7
    report = check_assumptions(_SLOW_CORNERS["mixed0.5"]())
    a4 = report.checks["A4"]
    scaled = [d * abs(x) for d, x in zip(a4.deviations, report.log10_t_sequence)]
    assert scaled[-4:] == pytest.approx([0.497] * 4, abs=0.005)
