"""History-curve evaluation, cumulative splits, fitting, derived metrics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from citedyn import historyfit
from citedyn.errors import (
    ConvergenceError,
    DataError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
)
from citedyn.historyfit import (
    FitDiagnostics,
    FitOptions,
    HistoryFit,
    HistoryParams,
    cumulative_split,
    derive_metrics,
    eval_history,
    fit_history,
    trend_metrics,
    write_curve_csv,
)

from _reference import FLAT_FIT, ORACLE, REFERENCE_METRICS, flat_panel, make_panel, params_for

ASTRO = params_for("astro-ph")
HEP = params_for("hep")  # capped sigmoid


# --- curve evaluation ---------------------------------------------------------


def test_eval_frozen_values():
    assert eval_history(ASTRO, 0.0) == pytest.approx(ORACLE["astro_u0"], rel=1e-13)
    assert eval_history(ASTRO, 3.0) == pytest.approx(ORACLE["astro_u3"], rel=1e-13)
    arr = eval_history(ASTRO, np.array([0.0, 3.0]))
    assert arr[0] == eval_history(ASTRO, 0.0)
    assert arr[1] == eval_history(ASTRO, 3.0)


def test_eval_matches_manual_formula():
    t = 4.7
    z = (math.log(t + 1.0) - ASTRO.mu) / ASTRO.sigma
    f = math.exp(-0.5 * z * z) / ((t + 1.0) * ASTRO.sigma * math.sqrt(2.0 * math.pi))
    expected = ASTRO.A * f + ASTRO.B * math.tanh(ASTRO.lam * t)
    assert eval_history(ASTRO, t) == pytest.approx(expected, rel=1e-14)


def test_capped_curve_is_step_plus_bump():
    assert HEP.lambda_capped
    t = 2.3
    z = (math.log(t + 1.0) - HEP.mu) / HEP.sigma
    f = math.exp(-0.5 * z * z) / ((t + 1.0) * HEP.sigma * math.sqrt(2.0 * math.pi))
    assert eval_history(HEP, t) == pytest.approx(HEP.A * f + HEP.B, rel=1e-14)
    # no sigmoid contribution at age zero
    z0 = (0.0 - HEP.mu) / HEP.sigma
    f0 = math.exp(-0.5 * z0 * z0) / (HEP.sigma * math.sqrt(2.0 * math.pi))
    assert eval_history(HEP, 0.0) == pytest.approx(HEP.A * f0, rel=1e-14)


def test_eval_rejects_negative_age():
    with pytest.raises(DomainError):
        eval_history(ASTRO, -0.5)
    with pytest.raises(DomainError):
        eval_history(ASTRO, np.array([1.0, -2.0]))


def test_params_validation_and_dict_round_trip():
    with pytest.raises(DataError):
        HistoryParams(A=0.0, mu=1.0, sigma=0.8, B=0.1, lam=1.0)
    with pytest.raises(DataError):
        HistoryParams(A=1.0, mu=1.0, sigma=-0.8, B=0.1, lam=1.0)
    d = HEP.to_dict()
    assert d["lambda"] == HEP.lam
    assert d["lambda_capped"] is True
    assert HistoryParams.from_dict(d) == HEP


# --- cumulative split ----------------------------------------------------------


def test_cumulative_frozen_values():
    split = cumulative_split(ASTRO, 2.0)
    assert split.F == pytest.approx(ORACLE["astro_F2"], rel=1e-12)
    assert split.G == pytest.approx(ORACLE["astro_G1"], rel=1e-12)
    assert split.H == pytest.approx(ORACLE["astro_H2"], rel=1e-12)
    assert split.rho == pytest.approx(ORACLE["astro_F2"] / ORACLE["astro_H2"], rel=1e-12)


def test_cumulative_matches_quadrature():
    # closed forms against adaptive integration of the two yearly components
    for label in ("astro-ph", "cond-mat", "math", "hep", "comp-sci"):
        p = params_for(label)

        def f_term(x, p=p):
            return (
                p.A
                * math.exp(-0.5 * ((math.log(x) - p.mu) / p.sigma) ** 2)
                / (x * p.sigma * math.sqrt(2.0 * math.pi))
            )

        def g_term(s, p=p):
            if p.lambda_capped:
                return p.B
            return p.B * math.tanh(p.lam * s)

        for T in (1.0, 2.0, 5.0, 10.0, 30.0):
            split = cumulative_split(p, T)
            f_num, _ = quad(f_term, 0.0, T, limit=200)
            assert split.F == pytest.approx(f_num, rel=1e-8)
            if T == 1.0:
                assert split.G == 0.0
            else:
                g_num, _ = quad(g_term, 0.0, T - 1.0, limit=200)
                assert split.G == pytest.approx(g_num, rel=1e-8)


def test_capped_cumulative_is_linear():
    split = cumulative_split(HEP, 4.0)
    assert split.G == HEP.B * 3.0
    assert split.H == pytest.approx(ORACLE["hep_H4"], rel=1e-12)


def test_sigmoid_cumulative_saturates_to_linear():
    # for large lam * (T-1), (B/lam) * lncosh reduces to B*(T-1) - B*ln2/lam
    p = HistoryParams(A=1.0, mu=1.0, sigma=0.8, B=0.4, lam=45.0, lambda_capped=False)
    split = cumulative_split(p, 11.0)
    expected = 0.4 * 10.0 - 0.4 * math.log(2.0) / 45.0
    assert split.G == pytest.approx(expected, rel=1e-12)


def test_split_at_unit_age_is_all_bump():
    split = cumulative_split(ASTRO, 1.0)
    assert split.G == 0.0
    assert split.rho == 1.0


def test_split_rejects_early_horizon():
    with pytest.raises(DomainError):
        cumulative_split(ASTRO, 0.5)


@given(
    A=st.floats(min_value=0.1, max_value=10.0),
    mu=st.floats(min_value=0.5, max_value=2.0),
    sigma=st.floats(min_value=0.5, max_value=1.5),
    B=st.floats(min_value=0.01, max_value=1.0),
    lam=st.floats(min_value=0.1, max_value=5.0),
)
def test_cumulative_monotone_and_share_bounded(A, mu, sigma, B, lam):
    p = HistoryParams(A=A, mu=mu, sigma=sigma, B=B, lam=lam)
    previous = 0.0
    for T in (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0):
        split = cumulative_split(p, T)
        assert split.H > previous
        assert 0.0 < split.rho <= 1.0
        previous = split.H


# --- fitting --------------------------------------------------------------------


def test_noiseless_round_trip_finite_rate():
    fit = fit_history(make_panel(ASTRO))
    assert fit.converged
    got = fit.params
    assert got.A == pytest.approx(ASTRO.A, rel=0.01)
    assert got.mu == pytest.approx(ASTRO.mu, rel=0.01)
    assert got.sigma == pytest.approx(ASTRO.sigma, rel=0.01)
    assert got.B == pytest.approx(ASTRO.B, rel=0.01)
    assert got.lam == pytest.approx(ASTRO.lam, rel=0.10)
    assert not got.lambda_capped
    assert fit.r2_adj > 0.9999
    assert fit.se_lambda is not None and fit.se_lambda >= 0.0
    assert len(fit.residuals) == 21


def test_noiseless_round_trip_capped_rate():
    fit = fit_history(make_panel(HEP))
    assert fit.converged
    assert fit.params.lambda_capped
    assert fit.se_lambda is None
    assert fit.params.A == pytest.approx(HEP.A, rel=0.01)
    assert fit.params.B == pytest.approx(HEP.B, rel=0.01)


def test_noiseless_round_trip_slow_rate():
    # the smallest reference rate, most at risk of landing in a wrong basin
    p = params_for("math")
    fit = fit_history(make_panel(p))
    assert fit.params.lam == pytest.approx(p.lam, rel=0.10)
    assert fit.params.sigma == pytest.approx(p.sigma, rel=0.01)


def test_noisy_round_trip():
    fit = fit_history(make_panel(ASTRO, noise_sd=0.02, seed=0))
    got = fit.params
    assert got.A == pytest.approx(ASTRO.A, rel=0.10)
    assert got.mu == pytest.approx(ASTRO.mu, rel=0.10)
    assert got.sigma == pytest.approx(ASTRO.sigma, rel=0.10)
    assert got.B == pytest.approx(ASTRO.B, rel=0.10)


def test_population_weighting_option():
    panel = make_panel(ASTRO)
    fit = fit_history(panel, FitOptions(weight_by_population=True))
    assert fit.params.A == pytest.approx(ASTRO.A, rel=0.01)


def test_fit_metadata_carried():
    panel = make_panel(ASTRO, discipline="astro-ph", dataset_year=2019, cap=0.99)
    fit = fit_history(panel)
    assert fit.discipline == "astro-ph"
    assert fit.dataset_year == 2019
    assert fit.percentile_cap == 0.99


def test_fit_rejects_thin_or_flat_panels():
    with pytest.raises(InsufficientDataError):
        fit_history(make_panel(ASTRO, max_age=4))
    flat = make_panel(ASTRO, max_age=10)
    zeroed = type(flat)(
        discipline=flat.discipline,
        dataset_year=flat.dataset_year,
        percentile_cap=flat.percentile_cap,
        entries=tuple(e._replace(u=0.0) for e in flat.entries),
    )
    with pytest.raises(DegenerateDataError):
        fit_history(zeroed)


def _record_statuses(monkeypatch):
    """Collect the least_squares status of every start fit_history runs."""
    statuses = []
    least_squares = historyfit.least_squares

    def recording(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(historyfit, "least_squares", recording)
    return statuses


def test_diagnostics_of_a_clean_fit(monkeypatch):
    statuses = _record_statuses(monkeypatch)
    d = fit_history(make_panel(ASTRO)).diagnostics
    assert d.starts == len(statuses) == 36
    assert d.abandoned == 0
    assert d.failed == ()
    assert d.best_status == statuses[d.best_start] > 0
    assert d.nfev > 0


def test_flat_panel_abandons_runaway_starts(monkeypatch):
    # Without aging the model is not identified. Starts that drift towards
    # mu -> -inf are abandoned early instead of burning max_nfev each.
    statuses = _record_statuses(monkeypatch)
    fit = fit_history(flat_panel())
    d = fit.diagnostics
    assert d.abandoned > 0
    assert d.abandoned == statuses.count(historyfit.STATUS_ABANDONED)
    assert 0 not in statuses  # no start ran into max_nfev
    assert d.nfev < 5000
    assert fit.converged
    assert fit.params.A == pytest.approx(FLAT_FIT["A"], rel=1e-6)
    assert fit.params.mu == pytest.approx(FLAT_FIT["mu"], rel=1e-6)


def test_fitted_parameters_are_python_floats():
    for panel in (make_panel(ASTRO), flat_panel()):
        params = fit_history(panel).params
        assert [type(getattr(params, f)) for f in ("A", "mu", "sigma", "B", "lam")] == [float] * 5


def test_programming_errors_propagate(monkeypatch):
    def broken(theta, t):
        raise TypeError("broken model")

    monkeypatch.setattr(historyfit, "_model_theta", broken)
    with pytest.raises(TypeError, match="broken model"):
        fit_history(make_panel(ASTRO))


def test_no_surviving_start_is_a_convergence_error(monkeypatch):
    # least_squares rejects a non-finite initial residual with ValueError
    monkeypatch.setattr(historyfit, "_model_theta", lambda theta, t: np.full(t.size, np.nan))
    with pytest.raises(ConvergenceError, match="0 of 36 abandoned .* 36 failed.*ValueError"):
        fit_history(make_panel(ASTRO))
    monkeypatch.undo()
    # a box no start can stay in abandons every start
    monkeypatch.setattr(historyfit, "MU_FLOOR", 10.0)
    with pytest.raises(ConvergenceError, match="36 of 36 abandoned .* 0 failed"):
        fit_history(make_panel(ASTRO))


def test_jac_original_matches_finite_differences():
    t = np.arange(21.0)
    p = ASTRO
    theta = np.array([math.log(p.A), p.mu, math.log(p.sigma), math.log(p.B), math.log(p.lam)])
    jac = historyfit._jac_original(theta, t)
    values = [p.A, p.mu, p.sigma, p.B, p.lam]
    for k in range(5):
        h = 1e-6 * abs(values[k])
        up, down = list(values), list(values)
        up[k] += h
        down[k] -= h
        numeric = (eval_history(HistoryParams(*up), t) - eval_history(HistoryParams(*down), t)) / (2 * h)
        assert jac[:, k] == pytest.approx(numeric, rel=1e-6, abs=1e-9), k


# --- derived metrics -------------------------------------------------------------


def test_derived_metrics_frozen_values():
    m = derive_metrics(ASTRO)
    assert m.t_peak == pytest.approx(ORACLE["astro_t_peak"], abs=1e-7)
    assert m.u_peak == pytest.approx(ORACLE["astro_u_peak"], rel=1e-9)
    assert m.delta1 == pytest.approx(ORACLE["astro_delta1"], rel=1e-12)
    assert m.delta2 == pytest.approx(ORACLE["astro_delta2"], rel=1e-12)
    assert m.mean == pytest.approx(ORACLE["astro_mean"], rel=1e-12)
    assert m.median == pytest.approx(ORACLE["astro_median"], rel=1e-12)
    assert m.variance == pytest.approx(ORACLE["astro_variance"], rel=1e-12)


def test_ratio_identities_hold_exactly():
    for label in REFERENCE_METRICS:
        m = derive_metrics(params_for(label))
        assert m.s_rate == m.delta1 / m.delta2
        assert m.i_rate == 1.0 / m.r_rate
        assert m.mode == m.delta1


def test_derived_metrics_against_reference_table():
    for label, expected in REFERENCE_METRICS.items():
        m = derive_metrics(params_for(label))
        assert m.u_peak == pytest.approx(expected["u_peak"], abs=0.01), label
        assert m.delta1 == pytest.approx(expected["delta1"], abs=0.02), label
        assert m.delta2 == pytest.approx(expected["delta2"], abs=0.02), label
        assert m.s_rate == pytest.approx(expected["s_rate"], abs=0.02), label
        assert m.r_rate == pytest.approx(expected["r_rate"], abs=0.02), label


def test_unit_ratio_at_special_width():
    # sigma^2 = ln 2 makes the two drop-off measures coincide
    p = HistoryParams(A=1.0, mu=1.5, sigma=math.sqrt(math.log(2.0)), B=0.1, lam=1.0)
    m = derive_metrics(p)
    assert m.s_rate == pytest.approx(1.0, rel=1e-12)


def test_metrics_refuse_failed_fit():
    fit = HistoryFit(
        params=ASTRO,
        se_A=0.1,
        se_mu=0.1,
        se_sigma=0.1,
        se_B=0.1,
        se_lambda=0.1,
        r2_adj=0.5,
        residuals=(0.0,),
        converged=False,
        discipline="x",
        dataset_year=2019,
        percentile_cap=None,
        diagnostics=FitDiagnostics(
            starts=36, abandoned=0, failed=(), best_start=0, best_status=0, nfev=1000
        ),
    )
    with pytest.raises(InvalidInputError):
        derive_metrics(fit)


def test_peak_age_maximizes_the_bump_component():
    # t_peak locates the maximum of the transient component alone; u_peak
    # then evaluates the full curve there. Probe the component directly.
    for label in ("astro-ph", "math", "hep"):
        p = params_for(label)
        m = derive_metrics(p)
        bump_only = HistoryParams(A=p.A, mu=p.mu, sigma=p.sigma, B=1e-12, lam=1.0)

        def bump(t):
            return eval_history(bump_only, t)

        for dt in (-0.05, 0.05):
            assert bump(m.t_peak) >= bump(max(m.t_peak + dt, 0.0))
        # closed form of the component maximizer
        assert m.t_peak == pytest.approx(
            math.exp(p.mu - p.sigma**2) - 1.0, abs=1e-7
        )
        assert m.u_peak == pytest.approx(eval_history(p, m.t_peak), rel=1e-12)


def _numeric_peak_age(p: HistoryParams, hi: float) -> float:
    # Cross-check only: maximize the jump-decay component on [0, hi].
    res = minimize_scalar(
        lambda t: -historyfit._lognormal_density(t + 1.0, p.mu, p.sigma),
        bounds=(0.0, hi),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


def test_peak_age_is_zero_when_the_mode_precedes_age_zero():
    # mu < sigma^2: the lognormal mode lies before the first shifted age.
    p = HistoryParams(A=2.0, mu=0.3, sigma=0.9, B=0.1, lam=1.0)
    m = derive_metrics(p)
    assert m.t_peak == 0.0
    assert m.u_peak == eval_history(p, 0.0)
    assert _numeric_peak_age(p, 50.0) == pytest.approx(0.0, abs=1e-6)


def test_peak_age_is_the_true_mode_beyond_fifty_years():
    p = HistoryParams(A=2.0, mu=5.0, sigma=0.5, B=0.1, lam=1.0)
    m = derive_metrics(p)
    assert m.t_peak == math.exp(5.0 - 0.25) - 1.0  # about 114.6
    assert m.t_peak > 50.0
    assert m.t_peak == pytest.approx(_numeric_peak_age(p, 500.0), rel=1e-7)


@given(
    mu=st.floats(min_value=-1.0, max_value=4.0),
    sigma=st.floats(min_value=0.2, max_value=2.0),
    h=st.floats(min_value=1e-3, max_value=5.0),
)
def test_peak_age_maximizes_the_component_property(mu, sigma, h):
    p = HistoryParams(A=1.0, mu=mu, sigma=sigma, B=0.1, lam=1.0)
    t_peak = derive_metrics(p).t_peak
    jump = historyfit._components(p, np.array([t_peak, t_peak + h, max(t_peak - h, 0.0)]))[0]
    assert jump[0] >= jump[1]
    assert jump[0] >= jump[2]


# --- trend -----------------------------------------------------------------------


def test_trend_metrics_composition():
    widths = [1.0, 0.9]
    panels = [
        make_panel(
            HistoryParams(A=2.0, mu=1.6, sigma=w, B=0.15, lam=1.2),
            dataset_year=2018 + i,
        )
        for i, w in enumerate(widths)
    ]
    points = trend_metrics(panels)
    assert [p.dataset_year for p in points] == [2018, 2019]
    for point, w in zip(points, widths):
        assert point.converged
        assert point.s_rate == pytest.approx(1.0 / math.expm1(w * w), rel=1e-3)
        assert point.i_rate == pytest.approx(1.0 / point.r_rate, rel=1e-12)


# --- serialization -----------------------------------------------------------------


def test_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(ASTRO, path, t_max=2.0, step=0.5)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["t"]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    for r in rows:
        assert float(r["u_hat"]) == pytest.approx(
            float(r["f_component"]) + float(r["g_component"]), rel=1e-12
        )
        assert float(r["u_hat"]) == pytest.approx(
            eval_history(ASTRO, float(r["t"])), rel=1e-12
        )
