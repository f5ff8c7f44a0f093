"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with its runtime so the gate can be read off the log.

Reference rows and regression anchors come from tests/_reference.py; the
wall-clock budgets are part of the criteria and are asserted, not advisory.
"""

import math
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from citedyn import corpus, distfit, gamma, historyfit, stochastic

from _reference import (
    DRIFT_MAX_AGE,
    DRIFT_DISCIPLINE,
    DRIFT_TREND_START,
    DRIFT_LAST_COHORT,
    RECKONER_AGES,
    RECKONER_C_LEVELS,
    RECKONER_TABLE,
    REFERENCE_METRICS,
    all_reference_rows,
    drift_corpus,
    make_panel,
    params_for,
)

DISCIPLINES = ("astro-ph", "comp-sci", "cond-mat", "hep", "math", "oth-phys")


@contextmanager
def reported(name: str, budget_s: float):
    """Print one gate line per criterion, on the real stdout."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        print(f"[FAIL] {name}: {exc}", file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(
            f"[FAIL] {name}: took {elapsed:.2f}s, budget {budget_s:g}s",
            file=sys.__stdout__,
            flush=True,
        )
        raise AssertionError(f"{name} exceeded its {budget_s:g}s budget")
    print(
        f"[PASS] {name} ({elapsed:.2f}s, budget {budget_s:g}s)",
        file=sys.__stdout__,
        flush=True,
    )


@lru_cache(maxsize=1)
def shared_ensemble():
    """10k exact paths on the reference curve, reused by criteria 6-8."""
    return stochastic.simulate_ensemble(
        params_for("astro-ph"),
        stochastic.volatility(0.0281, 0.200),
        stochastic.SdeConfig(dt=0.5, horizon=10.0, n_paths=10_000, seed=0),
    )


def test_c01_derived_rate_columns():
    with reported("01 derived-rate columns", 1.0):
        for d in DISCIPLINES:
            m = historyfit.derive_metrics(params_for(d))
            ref = REFERENCE_METRICS[d]
            assert m.delta1 == pytest.approx(ref["delta1"], abs=0.02), d
            assert m.delta2 == pytest.approx(ref["delta2"], abs=0.02), d
            assert m.s_rate == pytest.approx(ref["s_rate"], abs=0.02), d


def test_c02_peak_heights():
    with reported("02 peak heights", 1.0):
        for d in DISCIPLINES:
            m = historyfit.derive_metrics(params_for(d))
            assert m.u_peak == pytest.approx(REFERENCE_METRICS[d]["u_peak"], abs=0.01), d


def test_c03_reckoner_spot_values():
    # finite-rate, capped, and masked regions of the quoted tables
    spots = [
        ("astro-ph", 5, 2),
        ("astro-ph", 5, 6),
        ("astro-ph", 5, 10),
        ("astro-ph", 100, 2),
        ("astro-ph", 100, 10),
        ("hep", 50, 2),
        ("hep", 50, 5),
        ("hep", 50, 10),
        ("hep", 5, 2),
        ("hep", 5, 10),
        ("comp-sci", 10, 2),
        ("comp-sci", 10, 5),
        ("comp-sci", 10, 10),
        ("comp-sci", 5, 2),
        ("comp-sci", 5, 3),
    ]
    masked = [("comp-sci", 5, 4), ("comp-sci", 5, 10)]
    with reported("03 reckoner spot values", 1.0):
        tables = {
            d: gamma.build_reckoner(
                params_for(d), RECKONER_C_LEVELS, RECKONER_AGES, discipline=d
            )
            for d in ("astro-ph", "hep", "comp-sci")
        }
        for d, c, age in spots:
            got = tables[d].matrix[RECKONER_C_LEVELS.index(c)][age - 2]
            want = RECKONER_TABLE[d][c][age - 2]
            assert got == pytest.approx(want, abs=0.01), (d, c, age)
        for d, c, age in masked:
            assert tables[d].matrix[RECKONER_C_LEVELS.index(c)][age - 2] is None, (d, c, age)


def test_c04_panel_refits():
    with reported("04 panel refits", 30.0):
        for label, truth in all_reference_rows():
            fit = historyfit.fit_history(make_panel(truth))
            assert fit.converged, label
            assert fit.diagnostics.abandoned == 0, label
            got = fit.params
            for attr in ("A", "mu", "sigma", "B"):
                rel = abs(getattr(got, attr) / getattr(truth, attr) - 1.0)
                assert rel <= 0.01, (label, attr, rel)
            if truth.lambda_capped:
                assert got.lambda_capped, label
            else:
                assert not got.lambda_capped, label
                assert abs(got.lam / truth.lam - 1.0) <= 0.10, label
        # 2% multiplicative noise on every age (one frozen draw per row)
        for label, truth in all_reference_rows():
            fit = historyfit.fit_history(make_panel(truth, noise_sd=0.02, seed=15))
            assert fit.converged, label
            assert fit.diagnostics.abandoned == 0, label
            got = fit.params
            for attr in ("A", "mu", "sigma", "B"):
                rel = abs(getattr(got, attr) / getattr(truth, attr) - 1.0)
                assert rel <= 0.10, (label, attr, rel)


def test_c05_count_distribution_recovery():
    b_true, m_true = 1.08, 1.07
    with reported("05 count-distribution recovery", 5.0):
        # exact line: recovery to numerical precision
        q = np.linspace(0.2, 0.99, 400)
        series = distfit.QuantileSeries(
            y=b_true + m_true * distfit.normal_quantile(q),
            q=q,
            n_total=q.size,
            zero_excluded=False,
        )
        clean = distfit.fit_lognormal_quantile(series)
        assert abs(clean.b - b_true) <= 1e-6
        assert abs(clean.m - m_true) <= 1e-6

        rng = np.random.default_rng(42)
        c = np.rint(np.expm1(b_true + m_true * rng.standard_normal(10_000)))
        c = np.clip(c, 0, None).astype(int)
        fit = distfit.fit_lognormal_quantile(distfit.make_quantile_series(c))
        assert abs(fit.b - b_true) <= 0.05
        assert abs(fit.m - m_true) <= 0.05
        assert fit.r2_adj > 0.99


def test_c06_ensemble_mean_and_log_variance():
    with reported("06 ensemble mean and log-variance", 30.0):
        ens = shared_ensemble()
        params, vol = ens.params, ens.vol
        for t in (1.0, 5.0, 10.0):
            i = int(round(t / ens.config.dt))
            sample = ens.paths[:, i]
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            gap = abs(sample.mean() - historyfit.eval_history(params, t))
            assert gap <= 3.0 * se, (t, gap, 3.0 * se)
        v = float(np.log(ens.paths[:, -1]).var(ddof=1))
        want = stochastic.log_variance(10.0, vol)
        assert want == pytest.approx(1.175, abs=0.001)
        assert abs(v / want - 1.0) <= 0.05


def test_c07_count_quantiles_follow_a_line():
    with reported("07 count quantiles on a line", 30.0):
        counts = stochastic.count_citations(shared_ensemble())
        series = distfit.make_quantile_series(counts.tolist())
        fit = distfit.fit_lognormal_quantile(series)
        assert fit.r2_adj > 0.98, fit.r2_adj


def test_c08_closed_form_marginal():
    with reported("08 closed-form marginal", 30.0):
        ens = shared_ensemble()
        params, vol = ens.params, ens.vol
        mass, _ = quad(
            lambda x: stochastic.closed_form_density(x, 5.0, params, vol),
            0.0,
            np.inf,
            limit=200,
        )
        assert abs(mass - 1.0) <= 1e-6
        sample = np.sort(ens.paths[:, int(round(5.0 / ens.config.dt))])
        u = historyfit.eval_history(params, 5.0)
        v = stochastic.log_variance(5.0, vol)
        cdf = distfit.normal_cdf((np.log(sample) - (math.log(u) - 0.5 * v)) / math.sqrt(v))
        n = sample.size
        ks = max(
            float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(n) / n)),
        )
        assert ks < 0.02, ks


def test_c09_rank_standardization():
    with reported("09 rank standardization", 5.0):
        rng = np.random.default_rng(11)
        scores = []
        for i in range(10_000):
            k = i % 6
            scores.append(
                gamma.GammaScore(
                    eprint_id=f"e{i}",
                    discipline=DISCIPLINES[k],
                    T=5,
                    c=10,
                    gamma=float(rng.normal(0.3 * k, 1.0 + 0.1 * k)),
                )
            )
        stars = gamma.gamma_star_scores(scores)
        for d in DISCIPLINES:
            raw = [s.gamma for s in scores if s.discipline == d]
            std = [st.gamma_star for st, s in zip(stars, scores) if s.discipline == d]
            arr = np.array(std)
            assert abs(arr.mean()) <= 0.05, d
            assert abs(arr.std(ddof=1) - 1.0) <= 0.05, d
            assert gamma.pearson_r(raw, std) > 0.98, d


def test_c10_timing_clt():
    with reported("10 timing CLT", 5.0):
        many = stochastic.simulate_timing_clt(
            stochastic.TimingSimConfig(n_events=100, n_samples=10_000, epsilon_bound=0.1)
        )
        assert abs(many.skewness) < 0.1, many.skewness
        assert abs(many.excess_kurtosis) < 0.2, many.excess_kurtosis
        single = stochastic.simulate_timing_clt(
            stochastic.TimingSimConfig(n_events=1, n_samples=10_000, epsilon_bound=0.1)
        )
        assert single.jb_pvalue < 1e-6, single.jb_pvalue


def test_c11_drifting_trend(tmp_path, monkeypatch):
    fits = []
    fit_history = historyfit.fit_history

    def recording(panel, options=None):
        fits.append(fit_history(panel, options))
        return fits[-1]

    monkeypatch.setattr(historyfit, "fit_history", recording)
    with reported("11 drifting trend", 60.0):
        path = tmp_path / "drift.csv"
        corpus.write_long_csv(drift_corpus(), path)
        corp = corpus.load_corpus(path, "long-csv")
        panels = corpus.build_trend_subsets(
            corp,
            DRIFT_DISCIPLINE,
            DRIFT_TREND_START,
            DRIFT_LAST_COHORT,
            1.0,
            max_age=DRIFT_MAX_AGE,
        )
        points = historyfit.trend_metrics(panels)
        assert len(points) == 10
        assert all(p.converged for p in points)
        assert len(fits) == 10
        assert all(f.diagnostics.abandoned == 0 for f in fits)
        s = [p.s_rate for p in points]
        r = [p.r_rate for p in points]
        assert all(a < b for a, b in zip(s, s[1:])), s
        assert all(a > b for a, b in zip(r, r[1:])), r
