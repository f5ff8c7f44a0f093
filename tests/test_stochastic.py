"""Volatility fitting, path simulation, counting, and the timing CLT."""

import csv
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from citedyn.errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InsufficientDataError,
)
from citedyn.historyfit import HistoryParams, eval_history
from citedyn.stochastic import (
    BLOCK_PATHS,
    PathEnsemble,
    SdeConfig,
    TimingSimConfig,
    beta_star,
    closed_form_density,
    count_citations,
    ensemble_blocks,
    expected_log_factor,
    fit_volatility,
    log_variance,
    simulate_ensemble,
    simulate_timing_clt,
    variance_log_factor,
    verify_ensemble,
    volatility,
    write_ensemble_csv,
    _density_mass,
)

from _reference import ORACLE, REFERENCE_FITS, params_for

ASTRO = params_for("astro-ph")
VOL = volatility(0.0281, 0.200)


# --- volatility scale ---------------------------------------------------------


def test_volatility_validation_and_dict_round_trip():
    with pytest.raises(DomainError):
        volatility(0.0, 0.2)
    with pytest.raises(DomainError):
        volatility(0.1, -0.2)
    d = dataclasses.asdict(VOL)
    assert d["s1"] == 0.0281 and d["s2"] == 0.200
    assert type(VOL).from_dict(d).s1 == VOL.s1


def test_log_variance_and_beta_star_frozen():
    assert log_variance(10.0, VOL) == pytest.approx(ORACLE["vol_varlog_10"], rel=1e-13)
    assert beta_star(10.0, VOL) == pytest.approx(ORACLE["vol_beta_10"], rel=1e-13)
    arr = log_variance(np.array([10.0, 10.0]), VOL)
    assert arr[0] == arr[1] == log_variance(10.0, VOL)
    with pytest.raises(DomainError):
        beta_star(-1.0, VOL)


def test_beta_star_asymptotics():
    # early-age plateau sqrt(s2/s1), late-age decay sqrt(s2/t)
    early = beta_star(VOL.s1 / 100.0, VOL)
    assert early == pytest.approx(math.sqrt(VOL.s2 / VOL.s1), rel=0.01)
    late = beta_star(100.0 * VOL.s1, VOL)
    assert late == pytest.approx(math.sqrt(VOL.s2 / (100.0 * VOL.s1)), rel=0.01)


def test_fit_volatility_exact_recovery():
    t = np.arange(1, 25, dtype=float)
    m = np.sqrt(log_variance(t, VOL))
    fit = fit_volatility(zip(t, m))
    assert fit.s1 == pytest.approx(0.0281, rel=1e-6)
    assert fit.s2 == pytest.approx(0.200, rel=1e-6)
    assert fit.r2_adj == pytest.approx(1.0, abs=1e-9)
    assert fit.n == 24
    assert fit.se_s1 >= 0.0 and fit.se_s2 >= 0.0
    # spot value quoted along the reference scale
    assert m[9] == pytest.approx(ORACLE["vol_m_10"], rel=1e-12)


def test_fit_volatility_with_noise():
    rng = np.random.default_rng(5)
    t = np.arange(1, 25, dtype=float)
    m = np.sqrt(log_variance(t, VOL)) * (1.0 + 0.01 * rng.standard_normal(t.size))
    fit = fit_volatility(zip(t, m))
    assert fit.s1 == pytest.approx(0.0281, rel=0.25)  # s1 is weakly identified
    assert fit.s2 == pytest.approx(0.200, rel=0.05)


def test_fit_volatility_errors():
    with pytest.raises(InsufficientDataError):
        fit_volatility([(1, 0.5), (2, 0.7)])
    with pytest.raises(DataError):
        fit_volatility([(0.0, 0.5), (2, 0.7), (3, 0.8)])
    with pytest.raises(DataError):
        fit_volatility([(1, 0.5), (2, -0.7), (3, 0.8)])
    with pytest.raises(ConvergenceError):
        fit_volatility([(1, 1.0), (2, 0.7), (3, 0.5), (4, 0.4)])


# --- simulation config ----------------------------------------------------------


def test_sde_config_validation():
    good = SdeConfig(dt=0.25, horizon=2.0, n_paths=10, seed=0)
    assert good.n_steps == 8
    with pytest.raises(DomainError):
        SdeConfig(dt=1.5, horizon=3.0, n_paths=10, seed=0)
    with pytest.raises(DomainError):
        SdeConfig(dt=0.5, horizon=0.25, n_paths=10, seed=0)
    with pytest.raises(DomainError):
        SdeConfig(dt=0.3, horizon=1.0, n_paths=10, seed=0)
    with pytest.raises(DomainError):
        SdeConfig(dt=0.5, horizon=2.0, n_paths=0, seed=0)
    with pytest.raises(DomainError):
        SdeConfig(dt=0.5, horizon=2.0, n_paths=10, seed=-1)
    with pytest.raises(DomainError):
        SdeConfig(dt=0.5, horizon=2.0, n_paths=10, seed=0, counting_mode="exact")


# --- exact sampler ----------------------------------------------------------------


def simulate(n_paths=4000, dt=0.5, horizon=10.0, seed=123, **kw):
    config = SdeConfig(dt=dt, horizon=horizon, n_paths=n_paths, seed=seed)
    return simulate_ensemble(ASTRO, VOL, config, **kw)


def test_paths_start_at_the_curve_and_stay_positive():
    ens = simulate(n_paths=200)
    assert np.all(ens.paths[:, 0] == eval_history(ASTRO, 0.0))
    assert np.all(ens.paths > 0.0)
    assert ens.grid[-1] == 10.0
    assert ens.method == "exact"


def test_exact_sampler_matches_mean_and_log_variance():
    ens = simulate()
    u = eval_history(ASTRO, ens.grid)
    for t_check in (2.0, 10.0):
        i = int(np.argmin(np.abs(ens.grid - t_check)))
        sample = ens.paths[:, i]
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - u[i]) <= 4.0 * se
        v = np.log(sample).var(ddof=1)
        assert v == pytest.approx(log_variance(t_check, VOL), rel=0.10)


def test_simulation_is_deterministic_and_thread_invariant():
    a = simulate(n_paths=64, threads=1)
    b = simulate(n_paths=64, threads=4)
    c = simulate(n_paths=64)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.paths, c.paths)
    other = simulate(n_paths=64, seed=124)
    assert not np.array_equal(a.paths, other.paths)


def test_thread_env_override(monkeypatch):
    base = simulate(n_paths=32)
    monkeypatch.setenv("CITEDYN_THREADS", "3")
    assert np.array_equal(simulate(n_paths=32).paths, base.paths)
    monkeypatch.setenv("CITEDYN_THREADS", "zero")
    with pytest.raises(DomainError):
        simulate(n_paths=32)


def test_path_count_independence():
    # path k draws from its own stream: a smaller ensemble is a prefix
    big = simulate(n_paths=50)
    small = simulate(n_paths=10)
    assert np.array_equal(big.paths[:10], small.paths)


def test_euler_method_close_but_distinct():
    config = SdeConfig(dt=0.01, horizon=2.0, n_paths=2000, seed=9)
    euler = simulate_ensemble(ASTRO, VOL, config, method="euler")
    exact = simulate_ensemble(ASTRO, VOL, config, method="exact")
    assert euler.method == "euler"
    assert not np.array_equal(euler.paths, exact.paths)
    u2 = eval_history(ASTRO, 2.0)
    sample = euler.paths[:, -1]
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(sample.mean() - u2) <= 4.0 * se + 0.02 * u2  # 4 SE plus O(dt) bias room


def test_unknown_method_rejected():
    with pytest.raises(DomainError):
        simulate(n_paths=2, method="milstein")


def test_seed_must_fit_the_philox_key():
    for bad in (2**64, 2**70, -1, True, False, 1.0):
        with pytest.raises(DomainError):
            SdeConfig(dt=0.5, horizon=2.0, n_paths=3, seed=bad)
    config = SdeConfig(dt=0.5, horizon=2.0, n_paths=3, seed=2**64 - 1)
    ens = simulate_ensemble(ASTRO, VOL, config)
    assert np.array_equal(ens.paths[2:], scalar_reference(config, "exact", rows=[2]))


# --- block kernel -----------------------------------------------------------------


def scalar_reference(config, method, rows=None):
    """The per-path scalar sampler the block kernel replaced: a fresh
    Philox(key=[seed, k]) per path and, for Euler, one step at a time."""
    n_steps = config.n_steps
    grid = np.arange(n_steps + 1, dtype=float) * config.dt
    u = eval_history(ASTRO, grid)
    x0 = float(u[0])
    if method == "exact":
        dln_u = np.diff(np.log(u))
        i_beta = VOL.s2 * np.log((grid[1:] + VOL.s1) / (grid[:-1] + VOL.s1))
        drift = dln_u - 0.5 * i_beta
        sigma = np.sqrt(i_beta)
    else:
        ratio = u[1:] / u[:-1]
        sigma = beta_star(grid[:-1], VOL) * math.sqrt(config.dt)
    rows = range(config.n_paths) if rows is None else rows
    paths = np.empty((len(rows), n_steps + 1))
    for out, k in enumerate(rows):
        key = np.array([config.seed, k], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_steps)
        if method == "exact":
            paths[out, 0] = x0
            paths[out, 1:] = np.exp(math.log(x0) + np.cumsum(drift + sigma * z))
        else:
            x = np.empty(n_steps + 1)
            x[0] = x0
            for i in range(n_steps):
                x[i + 1] = x[i] * (ratio[i] + sigma[i] * z[i])
            paths[out] = x
    return paths


@pytest.mark.parametrize("method", ["exact", "euler"])
def test_block_kernel_matches_the_scalar_sampler(method):
    config = SdeConfig(dt=0.1, horizon=5.0, n_paths=BLOCK_PATHS + 44, seed=5)
    ens = simulate_ensemble(ASTRO, VOL, config, method=method)
    assert np.array_equal(ens.paths, scalar_reference(config, method))


BLOCK_CONFIG = dict(dt=0.1, horizon=5.0, seed=3)


@pytest.mark.parametrize("method", ["exact", "euler"])
@pytest.mark.parametrize("n_paths", [1, BLOCK_PATHS - 1, BLOCK_PATHS, BLOCK_PATHS + 1, 1000])
def test_blocks_partition_the_ensemble(n_paths, method):
    config = SdeConfig(n_paths=n_paths, **BLOCK_CONFIG)
    full = simulate_ensemble(ASTRO, VOL, config, method=method)
    blocks = list(ensemble_blocks(ASTRO, VOL, config, method))
    assert [b.paths.shape[0] for b in blocks] == [
        min(BLOCK_PATHS, n_paths - lo) for lo in range(0, n_paths, BLOCK_PATHS)
    ]
    assert all(b.method == method and b.config == config for b in blocks)
    assert np.array_equal(np.concatenate([b.paths for b in blocks]), full.paths)
    for mode in ("integral-floor", "yearly-floor-sum"):
        streamed = np.concatenate([count_citations(b, mode) for b in blocks])
        assert np.array_equal(streamed, count_citations(full, mode))


@functools.cache
def full_paths(method):
    config = SdeConfig(n_paths=600, **BLOCK_CONFIG)
    return simulate_ensemble(ASTRO, VOL, config, method=method).paths


@given(
    method=st.sampled_from(["exact", "euler"]),
    a=st.integers(0, 599),
    length=st.integers(1, 600),
    step=st.integers(1, 3),
)
def test_any_path_range_reproduces_its_rows(method, a, length, step):
    config = SdeConfig(n_paths=600, **BLOCK_CONFIG)
    rows = range(a, min(a + length, 600), step)
    part = simulate_ensemble(ASTRO, VOL, config, method=method, paths=rows)
    assert np.array_equal(part.paths, full_paths(method)[a : a + length : step])


def test_path_range_must_lie_in_the_ensemble():
    config = SdeConfig(n_paths=10, **BLOCK_CONFIG)
    for bad in (range(0), range(-1, 3), range(5, 11), [0, 1], slice(0, 2)):
        with pytest.raises(DomainError):
            simulate_ensemble(ASTRO, VOL, config, paths=bad)
    back = simulate_ensemble(ASTRO, VOL, config, paths=range(9, -1, -1))
    full = simulate_ensemble(ASTRO, VOL, config)
    assert np.array_equal(back.paths, full.paths[::-1])


def test_verify_ensemble_reads_the_whole_ensemble():
    config = SdeConfig(dt=0.5, horizon=10.0, n_paths=BLOCK_PATHS * 3 + 7, seed=2)
    checks = {c["name"]: c for c in verify_ensemble(ASTRO, VOL, config)}
    assert list(checks) == [
        "positivity",
        "mean_recovery_t1",
        "mean_recovery_t5",
        "mean_recovery_t10",
        "log_variance_horizon",
        "density_normalization",
        "ks_t5",
        "lognormal_law_counts",
        "beta_star_asymptotics",
    ]
    paths = simulate_ensemble(ASTRO, VOL, config).paths
    assert checks["positivity"]["observed"] == paths.min()
    for t in (1, 5, 10):
        col = paths[:, 2 * t]
        assert checks[f"mean_recovery_t{t}"]["observed"] == pytest.approx(col.mean(), rel=1e-13)
        se = col.std(ddof=1) / math.sqrt(config.n_paths)
        assert checks[f"mean_recovery_t{t}"]["bound"] == pytest.approx(3 * se, rel=1e-13)
    var = np.log(paths[:, -1]).var(ddof=1)
    assert checks["log_variance_horizon"]["observed"] == pytest.approx(var, rel=1e-13)


def test_verify_ensemble_on_a_short_horizon():
    config = SdeConfig(dt=0.25, horizon=3.0, n_paths=300, seed=1)
    names = [c["name"] for c in verify_ensemble(ASTRO, VOL, config)]
    assert "mean_recovery_t1" in names and "ks_t3" in names
    assert "mean_recovery_t5" not in names and "mean_recovery_t10" not in names


# --- closed-form marginal -----------------------------------------------------------


def test_density_normalizes_and_locates_mass():
    total, _ = quad(lambda x: closed_form_density(x, 5.0, ASTRO, VOL), 0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)
    # lognormal structure: mode < median < mean, mean equals the curve
    u = eval_history(ASTRO, 5.0)
    v = log_variance(5.0, VOL)
    mean, _ = quad(
        lambda x: x * closed_form_density(x, 5.0, ASTRO, VOL), 0.0, np.inf, limit=200
    )
    assert mean == pytest.approx(u, rel=1e-7)
    mode = math.exp(math.log(u) - 0.5 * v - v)
    assert closed_form_density(mode, 5.0, ASTRO, VOL) > closed_form_density(
        mode * 1.05, 5.0, ASTRO, VOL
    )
    assert closed_form_density(-1.0, 5.0, ASTRO, VOL) == 0.0
    assert closed_form_density(0.0, 5.0, ASTRO, VOL) == 0.0
    with pytest.raises(DomainError):
        closed_form_density(1.0, 0.0, ASTRO, VOL)


@pytest.mark.parametrize("s2", [1e-6, 8.0])
def test_density_normalization_at_extreme_volatility(s2):
    # quad over (0, inf) returns 0.0 (with an IntegrationWarning) for the
    # narrow marginal and 0.99392 for the wide one.
    config = SdeConfig(dt=0.5, horizon=10.0, n_paths=300, seed=0)
    checks = {c["name"]: c for c in verify_ensemble(ASTRO, volatility(0.0281, s2), config)}
    check = checks["density_normalization"]
    assert check["pass"] is True
    assert abs(check["observed"] - 1.0) <= 1e-12


@given(
    discipline=st.sampled_from(sorted(REFERENCE_FITS)),
    s1=st.floats(1e-3, 1.0),
    s2=st.floats(1e-6, 10.0),
    t=st.floats(0.01, 10.0),
)
def test_density_mass_is_one(discipline, s1, s2, t):
    mass = _density_mass(t, params_for(discipline), volatility(s1, s2))
    assert abs(mass - 1.0) <= 1e-12


def quad_mass(t, params, vol):
    """Mass of closed_form_density by quad, split at median * e^(k s), |k| <= 8.

    A single quad over (0, inf) misses up to 4e-9 of the mass on the
    reference volatility; pieces one log-sd wide across the bulk resolve it.
    """
    v = vol.s2 * math.log(t / vol.s1 + 1.0)
    median = eval_history(params, t) * math.exp(-0.5 * v)
    s = math.sqrt(v)
    edges = [0.0, *(median * math.exp(k * s) for k in range(-8, 9)), np.inf]
    return math.fsum(
        quad(lambda x: closed_form_density(x, t, params, vol), a, b, epsabs=1e-15, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


@given(discipline=st.sampled_from(sorted(REFERENCE_FITS)), t=st.floats(0.01, 10.0))
def test_density_mass_matches_quad(discipline, t):
    params = params_for(discipline)
    assert abs(_density_mass(t, params, VOL) - quad_mass(t, params, VOL)) <= 1e-10


def test_simulated_marginal_matches_density():
    ens = simulate(n_paths=10_000)
    i = int(np.argmin(np.abs(ens.grid - 5.0)))
    sample = np.sort(ens.paths[:, i])
    u = eval_history(ASTRO, 5.0)
    v = log_variance(5.0, VOL)
    z = (np.log(sample) - (math.log(u) - 0.5 * v)) / math.sqrt(v)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    n = sample.size
    ks = np.max(
        np.maximum(np.arange(1, n + 1) / n - cdf, cdf - np.arange(n) / n)
    )
    assert ks < 0.02


# --- citation counting ----------------------------------------------------------------


def constant_ensemble(level, dt=1.0, horizon=4.0, mode="integral-floor"):
    config = SdeConfig(dt=dt, horizon=horizon, n_paths=1, seed=0, counting_mode=mode)
    n = config.n_steps + 1
    return PathEnsemble(
        grid=np.arange(n, dtype=float) * dt,
        paths=np.full((1, n), float(level)),
        params=ASTRO,
        vol=VOL,
        config=config,
        method="exact",
    )


def test_counting_modes_on_constant_paths():
    ens = constant_ensemble(2.5)
    assert count_citations(ens).tolist() == [10]
    assert count_citations(ens, "yearly-floor-sum").tolist() == [8]
    low = constant_ensemble(0.4)
    assert count_citations(low).tolist() == [1]
    assert count_citations(low, "yearly-floor-sum").tolist() == [0]


def test_counting_mode_defaults_to_config():
    ens = constant_ensemble(2.5, mode="yearly-floor-sum")
    assert count_citations(ens).tolist() == [8]


def test_yearly_counting_needs_unit_compatible_grid():
    ens = constant_ensemble(1.0, dt=0.4, horizon=2.0)
    with pytest.raises(DomainError):
        count_citations(ens, "yearly-floor-sum")
    with pytest.raises(DomainError):
        count_citations(ens, "midpoint")


def test_counts_are_integers_from_simulation():
    counts = count_citations(simulate(n_paths=50))
    assert counts.shape == (50,)
    assert np.all(counts >= 0)
    assert np.all(counts == np.floor(counts))


# --- timing CLT -------------------------------------------------------------------------


def test_log_factor_moments_frozen():
    assert expected_log_factor(0.1) == pytest.approx(ORACLE["timing_mean_01"], rel=1e-12)
    assert variance_log_factor(0.1) == pytest.approx(ORACLE["timing_var_01"], rel=1e-12)
    assert expected_log_factor(0.0) == 0.0
    assert variance_log_factor(0.0) == 0.0
    with pytest.raises(DomainError):
        expected_log_factor(1.0)
    with pytest.raises(DomainError):
        variance_log_factor(-0.1)


def test_timing_config_validation():
    with pytest.raises(DomainError):
        TimingSimConfig(n_events=0, n_samples=100, epsilon_bound=0.1)
    with pytest.raises(DomainError):
        TimingSimConfig(n_events=10, n_samples=1, epsilon_bound=0.1)
    with pytest.raises(DomainError):
        TimingSimConfig(n_events=10, n_samples=100, epsilon_bound=1.0)
    with pytest.raises(DomainError):
        TimingSimConfig(n_events=10, n_samples=100, epsilon_bound=0.1, t0=0.0)


def test_many_events_look_normal():
    report = simulate_timing_clt(
        TimingSimConfig(n_events=100, n_samples=4000, epsilon_bound=0.1, seed=1)
    )
    assert abs(report.skewness) < 0.15
    assert abs(report.excess_kurtosis) < 0.3
    assert report.jb_pvalue > 1e-3
    # sample moments sit on the closed forms
    se_mean = math.sqrt(report.expected_var_log / report.n_samples)
    assert abs(report.mean_log - report.expected_mean_log) < 4.0 * se_mean
    assert report.var_log == pytest.approx(report.expected_var_log, rel=0.10)


def test_single_event_rejected_as_normal():
    report = simulate_timing_clt(
        TimingSimConfig(n_events=1, n_samples=10_000, epsilon_bound=0.1, seed=2)
    )
    # one uniform factor: flat-topped, strongly platykurtic
    assert report.excess_kurtosis < -1.0
    assert report.jb_pvalue < 1e-6


def test_zero_bound_convention():
    report = simulate_timing_clt(
        TimingSimConfig(n_events=5, n_samples=100, epsilon_bound=0.0, t0=2.0)
    )
    assert report.skewness == 0.0
    assert report.excess_kurtosis == 0.0
    assert report.jb_pvalue == 1.0
    assert report.mean_log == pytest.approx(math.log(2.0), rel=1e-15)
    assert report.var_log == 0.0


# --- serialization ------------------------------------------------------------------------


def test_ensemble_csv_paths_and_summary(tmp_path):
    ens = simulate(n_paths=5, dt=0.5, horizon=2.0)
    p_paths = tmp_path / "paths.csv"
    write_ensemble_csv(ens, p_paths)
    with open(p_paths, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 5
    assert float(rows[0]["x"]) == ens.paths[0, 0]
    # Every line, not just the first: repr round-trips each float exactly.
    expected = ["path_id,t,x"] + [
        f"{pid},{t!r},{x!r}"
        for pid in range(ens.paths.shape[0])
        for t, x in zip(ens.grid.tolist(), ens.paths[pid].tolist())
    ]
    assert p_paths.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    p_sum = tmp_path / "summary.csv"
    write_ensemble_csv(ens, p_sum, mode="summary")
    with open(p_sum, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["t"] for r in rows] == [repr(float(t)) for t in ens.grid]
    assert float(rows[-1]["mean"]) == pytest.approx(ens.paths[:, -1].mean(), rel=1e-15)
    assert float(rows[0]["var"]) == 0.0  # all paths share x0

    with pytest.raises(DomainError):
        write_ensemble_csv(ens, tmp_path / "bad.csv", mode="wide")
