"""Quantile-coordinate distribution fitting: normal helpers, rank
construction, and the two line fits."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedyn import distfit
from citedyn.errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
)

from _reference import ORACLE


# --- normal CDF / quantile ---------------------------------------------------


def test_normal_cdf_frozen_values():
    assert distfit.normal_cdf(1.0) == pytest.approx(ORACLE["phi_1"], abs=1e-14)
    assert distfit.normal_cdf(-1.122) == pytest.approx(ORACLE["phi_m1122"], abs=1e-14)
    assert distfit.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_normal_quantile_frozen_values():
    assert distfit.normal_quantile(0.999) == pytest.approx(
        ORACLE["phiinv_0999"], abs=1e-11
    )
    assert distfit.normal_quantile(1.0 / 6.0) == pytest.approx(
        ORACLE["phiinv_sixth"], abs=1e-11
    )
    assert distfit.normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_cdf_quantile_round_trip_tolerance():
    q = np.concatenate(
        [
            np.geomspace(1e-8, 0.4, 300),
            np.linspace(0.4, 0.6, 100),
            1.0 - np.geomspace(1e-8, 0.4, 300),
        ]
    )
    x = distfit.normal_quantile(q)
    back = distfit.normal_cdf(x)
    assert np.max(np.abs(back - q)) <= 1e-12


def test_normal_quantile_rejects_out_of_domain():
    for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(DomainError):
            distfit.normal_quantile(bad)
    with pytest.raises(DomainError):
        distfit.normal_quantile([0.5, 1.0])


@given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
def test_cdf_inverts_quantile_property(q):
    assert abs(distfit.normal_cdf(distfit.normal_quantile(q)) - q) <= 1e-12


def test_normal_routines_map_scalars_to_floats_and_arrays_to_arrays():
    for fn, arg in ((distfit.normal_cdf, 0.3), (distfit.normal_quantile, 0.3)):
        assert type(fn(arg)) is float
        assert type(fn(np.float64(arg))) is float
        out = fn([arg, arg])
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[0] == fn(arg)


# --- rank construction -------------------------------------------------------


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60))
def test_mid_ranks_match_brute_force(values):
    v = np.array(values)
    expected = [(np.sum(v < x) + np.sum(v == x) / 2) / v.size for x in v]
    assert distfit.mid_ranks(v).tolist() == expected


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=80))
def test_quantile_series_ranks_are_mid_ranks(counts):
    series = distfit.make_quantile_series(counts)
    assert series.q.tolist() == distfit.mid_ranks(np.sort(counts)).tolist()


def test_adjusted_r2():
    assert distfit.adjusted_r2(2.0, 10.0, 12, 3) == 1.0 - (2.0 / 9) / (10.0 / 11)
    assert distfit.adjusted_r2(2.0, 10.0, 3, 3) == 1.0  # no residual dof
    assert distfit.adjusted_r2(0.0, 0.0, 12, 3) == 1.0  # constant response


def test_single_observation_mid_rank():
    series = distfit.make_quantile_series([1])
    assert series.q.tolist() == [0.5]
    assert series.y.tolist() == [math.log(2.0)]
    assert series.n_total == 1
    assert not series.zero_excluded


def test_zero_exclusion_reranks():
    series = distfit.make_quantile_series([0, 0, 1, 3], exclude_zero=True)
    # only the nonzero counts remain, ranked among themselves
    assert series.q.tolist() == [0.25, 0.75]
    assert series.y.tolist() == [math.log(2.0), math.log(4.0)]
    assert series.zero_excluded


def test_tied_counts_share_rank_and_mass_sums_to_one():
    series = distfit.make_quantile_series([2, 2, 2, 7, 7, 11])
    n = series.n_total
    values, counts = np.unique(np.expm1(series.y), return_counts=True)
    assert np.sum(counts / n) == pytest.approx(1.0, abs=1e-15)
    # q strictly increasing across distinct values
    distinct_q = np.unique(series.q)
    assert distinct_q.size == values.size
    assert np.all(np.diff(distinct_q) > 0)
    # ties carry one shared rank
    assert series.q[0] == series.q[1] == series.q[2]


def test_make_quantile_series_rejects_bad_input():
    with pytest.raises(DataError):
        distfit.make_quantile_series([])
    with pytest.raises(DataError):
        distfit.make_quantile_series([3, -1])
    with pytest.raises(DataError):
        distfit.make_quantile_series([0, 0], exclude_zero=True)


def test_series_validation():
    with pytest.raises(DataError):
        distfit.QuantileSeries(
            y=np.array([1.0, 0.5]), q=np.array([0.2, 0.8]), n_total=2, zero_excluded=False
        )
    with pytest.raises(DataError):
        distfit.QuantileSeries(
            y=np.array([0.5, 1.0]), q=np.array([0.0, 0.8]), n_total=2, zero_excluded=False
        )


# --- lognormal quantile fit --------------------------------------------------


def _line_series(b: float, m: float, n: int = 200) -> distfit.QuantileSeries:
    q = np.linspace(0.01, 0.99, n)
    y = b + m * distfit.normal_quantile(q)
    if y[0] < 0:  # keep the shifted-log invariant y >= 0
        y = y - y[0]
    return distfit.QuantileSeries(y=y, q=q, n_total=n, zero_excluded=False)


def test_lognormal_noiseless_recovery():
    series = _line_series(1.0, 0.5)
    fit = distfit.fit_lognormal_quantile(series)
    offset = series.y[0] - (1.0 + 0.5 * distfit.normal_quantile(0.01))
    assert fit.m == pytest.approx(0.5, rel=1e-10)
    assert fit.b == pytest.approx(1.0 + offset, rel=1e-10)
    assert fit.r2_adj == pytest.approx(1.0, abs=1e-12)
    assert fit.se_m == pytest.approx(0.0, abs=1e-9)


@given(
    b=st.floats(min_value=0.0, max_value=3.0),
    m=st.floats(min_value=0.2, max_value=3.0),
)
def test_lognormal_round_trip_property(b, m):
    q = np.linspace(0.02, 0.98, 97)
    y = b + m * distfit.normal_quantile(q)
    y = y - min(0.0, y[0])
    shift = -min(0.0, b + m * distfit.normal_quantile(0.02))
    series = distfit.QuantileSeries(y=y, q=q, n_total=97, zero_excluded=False)
    fit = distfit.fit_lognormal_quantile(series)
    assert abs(fit.m - m) <= 1e-6 * max(1.0, abs(m))
    assert abs(fit.b - (b + shift)) <= 1e-6 * max(1.0, abs(b + shift))


@given(shift=st.floats(min_value=0.1, max_value=5.0))
def test_lognormal_shift_moves_intercept_only(shift):
    base = _line_series(1.2, 0.9)
    moved = distfit.QuantileSeries(
        y=base.y + shift, q=base.q, n_total=base.n_total, zero_excluded=False
    )
    f0 = distfit.fit_lognormal_quantile(base)
    f1 = distfit.fit_lognormal_quantile(moved)
    assert f1.m == pytest.approx(f0.m, abs=1e-12)
    assert f1.b - f0.b == pytest.approx(shift, abs=1e-10)


def test_lognormal_monte_carlo_recovery():
    rng = np.random.default_rng(42)
    z = rng.standard_normal(10_000)
    counts = np.rint(np.expm1(1.08 + 1.07 * z))
    counts = np.maximum(counts, 0.0).astype(int)
    series = distfit.make_quantile_series(counts)
    fit = distfit.fit_lognormal_quantile(series)
    assert fit.b == pytest.approx(1.08, abs=0.05)
    assert fit.m == pytest.approx(1.07, abs=0.05)
    assert fit.r2_adj > 0.99
    assert fit.n == 10_000


def test_lognormal_needs_three_distinct_points():
    series = distfit.make_quantile_series([4, 4, 9, 9])
    with pytest.raises(InsufficientDataError):
        distfit.fit_lognormal_quantile(series)


# --- power-law quantile fit --------------------------------------------------


def _tail_series(a: float, theta: float, n: int = 150) -> distfit.QuantileSeries:
    # exact tail line: ln(c/theta + 1) = s * (-ln(1 - q)), s = 1/(a - 1)
    q = np.linspace(0.05, 0.995, n)
    s = 1.0 / (a - 1.0)
    c = theta * np.expm1(s * (-np.log1p(-q)))
    y = np.log1p(c)
    return distfit.QuantileSeries(y=y, q=q, n_total=n, zero_excluded=False)


def test_power_law_noiseless_recovery_unshifted():
    series = _tail_series(3.0, 1.0)
    fit = distfit.fit_power_law_quantile(series, q_min=0.5)
    assert fit.theta is None
    assert fit.a == pytest.approx(3.0, rel=1e-10)
    assert fit.r2_adj == pytest.approx(1.0, abs=1e-12)


def test_power_law_noiseless_recovery_shifted():
    series = _tail_series(2.4, 2.0)
    fit = distfit.fit_power_law_quantile(series, q_min=0.5, theta=2.0)
    assert fit.theta == 2.0
    assert fit.a == pytest.approx(2.4, rel=1e-10)


def test_power_law_tail_region_respected():
    series = _tail_series(3.0, 1.0)
    fit = distfit.fit_power_law_quantile(series, q_min=0.9)
    assert fit.q_min == 0.9
    assert fit.n == int(np.count_nonzero(series.q >= 0.9))


def test_power_law_errors():
    series = _tail_series(3.0, 1.0)
    with pytest.raises(InsufficientDataError):
        distfit.fit_power_law_quantile(series, q_min=0.9999)
    with pytest.raises(DomainError):
        distfit.fit_power_law_quantile(series, q_min=0.5, theta=-1.0)
    flat = distfit.QuantileSeries(
        y=np.full(10, 2.0),
        q=np.linspace(0.1, 0.9, 10),
        n_total=10,
        zero_excluded=False,
    )
    with pytest.raises(DataError):
        distfit.fit_power_law_quantile(flat, q_min=0.0)


def test_power_law_tail_of_tied_ranks_is_degenerate():
    # Every count in the tail ties, so every tail point sits at one quantile.
    series = distfit.make_quantile_series([0, 0, 0, 5, 5, 5])
    with pytest.raises(DegenerateDataError, match="zero variance in the regressor"):
        distfit.fit_power_law_quantile(series, q_min=0.5)


# --- CSV ----------------------------------------------------------------------


def test_quantile_csv_round_trip(tmp_path):
    series = distfit.make_quantile_series([1, 1, 4, 9, 22])
    path = tmp_path / "quantiles.csv"
    distfit.write_quantile_csv(series, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    got_y = np.array([float(r["y"]) for r in rows])
    got_phi = np.array([float(r["phi_inv_q"]) for r in rows])
    got_tail = np.array([float(r["minus_log1mq"]) for r in rows])
    np.testing.assert_array_equal(got_y, series.y)
    np.testing.assert_allclose(got_phi, distfit.normal_quantile(series.q), rtol=0, atol=0)
    np.testing.assert_allclose(got_tail, -np.log1p(-series.q), rtol=0, atol=0)
