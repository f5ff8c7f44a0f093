"""Quantile-plot fitting for heavy-tailed citation-count distributions.

Two competing models for the distribution of per-document citation counts
``c``, expressed through the shifted log variable ``y = ln(c + 1)`` and the
quantile rank ``q`` of an observation:

    lognormal:  y = b + m * PhiInv(q)
    power law:  y = ln(c/theta + 1) = s * (-ln(1 - q)),  exponent a = 1 + 1/s

Both reduce to straight lines in the appropriate quantile coordinates, so
each fit is an ordinary least-squares regression on transformed ranks. The
normal CDF and its inverse are scipy.special's ndtr and ndtri behind the
package's scalar/array and DomainError contract; rank standardization and
stochastic verification lean on them too, as they do on the mid-rank and
adjusted-R^2 helpers defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._csv import write_csv
from .errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
)

__all__ = [
    "QuantileSeries",
    "LognormalFit",
    "PowerLawFit",
    "normal_cdf",
    "normal_quantile",
    "mid_ranks",
    "adjusted_r2",
    "make_quantile_series",
    "fit_lognormal_quantile",
    "fit_power_law_quantile",
    "write_quantile_csv",
]

def normal_cdf(x):
    """Standard normal CDF, Phi(x): scipy.special.ndtr.

    Accepts a scalar (returns a float) or an array (returns an array).
    ndtr keeps full relative accuracy deep in the lower tail.
    """
    # scipy.special is imported on first use: it adds about 0.4 s to the
    # start of every process that imports citedyn.
    from scipy.special import ndtr

    out = ndtr(np.asarray(x, dtype=float))
    return out if np.ndim(x) else float(out)


def normal_quantile(q):
    """Inverse standard normal CDF, PhiInv(q): scipy.special.ndtri.

    Args:
        q: scalar or array of probabilities strictly inside (0, 1).

    Returns:
        x with Phi(x) = q (a float for scalar q), satisfying
        |Phi(PhiInv(q)) - q| <= 1e-12 over q in [1e-8, 1 - 1e-8].

    Raises:
        DomainError: if any q lies outside the open interval (0, 1).
    """
    qa = np.asarray(q, dtype=float)
    if not np.all((qa > 0.0) & (qa < 1.0)):
        raise DomainError(f"quantile argument must lie in (0, 1), got {q!r}")
    from scipy.special import ndtri

    x = ndtri(qa)
    return x if np.ndim(q) else float(x)


def mid_ranks(values) -> np.ndarray:
    """Mid-distribution ranks (#{v' < v} + #{v' = v} / 2) / n, in input order.

    Every rank lies strictly inside (0, 1), and tied values share one rank.
    """
    values = np.asarray(values)
    _, inverse, tied = np.unique(values, return_inverse=True, return_counts=True)
    below = np.concatenate(([0], np.cumsum(tied)[:-1]))
    return (below[inverse] + 0.5 * tied[inverse]) / values.size


def adjusted_r2(ssr: float, sst: float, n: int, n_params: int) -> float:
    """1 - (ssr / (n - n_params)) / (sst / (n - 1)) for a fit of n points.

    Reads 1.0 when there are no residual degrees of freedom or the
    response carries no variance.
    """
    dof = n - n_params
    if dof > 0 and sst > 0.0:
        return 1.0 - (ssr / dof) / (sst / (n - 1))
    return 1.0


@dataclass(frozen=True)
class QuantileSeries:
    """Ranked citation observations in quantile coordinates.

    One point per observation: y = ln(c + 1) against the mid-distribution
    rank q = (#{c' < c} + 0.5 * #{c' = c}) / N, which keeps every q strictly
    inside (0, 1) so PhiInv never diverges. Tied counts repeat the same
    point, making downstream OLS equivalent to multiplicity-weighted
    fitting on distinct values.
    """

    y: np.ndarray
    q: np.ndarray
    n_total: int
    zero_excluded: bool

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "q", q)
        if y.shape != q.shape or y.ndim != 1:
            raise DataError("y and q must be 1-d arrays of equal length")
        if np.any(y < 0.0):
            raise DataError("shifted log citations must be non-negative")
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise DataError("quantile ranks must lie strictly inside (0, 1)")
        if np.any(np.diff(y) < 0.0):
            raise DataError("points must be sorted by y")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.y.tolist(), self.q.tolist()))

    def __len__(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class LognormalFit:
    """OLS estimate of y = b + m * PhiInv(q)."""

    b: float
    m: float
    se_b: float
    se_m: float
    r2_adj: float
    n: int

    def __post_init__(self):
        if not self.m > 0.0:
            raise DataError(f"lognormal scale must be positive, got m={self.m}")


@dataclass(frozen=True)
class PowerLawFit:
    """OLS estimate of the (optionally shifted) power-law exponent."""

    a: float
    theta: float | None
    q_min: float
    r2_adj: float
    n: int

    def __post_init__(self):
        if not self.a > 1.0:
            raise DataError(f"power-law exponent must exceed 1, got a={self.a}")
        if self.theta is not None and not self.theta > 0.0:
            raise DataError(f"shift parameter must be positive, got {self.theta}")


def make_quantile_series(
    citations: Iterable[int], exclude_zero: bool = False
) -> QuantileSeries:
    """Build the quantile series for a multiset of citation counts.

    Args:
        citations: non-negative integer counts, one per document.
        exclude_zero: drop zero-citation entries before ranking, which is
            the convention for lognormal fitting on nonzero data.

    Returns:
        QuantileSeries sorted by y, with mid-distribution ranks.

    Raises:
        DataError: empty input (possibly after zero exclusion), or any
            negative count.
    """
    c = np.asarray(list(citations), dtype=float)
    if c.size == 0:
        raise DataError("citation collection is empty")
    if np.any(c < 0):
        raise DataError("citation counts must be non-negative")
    if exclude_zero:
        c = c[c > 0]
        if c.size == 0:
            raise DataError("no nonzero citations remain after exclusion")

    c.sort()
    return QuantileSeries(
        y=np.log1p(c), q=mid_ranks(c), n_total=int(c.size), zero_excluded=exclude_zero
    )


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float]:
    """Slope, intercept, their standard errors, and adjusted R^2."""
    n = x.size
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    dx = x - xbar
    sxx = float(np.dot(dx, dx))
    if sxx <= 0.0:
        raise DegenerateDataError("zero variance in the regressor")
    slope = float(np.dot(dx, y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ssr = float(np.dot(resid, resid))
    sst = float(np.dot(y - ybar, y - ybar))
    dof = n - 2
    s2 = ssr / dof if dof > 0 else 0.0
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + xbar * xbar / sxx))
    return slope, intercept, se_slope, se_intercept, adjusted_r2(ssr, sst, n, 2)


def fit_lognormal_quantile(series: QuantileSeries) -> LognormalFit:
    """Fit y = b + m * PhiInv(q) by ordinary least squares.

    Args:
        series: quantile series with at least 3 distinct points.

    Raises:
        InsufficientDataError: fewer than 3 distinct points.
        DegenerateDataError: the transformed ranks carry no variance.
    """
    if np.unique(series.y).size < 3:
        raise InsufficientDataError(
            "lognormal quantile fit needs at least 3 distinct points"
        )
    x = normal_quantile(series.q)
    m, b, se_m, se_b, r2_adj = _ols_line(x, series.y)
    return LognormalFit(b=b, m=m, se_b=se_b, se_m=se_m, r2_adj=r2_adj, n=len(series))


def fit_power_law_quantile(
    series: QuantileSeries, q_min: float, theta: float | None = None
) -> PowerLawFit:
    """Fit the power-law model on the upper-quantile region q >= q_min.

    Regresses ln(c/theta + 1) on -ln(1 - q); the slope s maps to the
    exponent a = 1 + 1/s. theta = None fits the plain (unshifted) model.

    Raises:
        InsufficientDataError: fewer than 3 points at or above q_min.
        DomainError: non-positive theta.
        DataError: non-increasing tail (slope <= 0 admits no exponent > 1).
    """
    if theta is not None and not theta > 0.0:
        raise DomainError(f"shift parameter must be positive, got {theta}")
    keep = series.q >= q_min
    if int(np.count_nonzero(keep)) < 3:
        raise InsufficientDataError(
            f"power-law fit needs at least 3 points with q >= {q_min}"
        )
    q = series.q[keep]
    c = np.expm1(series.y[keep])
    shift = 1.0 if theta is None else theta
    yy = np.log1p(c / shift)
    x = -np.log1p(-q)
    s, _, _, _, r2_adj = _ols_line(x, yy)
    if s <= 0.0:
        raise DataError("tail slope is non-positive; no power-law exponent exists")
    return PowerLawFit(
        a=1.0 + 1.0 / s,
        theta=theta,
        q_min=float(q_min),
        r2_adj=r2_adj,
        n=int(q.size),
    )


def write_quantile_csv(series: QuantileSeries, path) -> None:
    """Emit the series as `y,phi_inv_q,minus_log1mq` for external plotting."""
    phi_inv = normal_quantile(series.q)
    mlog = -np.log1p(-series.q)
    write_csv(path, ["y", "phi_inv_q", "minus_log1mq"],
              zip(series.y.tolist(), phi_inv.tolist(), mlog.tolist()))
