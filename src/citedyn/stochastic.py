"""Stochastic citation paths around a fitted history curve.

Individual histories are modeled as geometric diffusion around the
discipline mean u(t) with a decaying volatility

    beta*(t) = sqrt(s2 / (t + s1)),

so the log-spread accumulated by age t is Var[ln X(t)] = s2 ln(t/s1 + 1).
The exact sampler draws per-step log increments

    Y_{i+1} = Y_i + ln(u(t_{i+1})/u(t_i)) - I/2 + sqrt(I) Z,
    I = s2 ln((t_{i+1} + s1)/(t_i + s1)),

which reproduces both the mean curve E[X(t)] = u(t) and the log-variance
profile exactly at every grid point, for any step size. An Euler-Maruyama
discretization of the same dynamics is available for comparison; it has
O(dt) weak error and does not preserve positivity.

Every path owns a counter-based generator keyed by (seed, path index), so
ensembles are reproducible bit for bit no matter how the work is split
across threads.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
)
from .historyfit import HistoryParams, eval_history

__all__ = [
    "VolatilityFit",
    "SdeConfig",
    "PathEnsemble",
    "TimingSimConfig",
    "TimingCltReport",
    "volatility",
    "fit_volatility",
    "beta_star",
    "log_variance",
    "simulate_ensemble",
    "closed_form_density",
    "count_citations",
    "expected_log_factor",
    "variance_log_factor",
    "simulate_timing_clt",
    "write_ensemble_csv",
]

COUNTING_MODES = ("integral-floor", "yearly-floor-sum")

# s1 landing outside this window after the polish means the volatility
# model is unidentified on the given series.
S1_IDENTIFIABLE = (1e-8, 1e6)


# --- volatility model -------------------------------------------------------


@dataclass(frozen=True)
class VolatilityFit:
    """Parameters of beta*(t) = sqrt(s2/(t+s1)), with fit diagnostics."""

    s1: float
    s2: float
    se_s1: float
    se_s2: float
    r2_adj: float
    n: int

    def __post_init__(self):
        if not self.s1 > 0:
            raise DomainError(f"s1 must be positive, got {self.s1}")
        if not self.s2 > 0:
            raise DomainError(f"s2 must be positive, got {self.s2}")

    def to_dict(self) -> dict:
        return {
            "s1": self.s1,
            "s2": self.s2,
            "se_s1": self.se_s1,
            "se_s2": self.se_s2,
            "r2_adj": self.r2_adj,
            "n": self.n,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VolatilityFit":
        return cls(
            s1=float(data["s1"]),
            s2=float(data["s2"]),
            se_s1=float(data.get("se_s1", float("nan"))),
            se_s2=float(data.get("se_s2", float("nan"))),
            r2_adj=float(data.get("r2_adj", float("nan"))),
            n=int(data.get("n", 0)),
        )


def volatility(s1: float, s2: float) -> VolatilityFit:
    """A VolatilityFit from bare parameters, without fit diagnostics."""
    nan = float("nan")
    return VolatilityFit(s1=s1, s2=s2, se_s1=nan, se_s2=nan, r2_adj=nan, n=0)


def beta_star(t, vol: VolatilityFit):
    """Instantaneous volatility sqrt(s2/(t+s1)) at age t >= 0."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0):
        raise DomainError(f"age must be non-negative, got {t!r}")
    out = np.sqrt(vol.s2 / (ta + vol.s1))
    return float(out) if np.ndim(t) == 0 else out


def log_variance(t, vol: VolatilityFit):
    """Accumulated log-variance s2 ln(t/s1 + 1) at age t >= 0."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0):
        raise DomainError(f"age must be non-negative, got {t!r}")
    out = vol.s2 * np.log1p(ta / vol.s1)
    return float(out) if np.ndim(t) == 0 else out


def fit_volatility(m_series) -> VolatilityFit:
    """Fit (s1, s2) to an observed log-spread series.

    m_series is an iterable of (t, m) pairs where m is the standard
    deviation of ln X at age t, so the model is m(t)^2 = s2 ln(t/s1 + 1).
    A coarse profile over s1 (with s2 from a through-origin regression of
    m^2 on ln(t/s1 + 1)) picks the start; a two-parameter least-squares
    polish on the m residuals finishes the job.

    Raises:
        InsufficientDataError: fewer than 3 points.
        DataError: non-positive ages or spreads.
        ConvergenceError: polish failed or s1 ran out of the
            identifiable window.
    """
    pairs = sorted((float(t), float(m)) for t, m in m_series)
    if len(pairs) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(pairs)}")
    t = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    if np.any(t <= 0):
        raise DataError("spread series ages must be positive")
    if np.any(m <= 0):
        raise DataError("spreads must be positive")

    m2 = m * m
    best = None
    for s1 in np.geomspace(1e-6, 1e4, 241):
        x = np.log1p(t / s1)
        s2 = float(m2 @ x) / float(x @ x)
        resid = np.sqrt(s2 * x) - m
        cost = float(resid @ resid)
        if best is None or cost < best[0]:
            best = (cost, s1, s2)
    _, s1_0, s2_0 = best

    def resid(theta):
        s1, s2 = np.exp(theta)
        # wild trial steps can push s1 to 0 or inf; the residual stays
        # well-defined (inf) and the solver backs off on its own
        with np.errstate(divide="ignore", over="ignore"):
            return np.sqrt(s2 * np.log1p(t / s1)) - m

    res = least_squares(resid, x0=[math.log(s1_0), math.log(s2_0)])
    if not res.success:
        raise ConvergenceError("volatility polish did not converge")
    s1, s2 = (float(v) for v in np.exp(res.x))
    if not (S1_IDENTIFIABLE[0] <= s1 <= S1_IDENTIFIABLE[1]):
        raise ConvergenceError(
            f"s1 = {s1:g} is outside the identifiable window {S1_IDENTIFIABLE}"
        )

    # Covariance from the Jacobian in (s1, s2) themselves.
    L = np.log1p(t / s1)
    mhat = np.sqrt(s2 * L)
    d_s1 = math.sqrt(s2) / (2.0 * np.sqrt(L)) * (-t / (s1 * (t + s1)))
    d_s2 = np.sqrt(L) / (2.0 * math.sqrt(s2))
    J = np.column_stack([d_s1, d_s2])
    r = mhat - m
    n = t.size
    ssr = float(r @ r)
    dof = n - 2
    cov = (ssr / dof if dof > 0 else 0.0) * np.linalg.pinv(J.T @ J)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sst = float(((m - m.mean()) ** 2).sum())
    if dof > 0 and sst > 0:
        r2_adj = 1.0 - (ssr / dof) / (sst / (n - 1))
    else:
        r2_adj = 1.0
    return VolatilityFit(
        s1=s1, s2=s2, se_s1=float(se[0]), se_s2=float(se[1]), r2_adj=r2_adj, n=n
    )


# --- ensemble simulation ----------------------------------------------------


@dataclass(frozen=True)
class SdeConfig:
    """Grid, ensemble size, seed and counting convention for a simulation."""

    dt: float
    horizon: float
    n_paths: int
    seed: int
    counting_mode: str = "integral-floor"

    def __post_init__(self):
        if not 0 < self.dt <= 1:
            raise DomainError(f"dt must lie in (0, 1], got {self.dt}")
        if self.horizon < self.dt:
            raise DomainError(
                f"horizon must be at least one step, got {self.horizon} < dt={self.dt}"
            )
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise DomainError(
                f"horizon {self.horizon} is not a whole number of dt={self.dt} steps"
            )
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.counting_mode not in COUNTING_MODES:
            raise DomainError(
                f"counting_mode must be one of {COUNTING_MODES}, got {self.counting_mode!r}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths on a shared grid, with everything that produced them."""

    grid: np.ndarray          # (n_steps + 1,)
    paths: np.ndarray         # (n_paths, n_steps + 1)
    params: HistoryParams
    vol: VolatilityFit
    config: SdeConfig
    method: str


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise DomainError(f"threads must be >= 1, got {threads}")
        return threads
    env = os.environ.get("CITEDYN_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise DomainError(f"CITEDYN_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise DomainError(f"CITEDYN_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _path_generator(seed: int, index: int) -> np.random.Generator:
    # Counter-based stream per path: identical draws for path k no matter
    # which thread runs it or how many paths surround it.
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_ensemble(
    params: HistoryParams,
    vol: VolatilityFit,
    config: SdeConfig,
    method: str = "exact",
    threads: int | None = None,
) -> PathEnsemble:
    """Simulate an ensemble of citation-rate paths started at X(0) = u(0).

    method "exact" uses the closed-form log increments (mean and
    log-variance exact at all grid nodes); "euler" is the plain
    Euler-Maruyama step on X itself. threads=None takes the count from
    CITEDYN_THREADS, falling back to the machine's CPU count; the result
    is identical for every choice.
    """
    if method not in ("exact", "euler"):
        raise DomainError(f"method must be 'exact' or 'euler', got {method!r}")
    n_steps = config.n_steps
    grid = np.arange(n_steps + 1, dtype=float) * config.dt
    u = np.atleast_1d(eval_history(params, grid))
    if not np.all(u > 0):
        # Unreachable for positive (A, B), but the sampler's log increments
        # depend on it, so it is checked rather than assumed.
        raise InvalidInputError("mean curve is not positive everywhere on the grid")
    x0 = float(u[0])

    if method == "exact":
        dln_u = np.diff(np.log(u))
        i_beta = vol.s2 * np.log((grid[1:] + vol.s1) / (grid[:-1] + vol.s1))
        drift = dln_u - 0.5 * i_beta
        sigma = np.sqrt(i_beta)
    else:
        ratio = u[1:] / u[:-1]
        sigma = beta_star(grid[:-1], vol) * math.sqrt(config.dt)

    paths = np.empty((config.n_paths, n_steps + 1))

    def run_block(block: range) -> None:
        for idx in block:
            z = _path_generator(config.seed, idx).standard_normal(n_steps)
            if method == "exact":
                y = math.log(x0) + np.cumsum(drift + sigma * z)
                paths[idx, 0] = x0
                paths[idx, 1:] = np.exp(y)
            else:
                x = np.empty(n_steps + 1)
                x[0] = x0
                for i in range(n_steps):
                    x[i + 1] = x[i] * (ratio[i] + sigma[i] * z[i])
                paths[idx] = x

    n_threads = min(_resolve_threads(threads), config.n_paths)
    if n_threads == 1:
        run_block(range(config.n_paths))
    else:
        chunk = math.ceil(config.n_paths / n_threads)
        blocks = [
            range(s, min(s + chunk, config.n_paths))
            for s in range(0, config.n_paths, chunk)
        ]
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(run_block, blocks))

    return PathEnsemble(
        grid=grid, paths=paths, params=params, vol=vol, config=config, method=method
    )


def closed_form_density(x, t: float, params: HistoryParams, vol: VolatilityFit):
    """Density of X(t) under the exact dynamics, for t > 0.

    X(t) is lognormal with E[X(t)] = u(t) and Var[ln X(t)] = s2 ln(t/s1+1);
    the density is 0 for x <= 0.
    """
    if t <= 0:
        raise DomainError(f"density requires t > 0, got {t}")
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    u = eval_history(params, float(t))
    v = log_variance(float(t), vol)
    out = np.zeros_like(xa)
    pos = xa > 0
    lx = np.log(xa[pos])
    out[pos] = np.exp(-((lx - math.log(u) + 0.5 * v) ** 2) / (2.0 * v)) / (
        xa[pos] * math.sqrt(2.0 * math.pi * v)
    )
    return float(out[0]) if scalar else out


def count_citations(ensemble: PathEnsemble, mode: str | None = None) -> np.ndarray:
    """Integer citation totals per path over the simulated horizon.

    "integral-floor" floors the trapezoidal integral of the rate path;
    "yearly-floor-sum" sums the floored rate at the start of each whole
    year, sum over i in 0..T-1 of floor(X(i)). mode=None takes the
    convention from the ensemble's config. The two disagree in general
    (most visibly for sub-unit rates), which is why both exist.
    """
    mode = mode or ensemble.config.counting_mode
    if mode not in COUNTING_MODES:
        raise DomainError(f"mode must be one of {COUNTING_MODES}, got {mode!r}")
    if mode == "integral-floor":
        totals = np.trapezoid(ensemble.paths, ensemble.grid, axis=1)
        return np.floor(totals).astype(np.int64)
    dt = ensemble.config.dt
    per_year = round(1.0 / dt)
    if abs(per_year * dt - 1.0) > 1e-9:
        raise DomainError("yearly counting needs dt to divide one year evenly")
    years = math.floor(ensemble.config.horizon + 1e-9)
    idx = [y * per_year for y in range(years)]
    return np.floor(ensemble.paths[:, idx]).sum(axis=1).astype(np.int64)


# --- submission-timing model ------------------------------------------------


def expected_log_factor(half_width: float) -> float:
    """E[ln(1 + eps)] for eps uniform on [-b, b]."""
    b = half_width
    if not 0 <= b < 1:
        raise DomainError(f"half_width must be in [0, 1), got {b}")
    if b == 0:
        return 0.0
    return ((1 + b) * math.log1p(b) - (1 - b) * math.log1p(-b)) / (2 * b) - 1.0


def variance_log_factor(half_width: float) -> float:
    """Var[ln(1 + eps)] for eps uniform on [-b, b]."""
    b = half_width
    if not 0 <= b < 1:
        raise DomainError(f"half_width must be in [0, 1), got {b}")
    if b == 0:
        return 0.0

    def antideriv(x):
        # integral of ln^2: x (ln^2 x - 2 ln x + 2)
        lx = math.log(x)
        return x * (lx * lx - 2 * lx + 2)

    second = (antideriv(1 + b) - antideriv(1 - b)) / (2 * b)
    first = expected_log_factor(b)
    return second - first * first


@dataclass(frozen=True)
class TimingSimConfig:
    """Monte Carlo setup for the multiplicative submission-timing model."""

    n_events: int
    n_samples: int
    epsilon_bound: float
    t0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_events < 1:
            raise DomainError(f"n_events must be >= 1, got {self.n_events}")
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 0 <= self.epsilon_bound < 1:
            raise DomainError(
                f"epsilon_bound must be in [0, 1), got {self.epsilon_bound}"
            )
        if not self.t0 > 0:
            raise DomainError(f"t0 must be positive, got {self.t0}")


@dataclass(frozen=True)
class TimingCltReport:
    """Normality diagnostics for log inter-event times t0 * prod(1 + eps_j)."""

    n_events: int
    n_samples: int
    skewness: float
    excess_kurtosis: float
    jb_stat: float
    jb_pvalue: float
    mean_log: float
    expected_mean_log: float
    var_log: float
    expected_var_log: float

    def to_dict(self) -> dict:
        return {
            "n_events": self.n_events,
            "n_samples": self.n_samples,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "jb_stat": self.jb_stat,
            "jb_pvalue": self.jb_pvalue,
            "mean_log": self.mean_log,
            "expected_mean_log": self.expected_mean_log,
            "var_log": self.var_log,
            "expected_var_log": self.expected_var_log,
        }


def simulate_timing_clt(config: TimingSimConfig) -> TimingCltReport:
    """Sample t = t0 prod_j (1 + eps_j) and test ln t for normality.

    eps_j are i.i.d. uniform on [-bound, bound]. The Jarque-Bera statistic
    n/6 (S^2 + K^2/4) is referred to its chi-square(2) limit, so the
    p-value is exp(-JB/2). A degenerate sample (bound = 0) reports
    S = K = 0 and p = 1 by convention.
    """
    rng = np.random.default_rng(config.seed)
    b = config.epsilon_bound
    if b == 0:
        log_t = np.full(config.n_samples, math.log(config.t0))
    else:
        eps = rng.uniform(-b, b, size=(config.n_samples, config.n_events))
        log_t = math.log(config.t0) + np.log1p(eps).sum(axis=1)

    mean = float(log_t.mean())
    centered = log_t - mean
    m2 = float((centered**2).mean())
    if m2 == 0.0:
        skew, kurt = 0.0, 0.0
    else:
        skew = float((centered**3).mean()) / m2**1.5
        kurt = float((centered**4).mean()) / m2**2 - 3.0
    jb = config.n_samples / 6.0 * (skew**2 + kurt**2 / 4.0)
    return TimingCltReport(
        n_events=config.n_events,
        n_samples=config.n_samples,
        skewness=skew,
        excess_kurtosis=kurt,
        jb_stat=jb,
        jb_pvalue=math.exp(-jb / 2.0),
        mean_log=mean,
        expected_mean_log=math.log(config.t0)
        + config.n_events * expected_log_factor(b),
        var_log=m2 * config.n_samples / max(config.n_samples - 1, 1),
        expected_var_log=config.n_events * variance_log_factor(b),
    )


# --- serialization ----------------------------------------------------------


def write_ensemble_csv(ensemble: PathEnsemble, path, mode: str = "paths") -> None:
    """Dump an ensemble as `path_id,t,x` rows, or per-time summary stats.

    mode "summary" writes `t,mean,var,q05,q50,q95` with the variance taken
    across paths (ddof=1 when there are at least 2 paths).
    """
    if mode not in ("paths", "summary"):
        raise DomainError(f"mode must be 'paths' or 'summary', got {mode!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if mode == "paths":
            writer.writerow(["path_id", "t", "x"])
            # No cell of these rows needs csv quoting, so each path is joined
            # as text. Converting one path at a time bounds the Python floats.
            t_cells = [f",{t!r}," for t in ensemble.grid.tolist()]
            for pid, row in enumerate(ensemble.paths):
                fh.write("".join([f"{pid}{t}{x!r}\n" for t, x in zip(t_cells, row.tolist())]))
        else:
            writer.writerow(["t", "mean", "var", "q05", "q50", "q95"])
            ddof = 1 if ensemble.paths.shape[0] > 1 else 0
            means = ensemble.paths.mean(axis=0)
            varis = ensemble.paths.var(axis=0, ddof=ddof)
            qs = np.quantile(ensemble.paths, [0.05, 0.5, 0.95], axis=0)
            for i, t in enumerate(ensemble.grid):
                writer.writerow(
                    [
                        repr(float(t)),
                        repr(float(means[i])),
                        repr(float(varis[i])),
                        repr(float(qs[0, i])),
                        repr(float(qs[1, i])),
                        repr(float(qs[2, i])),
                    ]
                )
