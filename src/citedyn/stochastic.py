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

Every path owns a counter-based stream keyed by (seed, path index), so
ensembles are reproducible bit for bit however the paths are split: one
vectorized kernel simulates them BLOCK_PATHS at a time, ensemble_blocks
streams them block by block to consumers that need only per-path totals
or a few time columns (the `simulate` count summary, verify_ensemble),
and any range of paths reproduces the matching rows of the full
ensemble. The kernel is serial; `threads` and CITEDYN_THREADS are
validated but no longer change the work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import distfit
from ._csv import write_csv
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
)
from .historyfit import HistoryParams, _lognormal_density, eval_history

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
    "ensemble_blocks",
    "verify_ensemble",
    "closed_form_density",
    "count_citations",
    "expected_log_factor",
    "variance_log_factor",
    "simulate_timing_clt",
    "write_ensemble_csv",
]

COUNTING_MODES = ("integral-floor", "yearly-floor-sum")

# Paths per streamed block: ensemble_blocks' unit, and the rows of normals
# simulate_ensemble draws at a time.
BLOCK_PATHS = 256

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

    from scipy.optimize import least_squares

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
    r2_adj = distfit.adjusted_r2(ssr, sst, n, 2)
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
        # The seed is one word of each path's uint64 Philox key.
        if not (
            isinstance(self.seed, int)
            and not isinstance(self.seed, bool)
            and 0 <= self.seed < 2**64
        ):
            raise DomainError(
                f"seed must be an integer in [0, 2**64), got {self.seed!r}"
            )
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
    # Validates --threads / CITEDYN_THREADS. The kernel is serial, so the
    # count no longer changes the work; it is still returned for callers
    # that report it.
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


def _stream_state(seed: int, index: int) -> dict:
    # The state of a fresh Philox(key=[seed, index]): counter 0, buffer
    # empty. Re-keying one generator this way gives path k the same
    # counter-based stream as constructing its own, at a fraction of the cost.
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, index]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def simulate_ensemble(
    params: HistoryParams,
    vol: VolatilityFit,
    config: SdeConfig,
    method: str = "exact",
    threads: int | None = None,
    *,
    paths: range | None = None,
) -> PathEnsemble:
    """Simulate an ensemble of citation-rate paths started at X(0) = u(0).

    method "exact" uses the closed-form log increments (mean and
    log-variance exact at all grid nodes); "euler" is the plain
    Euler-Maruyama step on X itself. paths selects which of the
    config's n_paths to simulate (default: all of them); path k draws
    from its own (seed, k) stream, so any selection reproduces the
    matching rows of the full ensemble bit for bit. threads (or
    CITEDYN_THREADS) is validated but does not change the work.
    """
    if method not in ("exact", "euler"):
        raise DomainError(f"method must be 'exact' or 'euler', got {method!r}")
    _resolve_threads(threads)
    if paths is None:
        paths = range(config.n_paths)
    elif not (
        isinstance(paths, range)
        and len(paths) > 0
        and 0 <= min(paths[0], paths[-1])
        and max(paths[0], paths[-1]) < config.n_paths
    ):
        raise DomainError(
            f"paths must be a non-empty range within [0, {config.n_paths}), got {paths!r}"
        )
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

    x = np.empty((len(paths), n_steps + 1))
    x[:, 0] = x0
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    z = np.empty((min(BLOCK_PATHS, len(paths)), n_steps))
    for lo in range(0, len(paths), BLOCK_PATHS):
        block = paths[lo : lo + BLOCK_PATHS]
        zb = z[: len(block)]
        for row, k in enumerate(block):
            bitgen.state = _stream_state(config.seed, k)
            gen.standard_normal(out=zb[row])
        xb = x[lo : lo + len(block)]
        zb *= sigma
        if method == "exact":
            # y_k = ln x0 + sum of (drift + sigma z) up to step k, per path
            zb += drift
            np.cumsum(zb, axis=1, out=zb)
            zb += math.log(x0)
            np.exp(zb, out=xb[:, 1:])
        else:
            # x_{i+1} = x_i (ratio_i + sigma_i z_i): a running product
            # seeded with x0, multiplied in the same order step by step
            np.add(zb, ratio, out=xb[:, 1:])
            np.cumprod(xb, axis=1, out=xb)

    return PathEnsemble(
        grid=grid, paths=x, params=params, vol=vol, config=config, method=method
    )


def ensemble_blocks(
    params: HistoryParams,
    vol: VolatilityFit,
    config: SdeConfig,
    method: str = "exact",
) -> Iterator[PathEnsemble]:
    """The config's ensemble as consecutive blocks of at most BLOCK_PATHS paths.

    Concatenating the blocks' paths gives simulate_ensemble's matrix bit
    for bit, so a consumer that needs only per-path reductions or a few
    time columns never holds the whole ensemble.
    """
    for lo in range(0, config.n_paths, BLOCK_PATHS):
        block = range(lo, min(lo + BLOCK_PATHS, config.n_paths))
        # Looked up as a module global, so a wrapper installed on
        # stochastic.simulate_ensemble (a tracer, a test) sees every block.
        yield simulate_ensemble(params, vol, config, method, paths=block)


def _marginal_log_moments(t: float, params: HistoryParams, vol: VolatilityFit):
    """(m, s) with ln X(t) ~ N(m, s^2): m = ln u(t) - v/2, s = sqrt(v)."""
    v = log_variance(float(t), vol)
    return math.log(eval_history(params, float(t))) - 0.5 * v, math.sqrt(v)


def closed_form_density(x, t: float, params: HistoryParams, vol: VolatilityFit):
    """Density of X(t) under the exact dynamics, for t > 0.

    X(t) is lognormal with E[X(t)] = u(t) and Var[ln X(t)] = s2 ln(t/s1+1);
    the density is 0 for x <= 0.
    """
    if t <= 0:
        raise DomainError(f"density requires t > 0, got {t}")
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xa)
    pos = xa > 0
    out[pos] = _lognormal_density(xa[pos], *_marginal_log_moments(t, params, vol))
    return float(out[0]) if scalar else out


def _density_mass(t: float, params: HistoryParams, vol: VolatilityFit) -> float:
    """Integral of closed_form_density over x > 0, as verify_ensemble takes it."""
    m, s = _marginal_log_moments(t, params, vol)
    # closed_form_density(e^y) e^y is the N(m, s^2) density of y = ln x
    y = np.linspace(m - 12.0 * s, m + 12.0 * s, 401)
    x = np.exp(y)
    return float(np.trapezoid(closed_form_density(x, t, params, vol) * x, y))


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


def _ks_distance(sample: np.ndarray, cdf) -> float:
    x = np.sort(sample)
    f = cdf(x)
    n = x.size
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - f), np.max(f - lower)))


def verify_ensemble(
    params: HistoryParams,
    vol: VolatilityFit,
    config: SdeConfig,
) -> list[dict]:
    """Property checks of the exact sampler against the closed forms.

    Each check is a dict with name, observed, bound, pass and, where there
    is one, expected: positivity, the mean at t = 1, 5 and 10 (those within
    the horizon) against u(t) within 3 standard errors, the log-variance at
    the horizon within 5%, the normalization of the closed-form density and
    the Kolmogorov-Smirnov distance of X(t_mid) from it (t_mid = min(5,
    horizon)), the lognormal law of the citation counts, and the volatility
    asymptotics. A failed count fit adds a note and observed None. The
    ensemble is streamed in blocks; only the per-path counts and the few
    time columns the checks read are kept.

    The normalization integrates closed_form_density over y = ln x, where
    ln X(t_mid) ~ N(m, s^2) makes the integrand a Gaussian bell, with the
    trapezoid rule on 401 nodes spanning m +- 12 s. The rule converges
    geometrically on such an integrand, so the mass is 1 to within a few
    ulps (below 1e-13 for s2 from 1e-6 to 10), and the tails cut off hold
    about 4e-33.
    """
    n_steps = config.n_steps
    mean_ts = [t for t in (1.0, 5.0, 10.0) if t <= config.horizon + 1e-9]
    t_mid = min(5.0, config.horizon)
    cols = sorted(
        {int(round(t / config.dt)) for t in mean_ts + [t_mid]} | {n_steps}
    )
    low = math.inf
    kept_blocks, count_blocks = [], []
    for block in ensemble_blocks(params, vol, config, "exact"):
        low = min(low, float(block.paths.min()))
        kept_blocks.append(block.paths[:, cols])  # a copy: the block is freed
        count_blocks.append(count_citations(block))
    kept = np.concatenate(kept_blocks)
    counts = np.concatenate(count_blocks)

    def column(idx: int) -> np.ndarray:
        return kept[:, cols.index(idx)]

    checks = [
        {"name": "positivity", "observed": low, "bound": 0.0, "pass": bool(low > 0)}
    ]

    for t in mean_ts:
        sample = column(int(round(t / config.dt)))
        u_t = eval_history(params, t)
        se = float(sample.std(ddof=1)) / math.sqrt(config.n_paths)
        gap = abs(float(sample.mean()) - u_t)
        checks.append(
            {
                "name": f"mean_recovery_t{t:g}",
                "observed": float(sample.mean()),
                "expected": u_t,
                "bound": 3.0 * se,
                "pass": bool(gap <= 3.0 * se),
            }
        )

    log_sample = np.log(column(n_steps))
    var_obs = float(log_sample.var(ddof=1))
    var_expected = log_variance(float(block.grid[-1]), vol)
    checks.append(
        {
            "name": "log_variance_horizon",
            "observed": var_obs,
            "expected": var_expected,
            "bound": 0.05,
            "pass": bool(abs(var_obs / var_expected - 1.0) <= 0.05),
        }
    )

    mass = _density_mass(t_mid, params, vol)
    checks.append(
        {
            "name": "density_normalization",
            "observed": mass,
            "expected": 1.0,
            "bound": 1e-6,
            "pass": bool(abs(mass - 1.0) <= 1e-6),
        }
    )

    m, s = _marginal_log_moments(t_mid, params, vol)

    def lognormal_cdf(x):
        return distfit.normal_cdf((np.log(x) - m) / s)

    ks = _ks_distance(column(int(round(t_mid / config.dt))), lognormal_cdf)
    checks.append(
        {"name": f"ks_t{t_mid:g}", "observed": ks, "bound": 0.02, "pass": bool(ks < 0.02)}
    )

    try:
        series = distfit.make_quantile_series(counts.tolist())
        lognorm = distfit.fit_lognormal_quantile(series)
        checks.append(
            {
                "name": "lognormal_law_counts",
                "observed": lognorm.r2_adj,
                "bound": 0.98,
                "pass": bool(lognorm.r2_adj > 0.98),
            }
        )
    except DataError as exc:
        checks.append(
            {
                "name": "lognormal_law_counts",
                "observed": None,
                "bound": 0.98,
                "pass": False,
                "note": str(exc),
            }
        )

    # Volatility asymptotics: early plateau and late power-law decay.
    t_small, t_large = vol.s1 / 100.0, vol.s1 * 100.0
    early = math.sqrt(vol.s2 / vol.s1) * (1.0 - t_small / (2.0 * vol.s1))
    late = math.sqrt(vol.s2 / t_large)
    b_small = beta_star(t_small, vol)
    b_large = beta_star(t_large, vol)
    checks.append(
        {
            "name": "beta_star_asymptotics",
            "observed": [b_small, b_large],
            "expected": [early, late],
            "bound": 0.01,
            "pass": bool(
                abs(b_small / early - 1.0) <= 0.01 and abs(b_large / late - 1.0) <= 0.01
            ),
        }
    )
    return checks


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
    if mode == "summary":
        ddof = 1 if ensemble.paths.shape[0] > 1 else 0
        means = ensemble.paths.mean(axis=0)
        varis = ensemble.paths.var(axis=0, ddof=ddof)
        qs = np.quantile(ensemble.paths, [0.05, 0.5, 0.95], axis=0)
        write_csv(path, ["t", "mean", "var", "q05", "q50", "q95"],
                  zip(ensemble.grid.tolist(), means.tolist(), varis.tolist(), *qs.tolist()))
        return
    # No cell of the paths layout needs csv quoting, so each path is joined
    # as text. Converting one path at a time bounds the Python floats.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("path_id,t,x\n")
        t_cells = [f",{t!r}," for t in ensemble.grid.tolist()]
        for pid, row in enumerate(ensemble.paths):
            fh.write("".join([f"{pid}{t}{x!r}\n" for t, x in zip(t_cells, row.tolist())]))
