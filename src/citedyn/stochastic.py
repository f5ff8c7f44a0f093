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
ensembles are reproducible bit for bit however the paths are split.
ensemble_blocks streams an ensemble BLOCK_PATHS paths at a time to
consumers that need only per-path totals, a few time columns or one path
at a time (the `simulate` count summary, verify_ensemble, the per-path
CSV dump). Inside a block, the sampler and count_citations work in tiles
of TILE_ROWS paths: each tile's normals are drawn into one reused buffer
and exponentiated straight into the block's rows, and numpy's trapezoid
rule is taken a tile at a time, so no temporary is as large as the
block. Every operation works row by row, so any range of paths, in
any split into blocks or tiles, reproduces the matching rows of the full
ensemble. The kernel is serial.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import distfit
from ._csv import create_csv, write_csv
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
)
from .historyfit import (HistoryParams, _ages, _json_number, _lognormal_density,
                         eval_history, least_squares)

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

log = logging.getLogger(__name__)

COUNTING_MODES = ("integral-floor", "yearly-floor-sum")
METHODS = ("exact", "euler")  # simulate_ensemble's samplers
ENSEMBLE_MODES = ("paths", "summary")  # write_ensemble_csv's layouts

# Paths per streamed block: ensemble_blocks' unit.
BLOCK_PATHS = 256

# Paths per tile: the rows simulate_ensemble draws and transforms, and
# count_citations integrates, at a time. At 1,000 steps a tile is 256 kB,
# so each pass over it runs in cache.
TILE_ROWS = 32

# Columns per strip of the summary layout's reductions, which bounds their
# temporaries to a strip instead of a copy of the whole matrix.
STRIP_COLUMNS = 64

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
        for name, value in (("s1", self.s1), ("s2", self.s2)):
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "VolatilityFit":
        """Parameters from their JSON object; s1 and s2 must be JSON numbers.
        A diagnostic that is absent or null, as written for a non-finite
        value, reads as NaN; an absent or null n reads as 0, and a present
        n must be a non-negative JSON integer."""
        def diagnostic(key):
            return float("nan") if data.get(key) is None else _json_number(data, key)

        def count(key):
            value = data.get(key)
            if value is None:
                return 0
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise DomainError(f"{key} must be a non-negative integer, got {value!r}")
            return value

        return cls(
            s1=_json_number(data, "s1"),
            s2=_json_number(data, "s2"),
            se_s1=diagnostic("se_s1"),
            se_s2=diagnostic("se_s2"),
            r2_adj=diagnostic("r2_adj"),
            n=count("n"),
        )


def volatility(s1: float, s2: float) -> VolatilityFit:
    """A VolatilityFit from bare parameters, without fit diagnostics."""
    nan = float("nan")
    return VolatilityFit(s1=s1, s2=s2, se_s1=nan, se_s2=nan, r2_adj=nan, n=0)


def beta_star(t, vol: VolatilityFit):
    """Instantaneous volatility sqrt(s2/(t+s1)) at age t >= 0."""
    out = np.sqrt(vol.s2 / (_ages(t) + vol.s1))
    return float(out) if np.ndim(t) == 0 else out


def log_variance(t, vol: VolatilityFit):
    """Accumulated log-variance s2 ln(t/s1 + 1) at age t >= 0."""
    out = vol.s2 * np.log1p(_ages(t) / vol.s1)
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
        DataError: ages or spreads that are not positive and finite.
        ConvergenceError: polish failed or s1 ran out of the
            identifiable window.
    """
    pairs = sorted((float(t), float(m)) for t, m in m_series)
    if len(pairs) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(pairs)}")
    t = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    if not np.all(np.isfinite(t) & (t > 0)):
        raise DataError("spread series ages must be positive and finite")
    if not np.all(np.isfinite(m) & (m > 0)):
        raise DataError("spreads must be positive and finite")

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
    n = t.size
    ssr = float((mhat - m) @ (mhat - m))
    se = distfit.wald_se(J, ssr)
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
        if not math.isfinite(self.horizon):
            raise DomainError(f"horizon must be finite, got {self.horizon}")
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
        if self.counting_mode == "yearly-floor-sum":
            _steps_per_year(self.dt)

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)


def _steps_per_year(dt: float) -> int:
    # Yearly counting reads the grid at whole years, so dt must divide one.
    per_year = round(1.0 / dt)
    if abs(per_year * dt - 1.0) > 1e-9:
        raise DomainError("yearly counting needs dt to divide one year evenly")
    return per_year


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
    # Kept only for perfbench's tracer and worker, which still report a
    # thread count (ROADMAP item 4); nothing in citedyn calls it.
    return threads if threads is not None else os.cpu_count() or 1


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
    *,
    paths: range | None = None,
) -> PathEnsemble:
    """Simulate an ensemble of citation-rate paths started at X(0) = u(0).

    method "exact" uses the closed-form log increments (mean and
    log-variance exact at all grid nodes); "euler" is the plain
    Euler-Maruyama step on X itself. paths selects which of the
    config's n_paths to simulate (default: all of them); path k draws
    from its own (seed, k) stream, so any selection reproduces the
    matching rows of the full ensemble bit for bit.
    """
    if method not in METHODS:
        raise DomainError(f"method must be 'exact' or 'euler', got {method!r}")
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
        # The sampler's log increments need u > 0. Positive (A, B) do not
        # ensure it: at t = 0 the baseline is 0, and a jump density far
        # from its mode (say mu = 40, sigma = 0.5) underflows to 0.
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
    z = np.empty((min(TILE_ROWS, len(paths)), n_steps))
    for lo in range(0, len(paths), TILE_ROWS):
        tile = paths[lo : lo + TILE_ROWS]
        zt = z[: len(tile)]
        for row, k in enumerate(tile):
            bitgen.state = _stream_state(config.seed, k)
            gen.standard_normal(out=zt[row])
        xt = x[lo : lo + len(tile)]
        zt *= sigma
        if method == "exact":
            # y_k = ln x0 + sum of (drift + sigma z) up to step k, per path
            zt += drift
            np.cumsum(zt, axis=1, out=zt)
            zt += math.log(x0)
            np.exp(zt, out=xt[:, 1:])
        else:
            # x_{i+1} = x_i (ratio_i + sigma_i z_i): a running product
            # seeded with x0, multiplied in the same order step by step
            np.add(zt, ratio, out=xt[:, 1:])
            np.cumprod(xt, axis=1, out=xt)

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


def count_citations(ensemble: PathEnsemble) -> np.ndarray:
    """Integer citation totals per path over the simulated horizon.

    The convention is the ensemble's config.counting_mode, which SdeConfig
    validates. "integral-floor" floors the trapezoidal integral of the
    rate path, taken TILE_ROWS paths at a time (see _row_integrals);
    "yearly-floor-sum" sums the floored rate at the start of each whole
    year, sum over i in 0..T-1 of floor(X(i)). The two disagree in general
    (most visibly for sub-unit rates), which is why both exist.
    """
    if ensemble.config.counting_mode == "integral-floor":
        return np.floor(_row_integrals(ensemble.paths, ensemble.grid)).astype(np.int64)
    per_year = _steps_per_year(ensemble.config.dt)
    years = math.floor(ensemble.config.horizon + 1e-9)
    idx = [y * per_year for y in range(years)]
    return np.floor(ensemble.paths[:, idx]).sum(axis=1).astype(np.int64)


def _row_integrals(paths: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """np.trapezoid(paths, grid, axis=1), taken TILE_ROWS rows at a time so
    that no temporary is as large as `paths`. numpy sums a row in a tile
    exactly as it sums that row of the whole matrix."""
    totals = np.empty(len(paths))
    for lo in range(0, len(paths), TILE_ROWS):
        totals[lo : lo + TILE_ROWS] = np.trapezoid(paths[lo : lo + TILE_ROWS], grid, axis=1)
    return totals


def _ks_distance(sample: np.ndarray, m: float, s: float) -> float:
    """Kolmogorov-Smirnov distance of sample from the lognormal law of ln X ~ N(m, s^2)."""
    x = np.sort(sample)
    f = distfit.normal_cdf((np.log(x) - m) / s)
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

    Each check is a dict of name, observed, expected (where the check has
    one), bound, pass and note (where there is one), in that order:
    positivity, the mean at t = 1, 5 and 10 (those within the horizon)
    against u(t) within 3 standard errors, the log-variance at the horizon
    within 5%, the Kolmogorov-Smirnov distance of X(t_mid) from the
    closed-form marginal (t_mid = min(5, horizon)), and the lognormal law
    of the citation counts. A check at time t reads the grid node
    k = round(t / dt) and compares it with the closed form at k * dt, the
    time it sampled. Every check reads the sample, so a faulty sampler can
    fail it. A failed count fit adds a note and observed None. The
    ensemble is streamed in blocks; only the per-path counts and the few
    time columns the checks read are kept. Fewer than 2 paths, too few
    for a spread, raise InsufficientDataError before any is simulated.
    When any check fails, a warning is logged on the citedyn.stochastic
    logger.
    """
    if config.n_paths < 2:
        raise InsufficientDataError(f"verify needs at least 2 paths, got {config.n_paths}")
    n_steps = config.n_steps
    mean_ts = [t for t in (1.0, 5.0, 10.0) if t <= config.horizon + 1e-9]
    t_mid = min(5.0, config.horizon)
    mean_ks = [round(t / config.dt) for t in mean_ts]
    k_mid = round(t_mid / config.dt)
    cols = sorted({*mean_ks, k_mid, n_steps})
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

    checks = []

    def check(name, observed, bound, passed, *, expected=None, note=None):
        # A check without an expected value or a note has no such key.
        record = {"name": name, "observed": observed, "expected": expected,
                  "bound": bound, "pass": bool(passed), "note": note}
        checks.append({k: v for k, v in record.items() if v is not None or k == "observed"})

    check("positivity", low, 0.0, low > 0)

    for t, k in zip(mean_ts, mean_ks):
        sample = column(k)
        u_t = eval_history(params, k * config.dt)
        se = float(sample.std(ddof=1)) / math.sqrt(config.n_paths)
        mean = float(sample.mean())
        check(f"mean_recovery_t{t:g}", mean, 3.0 * se, abs(mean - u_t) <= 3.0 * se, expected=u_t)

    log_sample = np.log(column(n_steps))
    var_obs = float(log_sample.var(ddof=1))
    var_expected = log_variance(n_steps * config.dt, vol)
    check("log_variance_horizon", var_obs, 0.05, abs(var_obs / var_expected - 1.0) <= 0.05,
          expected=var_expected)

    ks = _ks_distance(column(k_mid), *_marginal_log_moments(k_mid * config.dt, params, vol))
    check(f"ks_t{t_mid:g}", ks, 0.02, ks < 0.02)

    try:
        series = distfit.make_quantile_series(counts.tolist())
        lognorm = distfit.fit_lognormal_quantile(series)
        check("lognormal_law_counts", lognorm.r2_adj, 0.98, lognorm.r2_adj > 0.98)
    except DataError as exc:
        check("lognormal_law_counts", None, 0.98, False, note=str(exc))

    if not all(c["pass"] for c in checks):
        log.warning("one or more verification checks failed")
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
    first = expected_log_factor(b)  # refuses a b outside [0, 1)
    if b == 0:
        return 0.0

    def antideriv(x):
        # integral of ln^2: x (ln^2 x - 2 ln x + 2)
        lx = math.log(x)
        return x * (lx * lx - 2 * lx + 2)

    second = (antideriv(1 + b) - antideriv(1 - b)) / (2 * b)
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
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise DomainError(f"t0 must be positive and finite, got {self.t0}")


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


def write_ensemble_csv(
    ensemble: PathEnsemble | Iterable[PathEnsemble], path, mode: str = "paths"
) -> None:
    """Dump an ensemble as `path_id,t,x` rows, or per-time summary stats.

    ensemble is one PathEnsemble or consecutive blocks of one, such as
    ensemble_blocks yields; path ids count on across blocks. mode "paths"
    writes each block as it arrives, so it never holds more than one.
    mode "summary" writes `t,mean,var,q05,q50,q95` with the variance taken
    across paths (ddof=1 when there are at least 2 paths); its exact
    per-column quantiles need every path, so blocks are gathered into one
    (n_paths, n_steps + 1) matrix, sized from the first block's config,
    and reduced in strips of about STRIP_COLUMNS columns. Either layout
    is byte-identical however the ensemble is split into blocks.

    The summary goes through csv.writer. The paths layout formats its own
    rows, a path per write: its cells are ints and float reprs, which
    csv.writer writes unquoted, so the bytes are those csv.writer writes.
    """
    if mode not in ENSEMBLE_MODES:
        raise DomainError(f"mode must be 'paths' or 'summary', got {mode!r}")
    single = isinstance(ensemble, PathEnsemble)
    if mode == "summary":
        grid, paths = (ensemble.grid, ensemble.paths) if single else _gather(ensemble)
        write_csv(path, ["t", "mean", "var", "q05", "q50", "q95"],
                  zip(grid.tolist(), *_summary_columns(paths).tolist()))
        return
    with create_csv(path) as fh:
        fh.write("path_id,t,x\n")
        pid = 0
        for block in [ensemble] if single else ensemble:
            pid = _write_path_rows(fh, block, pid)
            del block  # freed before the next block is simulated


def _write_path_rows(fh, block: PathEnsemble, first_pid: int) -> int:
    """Write a block's `path_id,t,x` rows from first_pid on; returns the next id.

    No cell of the layout needs csv quoting, so each path's rows are one
    %-template, its id joined in before the `,t,%r` cells, filled with the
    path's floats in one call; `%r` is the float's repr. Converting one
    path at a time bounds the Python floats.
    """
    t_cells = [f",{t!r},%r\n" for t in block.grid.tolist()]
    for pid, row in enumerate(block.paths, first_pid):
        fh.write(f"{pid}".join(["", *t_cells]) % tuple(row.tolist()))
    return first_pid + block.paths.shape[0]


def _gather(blocks: Iterable[PathEnsemble]) -> tuple[np.ndarray, np.ndarray]:
    """(grid, paths) of consecutive blocks, copied into one preallocated matrix."""
    paths = None
    filled = 0
    for block in blocks:
        if paths is None:
            grid = block.grid
            paths = np.empty((block.config.n_paths, grid.size))
        rows = block.paths.shape[0]
        if filled + rows > paths.shape[0]:
            raise DataError(f"blocks hold more than the config's {paths.shape[0]} paths")
        paths[filled : filled + rows] = block.paths
        filled += rows
        del block  # freed before the next block is simulated
    if paths is None:
        raise DataError("no paths to summarize")
    return grid, paths[:filled]


def _summary_columns(paths: np.ndarray) -> np.ndarray:
    """Rows mean, var, q05, q50, q95 of each column of paths.

    Each statistic is the whole-matrix reduction bit for bit. Strips are
    near-equal and at least 2 columns wide: numpy sums a one-column strip
    pairwise, not row by row as it sums the whole matrix along axis 0.
    """
    n_paths, width = paths.shape
    ddof = 1 if n_paths > 1 else 0
    out = np.empty((5, width))
    n_strips = -(-width // STRIP_COLUMNS)
    edges = [width * k // n_strips for k in range(n_strips + 1)]
    for lo, hi in zip(edges, edges[1:]):
        strip = paths[:, lo:hi]
        out[0, lo:hi] = strip.mean(axis=0)
        out[1, lo:hi] = strip.var(axis=0, ddof=ddof)
        out[2:, lo:hi] = np.quantile(strip, [0.05, 0.5, 0.95], axis=0)
    return out
