"""Jump-decay plus constant-attention model of citation histories.

The discipline-average yearly citation rate at eprint age t is modeled as

    u(t) = A * f(t + 1; mu, sigma) + B * tanh(lambda * t)

where f is the lognormal density

    f(t; mu, sigma) = exp(-(ln t - mu)^2 / (2 sigma^2)) / (t sigma sqrt(2 pi)).

The +1 shift makes the lognormal part contribute
A * (sqrt(2 pi) sigma)^(-1) * exp(-mu^2 / (2 sigma^2)) at age 0, while the
sigmoid is exactly 0 there: baseline attention only switches on after the
document exists. Cumulative citation mass splits into closed forms,

    F(T) = A * Phi((ln T - mu) / sigma)            (jump-decay part)
    G(T) = (B / lambda) * ln cosh(lambda * T)      (baseline part)
    H(T) = F(T) + G(T - 1),    rho(T) = F(T) / H(T),

with G evaluated at T - 1 for the same reason the sigmoid argument is t.
A fitted lambda above LAMBDA_CAP is reported as effectively infinite
(lambda_capped); in that regime the sigmoid is treated as a unit step and
G(T - 1) degenerates to B * (T - 1).

Derived per-discipline metrics:

    delta1 = exp(mu - sigma^2)               time from posting to the peak
    delta2 = exp(mu) * (1 - exp(-sigma^2))   peak to the distribution median
    S = delta1 / delta2                      internal obsolescence rate
    R = B / u_peak,  I = 1 / R               retention and inflation rates

where t_peak is the age at which the jump-decay component A f(t + 1) is
largest and u_peak is the full curve, baseline included, evaluated there.
The component is the lognormal density shifted back by 1, so its peak is
the shifted mode in closed form,

    t_peak = max(delta1 - 1, 0),

at age 0 when mu < sigma^2 (the mode lies before the first shifted age)
and at the true mode however late it falls: there is no search window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from ._csv import write_csv
from .corpus import AgePanel
from .distfit import adjusted_r2, normal_cdf
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    InvalidInputError,
)

__all__ = [
    "HistoryParams",
    "HistoryFit",
    "FitDiagnostics",
    "FitOptions",
    "DerivedMetrics",
    "CumulativeSplit",
    "TrendPoint",
    "eval_history",
    "fit_history",
    "derive_metrics",
    "cumulative_split",
    "trend_metrics",
    "write_curve_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# --- fit configuration ------------------------------------------------------

MU_STARTS = (0.5, 1.0, 1.5, 2.0)
SIGMA_STARTS = (0.5, 0.8, 1.2)
LAMBDA_STARTS = (0.5, 2.0, 20.0)

LAMBDA_BOUND = 50.0   # optimizer ceiling; tanh is numerically saturated beyond
LAMBDA_CAP = 10.0     # reported as effectively infinite above this
N_PARAMS = 5

# The box a panel can identify; fit_history abandons a start that leaves
# it (see _box_callback).
MU_FLOOR = -3.0
LN_A_MARGIN = 6.0
STATUS_ABANDONED = -2   # least_squares status when the callback stops a start
MAX_NFEV = 1000         # residual evaluations allowed per start


# --- model ------------------------------------------------------------------


def _lognormal_density(t, mu: float, sigma: float):
    """f(t; mu, sigma) for t > 0."""
    t = np.asarray(t, dtype=float)
    z = (np.log(t) - mu) / sigma
    return np.exp(-0.5 * z * z) / (t * sigma * _SQRT_2PI)


def _sech2(x):
    """sech^2(x), flushed to 0 where cosh would overflow."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    small = x < 30.0
    out[small] = 1.0 / np.cosh(x[small]) ** 2
    return out


def _ln_cosh(x: float) -> float:
    """ln cosh(x) without overflow: |x| + ln(1 + e^(-2|x|)) - ln 2."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


@dataclass(frozen=True)
class HistoryParams:
    """Parameter set (A, mu, sigma, B, lambda) of the history curve.

    lambda_capped marks a rate too large to resolve from yearly data; all
    evaluations then use the unit-step limit of the sigmoid.
    """

    A: float
    mu: float
    sigma: float
    B: float
    lam: float
    lambda_capped: bool = False

    def __post_init__(self):
        if not self.A > 0:
            raise DomainError(f"A must be positive, got {self.A}")
        if not self.sigma > 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not self.B > 0:
            raise DomainError(f"B must be positive, got {self.B}")
        if not self.lam > 0:
            raise DomainError(f"lambda must be positive, got {self.lam}")

    def to_dict(self) -> dict:
        return {
            "A": self.A,
            "mu": self.mu,
            "sigma": self.sigma,
            "B": self.B,
            "lambda": self.lam,
            "lambda_capped": self.lambda_capped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistoryParams":
        return cls(
            A=float(data["A"]),
            mu=float(data["mu"]),
            sigma=float(data["sigma"]),
            B=float(data["B"]),
            lam=float(data["lambda"]),
            lambda_capped=bool(data.get("lambda_capped", False)),
        )


def _components(params: HistoryParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jump-decay A f(t + 1) and baseline B tanh(lambda t) parts of u at ages t.

    At t = 0 the baseline is exactly 0 regardless of lambda. With
    lambda_capped it is the unit step B 1{t > 0}.
    """
    jump = params.A * _lognormal_density(t + 1.0, params.mu, params.sigma)
    if params.lambda_capped:
        base = params.B * (t > 0).astype(float)
    else:
        base = params.B * np.tanh(params.lam * t)
    return jump, base


def eval_history(params: HistoryParams, t):
    """Yearly citation rate u(t) at age t >= 0 (scalar or array)."""
    scalar = np.ndim(t) == 0
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ta < 0):
        raise DomainError(f"age must be non-negative, got {t!r}")
    jump, base = _components(params, ta)
    out = jump + base
    return float(out[0]) if scalar else out


# --- fitting ----------------------------------------------------------------


@dataclass(frozen=True)
class FitOptions:
    """Knobs for fit_history; the default is the unweighted regression."""

    weight_by_population: bool = False


@dataclass(frozen=True)
class FitDiagnostics:
    """What the multi-start search did. No wall time, so it is deterministic.

    starts: optimizer starts tried. abandoned: starts stopped because an
    accepted iterate left the identifiable box (least_squares status -2).
    failed: (start index, message) for each start whose optimizer raised.
    best_start, best_status: grid index and least_squares status of the
    winning start. nfev: residual evaluations over all starts that ran.
    """

    starts: int
    abandoned: int
    failed: tuple[tuple[int, str], ...]
    best_start: int
    best_status: int
    nfev: int

    def to_dict(self) -> dict:
        return {
            "starts": self.starts,
            "abandoned": self.abandoned,
            "failed": [{"start": i, "message": m} for i, m in self.failed],
            "best_start": self.best_start,
            "best_status": self.best_status,
            "nfev": self.nfev,
        }


@dataclass(frozen=True)
class HistoryFit:
    """Fit result: parameters, uncertainties, residuals, provenance.

    se_lambda is None when the rate saturated its cap, where the model is
    locally flat in lambda and no meaningful standard error exists.
    """

    params: HistoryParams
    se_A: float
    se_mu: float
    se_sigma: float
    se_B: float
    se_lambda: float | None
    r2_adj: float
    residuals: tuple[float, ...]
    converged: bool
    discipline: str
    dataset_year: int
    percentile_cap: float | None
    diagnostics: FitDiagnostics


def _model_theta(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    ln_a, mu, ln_sig, ln_b, ln_lam = theta
    a, sig, b, lam = math.exp(ln_a), math.exp(ln_sig), math.exp(ln_b), math.exp(ln_lam)
    return a * _lognormal_density(t + 1.0, mu, sig) + b * np.tanh(lam * t)


def _jac_theta(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Analytic Jacobian in the log-reparameterized coordinates
    # (ln A, mu, ln sigma, ln B, ln lambda).
    ln_a, mu, ln_sig, ln_b, ln_lam = theta
    a, sig, b, lam = math.exp(ln_a), math.exp(ln_sig), math.exp(ln_b), math.exp(ln_lam)
    tp1 = t + 1.0
    z = (np.log(tp1) - mu) / sig
    af = a * _lognormal_density(tp1, mu, sig)
    cols = np.empty((t.size, N_PARAMS))
    cols[:, 0] = af                         # d/d lnA
    cols[:, 1] = af * z / sig               # d/d mu
    cols[:, 2] = af * (z * z - 1.0)         # d/d ln sigma
    cols[:, 3] = b * np.tanh(lam * t)       # d/d lnB
    cols[:, 4] = b * lam * t * _sech2(lam * t)  # d/d ln lambda
    return cols


def _jac_original(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Jacobian with respect to (A, mu, sigma, B, lambda) themselves, for
    # covariance estimation: d/dX = (d/d ln X) / X for the log coordinates.
    a, sig, b, lam = np.exp(theta[[0, 2, 3, 4]])
    return _jac_theta(theta, t) * np.array([1.0 / a, 1.0, 1.0 / sig, 1.0 / b, 1.0 / lam])


def _seed_scales(t: np.ndarray, u: np.ndarray, mu0: float, sig0: float) -> tuple[float, float]:
    """Starting A and B from the panel's peak and tail levels."""
    floor = max(float(np.max(u)) * 1e-3, 1e-8)
    b0 = max(float(np.mean(u[-3:])) if u.size >= 3 else float(u[-1]), floor)
    # Height of the component peak needed to lift the curve from the
    # baseline to the observed maximum.
    f_mode = math.exp(-0.5 * sig0 * sig0) / (math.exp(mu0 - sig0 * sig0) * sig0 * _SQRT_2PI)
    a0 = max(float(np.max(u)) - b0, floor) / f_mode
    return a0, b0


def _box_callback(t: np.ndarray, u: np.ndarray):
    """least_squares callback that abandons a start leaving the identifiable box.

    The panel sees the lognormal f(t + 1; mu, sigma) only at shifted ages
    t + 1 in [1, T_max + 1], so it cannot pin the parameters down along
    mu -> -inf with A -> inf, where the component imitates a spike at age
    0 (the lognormal aging identifiability problem of Wang, Song &
    Barabasi, Science 342:127, 2013). The box cuts that direction off:

    - mu < MU_FLOOR: the component's median exp(mu) lies more than 3 log
      units before the first observed shifted age, so the panel holds only
      its right tail, whose height A can trade against mu without limit.
    - ln A > ln max(u) + ln(T_max + 1) + LN_A_MARGIN: A is the component's
      total mass, while the whole panel carries at most max(u) (T_max + 1).
      A curve that stays near the data then has more than 1 - e^-6, over
      99.7%, of that mass outside the observed ages.

    least_squares calls this after every iteration with the current
    iterate, which moves only when a step is accepted. A start that stays
    inside the box therefore follows exactly the path it would without the
    callback.
    """
    ln_a_max = math.log(float(np.max(u))) + math.log(float(np.max(t)) + 1.0) + LN_A_MARGIN

    def callback(x):
        if x[1] < MU_FLOOR or x[0] > ln_a_max:
            raise StopIteration

    return callback


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first call.

    scipy.optimize adds about 0.7 s to the start of every process that
    imports it. fit_history looks this name up at call time, so tests and
    the benchmark's tracer can wrap it.
    """
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def fit_history(panel: AgePanel, options: FitOptions | None = None) -> HistoryFit:
    """Least-squares fit of the history model to an age panel.

    Runs a multi-start local optimization (trust-region least squares with
    an analytic Jacobian) over a fixed grid of (mu, sigma, lambda) starts,
    positivity enforced by log-reparameterization and lambda bounded at
    LAMBDA_BOUND. A start is abandoned (status -2) as soon as an accepted
    iterate leaves the box the panel can identify: mu >= MU_FLOOR and
    ln A <= ln max(u) + ln(T_max + 1) + LN_A_MARGIN, with T_max the
    panel's largest age (see _box_callback). The box is a stopping rule,
    not a bound, so it does not change the path of a start that stays
    inside it. The best surviving start by residual cost wins; converged
    is False when it did not satisfy the optimizer's tolerances. The
    result's diagnostics record what every start did.

    Raises:
        InsufficientDataError: fewer than 6 usable ages.
        DegenerateDataError: all-zero response.
        ConvergenceError: every start was abandoned or failed.
    """
    opts = options or FitOptions()
    t = np.array([e.t for e in panel.entries], dtype=float)
    u = np.array([e.u for e in panel.entries], dtype=float)
    if t.size < N_PARAMS + 1:
        raise InsufficientDataError(
            f"need at least {N_PARAMS + 1} usable ages, panel has {t.size}"
        )
    if not np.any(u > 0):
        raise DegenerateDataError("panel response is identically zero")

    if opts.weight_by_population:
        w = np.sqrt(np.array([e.n for e in panel.entries], dtype=float))
    else:
        w = np.ones_like(u)

    def resid(theta):
        return (_model_theta(theta, t) - u) * w

    def jac(theta):
        return _jac_theta(theta, t) * w[:, None]

    lower = np.full(N_PARAMS, -np.inf)
    upper = np.array([np.inf, np.inf, np.inf, np.inf, math.log(LAMBDA_BOUND)])
    callback = _box_callback(t, u)

    grid = list(itertools.product(MU_STARTS, SIGMA_STARTS, LAMBDA_STARTS))
    best = None
    best_cost = np.inf
    best_start = -1
    abandoned = nfev = 0
    failed = []
    for i, (mu0, sig0, lam0) in enumerate(grid):
        a0, b0 = _seed_scales(t, u, mu0, sig0)
        x0 = np.array([math.log(a0), mu0, math.log(sig0), math.log(b0), math.log(lam0)])
        try:
            res = least_squares(
                resid,
                x0,
                jac=jac,
                method="trf",
                bounds=(lower, upper),
                max_nfev=MAX_NFEV,
                callback=callback,
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            failed.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        nfev += res.nfev
        if res.status == STATUS_ABANDONED:
            abandoned += 1
        elif res.cost < best_cost:
            best, best_cost, best_start = res, res.cost, i
    if best is None:
        detail = f"; first failure: start {failed[0][0]}, {failed[0][1]}" if failed else ""
        raise ConvergenceError(
            f"no optimization start survived: {abandoned} of {len(grid)} abandoned "
            f"outside the identifiable box, {len(failed)} failed{detail}"
        )
    diagnostics = FitDiagnostics(
        starts=len(grid),
        abandoned=abandoned,
        failed=tuple(failed),
        best_start=best_start,
        best_status=int(best.status),
        nfev=nfev,
    )

    theta = best.x.copy()
    # tanh saturates at integer ages long before LAMBDA_BOUND, so the cost
    # profile is flat in lambda beyond a few units and the optimizer can
    # stall anywhere on it. When moving lambda to the bound costs nothing
    # the data cannot resolve a finite rate; report the capped limit.
    theta_bound = theta.copy()
    theta_bound[4] = math.log(LAMBDA_BOUND)
    cost_bound = 0.5 * float(np.sum(resid(theta_bound) ** 2))
    if cost_bound <= best_cost * (1.0 + 1e-9):
        theta = theta_bound

    ln_a, mu, ln_sig, ln_b, ln_lam = theta
    lam = math.exp(ln_lam)
    params = HistoryParams(
        A=math.exp(ln_a),
        mu=float(mu),
        sigma=math.exp(ln_sig),
        B=math.exp(ln_b),
        lam=lam,
        lambda_capped=lam > LAMBDA_CAP,
    )

    u_hat = _model_theta(theta, t)
    resid_plain = u - u_hat
    ssr = float(np.dot(resid_plain * w, resid_plain * w))
    sst = float(np.dot((u - u.mean()) * w, (u - u.mean()) * w))
    n = t.size
    r2_adj = adjusted_r2(ssr, sst, n, N_PARAMS)

    jac_o = _jac_original(theta, t) * w[:, None]
    s2 = ssr / (n - N_PARAMS) if n > N_PARAMS else 0.0
    cov = s2 * np.linalg.pinv(jac_o.T @ jac_o)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    return HistoryFit(
        params=params,
        se_A=float(se[0]),
        se_mu=float(se[1]),
        se_sigma=float(se[2]),
        se_B=float(se[3]),
        se_lambda=None if params.lambda_capped else float(se[4]),
        r2_adj=r2_adj,
        residuals=tuple(resid_plain.tolist()),
        converged=bool(best.success),
        discipline=panel.discipline,
        dataset_year=panel.dataset_year,
        percentile_cap=panel.percentile_cap,
        diagnostics=diagnostics,
    )


# --- derived metrics --------------------------------------------------------


@dataclass(frozen=True)
class DerivedMetrics:
    """Closed-form summary metrics of a fitted history curve."""

    u_peak: float
    t_peak: float
    delta1: float
    delta2: float
    s_rate: float
    r_rate: float
    i_rate: float
    mean: float
    median: float
    mode: float
    variance: float


def derive_metrics(fit: Union[HistoryFit, HistoryParams]) -> DerivedMetrics:
    """Metrics from a converged fit (or directly from a parameter set).

    s_rate is stored as delta1/delta2 and i_rate as 1/r_rate, so both
    ratio identities hold exactly by construction.

    Raises:
        InvalidInputError: the fit did not converge.
    """
    if isinstance(fit, HistoryFit):
        if not fit.converged:
            raise InvalidInputError("cannot derive metrics from a non-converged fit")
        params = fit.params
    else:
        params = fit

    sig2 = params.sigma * params.sigma
    delta1 = math.exp(params.mu - sig2)
    delta2 = math.exp(params.mu) * (1.0 - math.exp(-sig2))
    t_peak = max(delta1 - 1.0, 0.0)
    u_peak = eval_history(params, t_peak)
    r_rate = params.B / u_peak
    return DerivedMetrics(
        u_peak=u_peak,
        t_peak=t_peak,
        delta1=delta1,
        delta2=delta2,
        s_rate=delta1 / delta2,
        r_rate=r_rate,
        i_rate=1.0 / r_rate,
        mean=math.exp(params.mu + 0.5 * sig2),
        median=math.exp(params.mu),
        mode=delta1,
        variance=(math.exp(sig2) - 1.0) * math.exp(2.0 * params.mu + sig2),
    )


# --- cumulative split -------------------------------------------------------


@dataclass(frozen=True)
class CumulativeSplit:
    """Cumulative citation mass up to horizon T, split by component."""

    T: float
    F: float
    G: float
    H: float
    rho: float


def cumulative_split(params: HistoryParams, T: float) -> CumulativeSplit:
    """Closed-form F, G, H and the jump-decay share rho at horizon T >= 1.

    The baseline integral G is taken over [0, T-1]: baseline attention at
    age t has only accumulated for t years by horizon T = t + 1. With
    lambda_capped it is exactly B*(T-1).
    """
    if T < 1.0:
        raise DomainError(f"horizon must be >= 1, got {T}")
    F = params.A * float(normal_cdf((math.log(T) - params.mu) / params.sigma))
    if params.lambda_capped:
        G = params.B * (T - 1.0)
    else:
        G = (params.B / params.lam) * _ln_cosh(params.lam * (T - 1.0))
    H = F + G
    return CumulativeSplit(T=float(T), F=F, G=G, H=H, rho=F / H)


# --- trend analysis ---------------------------------------------------------


class TrendPoint(NamedTuple):
    dataset_year: int
    s_rate: float
    r_rate: float
    i_rate: float
    converged: bool


def trend_metrics(panels) -> list[TrendPoint]:
    """Fit each panel independently and map to (S, R, I) per dataset year.

    Years whose fit fails to converge are flagged with NaN metrics rather
    than dropped, so the output always aligns with the input years.
    """
    points = []
    for panel in panels:
        fit = fit_history(panel)
        if fit.converged:
            m = derive_metrics(fit)
            points.append(
                TrendPoint(panel.dataset_year, m.s_rate, m.r_rate, m.i_rate, True)
            )
        else:
            nan = float("nan")
            points.append(TrendPoint(panel.dataset_year, nan, nan, nan, False))
    return points


# --- serialization ----------------------------------------------------------


def write_curve_csv(params: HistoryParams, path, t_max: float = 20.0, step: float = 0.1) -> None:
    """Sample the fitted curve as `t,u_hat,f_component,g_component`."""
    t = np.arange(0.0, t_max + step / 2, step)
    jump, base = _components(params, t)
    write_csv(path, ["t", "u_hat", "f_component", "g_component"],
              zip(t.tolist(), (jump + base).tolist(), jump.tolist(), base.tolist()))
