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
from typing import NamedTuple

import numpy as np

from ._csv import write_csv
from .corpus import AgePanel
from .distfit import adjusted_r2, normal_cdf, wald_se
from .errors import ConvergenceError, DegenerateDataError, DomainError, InsufficientDataError

__all__ = [
    "HistoryParams",
    "HistoryFit",
    "FitDiagnostics",
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
# One lambda seed: _seed_scales derives A and B from (mu, sigma) alone, so
# every lambda seed of a (mu, sigma) starts on one point of the
# (ln A, mu, ln sigma, ln B) coordinates that _Search compares.
LAMBDA_STARTS = (0.5,)

LAMBDA_BOUND = 50.0   # optimizer ceiling; tanh is numerically saturated beyond
LAMBDA_CAP = 10.0     # reported as effectively infinite above this
N_PARAMS = 5

# The box a panel can identify; fit_history abandons a start that leaves
# it (see _Search).
MU_FLOOR = -3.0
LN_A_MARGIN = 6.0
STATUS_ABANDONED = -2   # least_squares status when the callback stops a start
MAX_NFEV = 1000         # residual evaluations allowed per start

# fit_history stops a start whose iterate comes this close (max-abs over
# ln A, mu, ln sigma, ln B; lambda's cost is flat beyond saturation) to an
# accepted iterate of an earlier start (see _Search).
JOIN_TOL = 1e-2


# --- model ------------------------------------------------------------------


def _lognormal_z(t, ln_t, mu: float, sigma: float):
    """f(t; mu, sigma) for t > 0, given ln t, and z = (ln t - mu) / sigma."""
    z = (ln_t - mu) / sigma
    return np.exp(-0.5 * z * z) / (t * sigma * _SQRT_2PI), z


def _lognormal_density(t, mu: float, sigma: float):
    """f(t; mu, sigma) for a float or float array t > 0."""
    return _lognormal_z(t, np.log(t), mu, sigma)[0]


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
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        for name, value in (("A", self.A), ("sigma", self.sigma), ("B", self.B),
                            ("lambda", self.lam)):
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not isinstance(self.lambda_capped, bool):
            raise DomainError(f"lambda_capped must be true or false, got {self.lambda_capped!r}")

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
        """Parameters from their JSON object; each numeric field must be a
        JSON number, not a string or a boolean."""
        return cls(
            A=_json_number(data, "A"),
            mu=_json_number(data, "mu"),
            sigma=_json_number(data, "sigma"),
            B=_json_number(data, "B"),
            lam=_json_number(data, "lambda"),
            lambda_capped=data.get("lambda_capped", False),
        )


def _json_number(data: dict, key: str) -> float:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{key} must be finite") from None


class _Curve:
    """u = A f(t + 1) + B tanh(lambda t) at fixed ages t, and its Jacobian in
    theta = (ln A, mu, ln sigma, ln B, ln lambda). The last theta's terms are
    kept: least_squares asks for the Jacobian at the iterate it just evaluated."""

    def __init__(self, t: np.ndarray):
        self.t, self.tp1, self.key = t, t + 1.0, None
        self.ln_tp1 = np.log(self.tp1)

    def at(self, a, mu, sig, b, lam):
        """A f(t + 1; mu, sigma), its z = (ln(t + 1) - mu) / sigma, and B tanh(lambda t)."""
        f, z = _lognormal_z(self.tp1, self.ln_tp1, mu, sig)
        return a * f, z, b * np.tanh(lam * self.t)

    def terms(self, theta: np.ndarray):
        if theta.tobytes() != self.key:
            self.key = theta.tobytes()
            self.last = self.at(math.exp(theta[0]), theta[1], *map(math.exp, theta[2:]))
        return self.last

    def u(self, theta) -> np.ndarray:
        jump, _, base = self.terms(theta)
        return jump + base

    def jac(self, theta) -> np.ndarray:
        jump, z, base = self.terms(theta)
        sig, b, lam = map(math.exp, theta[2:])
        return np.column_stack([jump, jump * z / sig, jump * (z * z - 1.0), base,
                                b * lam * self.t * _sech2(lam * self.t)])

    def jac_natural(self, theta: np.ndarray) -> np.ndarray:
        """The Jacobian in (A, mu, sigma, B, lambda): d/dX = (d/d ln X) / X."""
        a, sig, b, lam = np.exp(theta[[0, 2, 3, 4]])
        return self.jac(theta) * np.array([1.0 / a, 1.0, 1.0 / sig, 1.0 / b, 1.0 / lam])


def _components(params: HistoryParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jump-decay A f(t + 1) and baseline B tanh(lambda t) parts of u at ages t.

    At t = 0 the baseline is exactly 0 regardless of lambda. With
    lambda_capped it is the unit step B 1{t > 0}.
    """
    jump, _, base = _Curve(t).at(params.A, params.mu, params.sigma, params.B, params.lam)
    if params.lambda_capped:
        base = params.B * (t > 0).astype(float)
    return jump, base


def _ages(t) -> np.ndarray:
    """Ages t as a float array, refusing a negative or NaN one."""
    ta = np.asarray(t, dtype=float)
    if np.any(~(ta >= 0)):
        raise DomainError(f"age must be non-negative, got {t!r}")
    return ta


def eval_history(params: HistoryParams, t):
    """Yearly citation rate u(t) at age t >= 0 (scalar or array)."""
    scalar = np.ndim(t) == 0
    jump, base = _components(params, np.atleast_1d(_ages(t)))
    out = jump + base
    return float(out[0]) if scalar else out


# --- fitting ----------------------------------------------------------------


@dataclass(frozen=True)
class FitDiagnostics:
    """What the multi-start search did. No wall time, so it is deterministic.

    starts: optimizer starts tried. abandoned, joined: starts the search
    stopped (least_squares status -2; see _Search), abandoned when an
    accepted iterate left the identifiable box, joined when it reached the
    path of a start that succeeded or joined.
    failed: (start index, message) for each start whose optimizer raised.
    best_start, best_status: grid index and least_squares status of the
    winning start. nfev: residual evaluations over all starts that ran,
    stopped ones included.
    """

    starts: int
    abandoned: int
    failed: tuple[tuple[int, str], ...]
    best_start: int
    best_status: int
    nfev: int
    joined: int = 0

    def to_dict(self) -> dict:
        return {
            "starts": self.starts,
            "abandoned": self.abandoned,
            "joined": self.joined,
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
    converged is always True: fit_history raises ConvergenceError rather
    than return a fit that did not converge.
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


def _seed_scales(u: np.ndarray, mu0: float, sig0: float) -> tuple[float, float]:
    """Starting A and B from the panel's peak and tail levels."""
    floor = max(float(np.max(u)) * 1e-3, 1e-8)
    b0 = max(float(np.mean(u[-3:])) if u.size >= 3 else float(u[-1]), floor)
    # Height of the component peak needed to lift the curve from the
    # baseline to the observed maximum.
    f_mode = math.exp(-0.5 * sig0 * sig0) / (math.exp(mu0 - sig0 * sig0) * sig0 * _SQRT_2PI)
    a0 = max(float(np.max(u)) - b0, floor) / f_mode
    return a0, b0


class _Search:
    """The stopping rule of one fit's multi-start search.

    The panel sees the lognormal f(t + 1; mu, sigma) only at shifted ages
    t + 1 in [1, T_max + 1], so it cannot pin the parameters down along
    mu -> -inf with A -> inf, where the component imitates a spike at age
    0 (the lognormal aging identifiability problem of Wang, Song &
    Barabasi, Science 342:127, 2013). A box cuts that direction off:

    - mu < MU_FLOOR: the component's median exp(mu) lies more than 3 log
      units before the first observed shifted age, so the panel holds only
      its right tail, whose height A can trade against mu without limit.
    - ln A > ln_a_max = ln max(u) + ln(T_max + 1) + LN_A_MARGIN: A is the
      component's total mass, while the whole panel carries at most
      max(u) (T_max + 1). A curve that stays near the data then has more
      than 1 - e^-6, over 99.7%, of that mass outside the observed ages.

    won is a (k, 4) array of the accepted iterates (ln A, mu, ln sigma,
    ln B) of the earlier starts that succeeded, final x included, or
    joined. A start that was abandoned, failed or ran out of evaluations
    adds nothing. callback, the least_squares callback, adds each iterate
    to current, then stops the start by raising StopIteration, which
    least_squares reports as status STATUS_ABANDONED, in the first of
    these cases:

    - the iterate left the box: the start is abandoned;
    - it lies within JOIN_TOL, max-abs, of a row of won: the start joins,
      since from there it would only walk on to an optimum already known,
      and joined is set.

    This is the clustering idea of multi-level single linkage (Rinnooy Kan
    & Timmer, Math. Programming 39:27, 1987), applied to whole paths
    rather than to optima alone. least_squares calls the callback after
    every iteration with the current iterate, which moves only when a step
    is accepted, so until it stops a start follows exactly the path it
    would without it: the box and the join rule are stopping rules, not
    bounds.
    """

    def __init__(self, t: np.ndarray, u: np.ndarray):
        self.ln_a_max = (math.log(float(np.max(u))) + math.log(float(np.max(t)) + 1.0)
                         + LN_A_MARGIN)
        self.won = np.empty((0, 4))
        self.current = []
        self.joined = False

    def callback(self, intermediate_result):
        x = intermediate_result.x
        self.current.append(x[:4].copy())
        if x[1] < MU_FLOOR or x[0] > self.ln_a_max:
            raise StopIteration
        if (np.abs(self.won - x[:4]) < JOIN_TOL).all(axis=1).any():
            self.joined = True
            raise StopIteration

    def end(self, res=None) -> bool:
        """Add the running start's iterates to won if it succeeded or
        joined (res None: it failed), and return whether it joined."""
        path, self.current = self.current, []
        joined, self.joined = self.joined, False
        status = 0 if res is None else res.status
        if status > 0:
            path.append(res.x[:4])
        if status > 0 or joined:
            self.won = np.vstack([self.won, *path])
        return joined


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first call.

    scipy.optimize adds about 0.7 s to the start of every process that
    imports it. fit_history looks this name up at call time, so tests and
    the benchmark's tracer can wrap it.
    """
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def fit_history(panel: AgePanel, weighted: bool = False) -> HistoryFit:
    """Least-squares fit of the history model to an age panel.

    Runs a multi-start local optimization (trust-region least squares with
    an analytic Jacobian) from a fixed grid of (mu, sigma) starts that
    share one lambda seed, positivity enforced by log-reparameterization
    and lambda bounded at LAMBDA_BOUND. A start is stopped early when it
    leaves the box the panel can identify or reaches the path of an
    earlier start that succeeded or joined (see _Search).
    The best start by residual cost among those not stopped wins; the fit
    fails unless it satisfied the optimizer's tolerances, so a returned
    fit has always converged. The result's diagnostics record what every
    start did. With weighted, each age's residual is weighted by the
    square root of its population n; the default is the unweighted
    regression.

    Raises:
        InsufficientDataError: fewer than 6 usable ages.
        DegenerateDataError: all-zero response.
        ConvergenceError: every start was stopped or failed, or the winning
            start did not converge; the message names the panel.
    """
    t = np.array([e.t for e in panel.entries], dtype=float)
    u = np.array([e.u for e in panel.entries], dtype=float)
    if t.size < N_PARAMS + 1:
        raise InsufficientDataError(
            f"need at least {N_PARAMS + 1} usable ages, panel has {t.size}"
        )
    if not np.any(u > 0):
        raise DegenerateDataError("panel response is identically zero")

    if weighted:
        w = np.sqrt(np.array([e.n for e in panel.entries], dtype=float))
    else:
        w = np.ones_like(u)
    curve = _Curve(t)

    def resid(theta):
        return (curve.u(theta) - u) * w

    def jac(theta):
        return curve.jac(theta) * w[:, None]

    lower = np.full(N_PARAMS, -np.inf)
    upper = np.array([np.inf, np.inf, np.inf, np.inf, math.log(LAMBDA_BOUND)])
    search = _Search(t, u)

    grid = list(itertools.product(MU_STARTS, SIGMA_STARTS, LAMBDA_STARTS))
    best = None
    best_cost = np.inf
    best_start = -1
    abandoned = joined = nfev = 0
    failed = []
    for i, (mu0, sig0, lam0) in enumerate(grid):
        a0, b0 = _seed_scales(u, mu0, sig0)
        x0 = np.array([math.log(a0), mu0, math.log(sig0), math.log(b0), math.log(lam0)])
        try:
            res = least_squares(
                resid,
                x0,
                jac=jac,
                method="trf",
                bounds=(lower, upper),
                max_nfev=MAX_NFEV,
                callback=search.callback,
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            search.end()
            failed.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        nfev += res.nfev
        if search.end(res):
            joined += 1
        elif res.status == STATUS_ABANDONED:
            abandoned += 1
        elif res.cost < best_cost:
            best, best_cost, best_start = res, res.cost, i
    if best is None or not best.success:
        verdict = ("no start survived" if best is None
                   else f"best start {best_start} stopped with status {best.status}")
        detail = f"; first failure: start {failed[0][0]}, {failed[0][1]}" if failed else ""
        raise ConvergenceError(
            f"{panel.discipline}/{panel.dataset_year}: no optimization start converged: "
            f"{verdict}; {abandoned} of {len(grid)} abandoned outside the identifiable box, "
            f"{len(failed)} failed{detail}"
        )
    diagnostics = FitDiagnostics(
        starts=len(grid),
        abandoned=abandoned,
        failed=tuple(failed),
        best_start=best_start,
        best_status=int(best.status),
        nfev=nfev,
        joined=joined,
    )

    theta = best.x.copy()
    # tanh saturates at integer ages long before LAMBDA_BOUND, so the cost
    # profile is flat in lambda beyond a few units and the optimizer can
    # stall anywhere on it. When moving lambda to the bound costs nothing
    # the data cannot resolve a finite rate; report the capped limit.
    theta_bound = np.append(theta[:4], math.log(LAMBDA_BOUND))
    cost_bound = 0.5 * float(np.sum(resid(theta_bound) ** 2))
    if cost_bound <= best_cost * (1.0 + 1e-9):
        theta = theta_bound

    a, sig, b, lam = map(math.exp, theta[[0, 2, 3, 4]])
    params = HistoryParams(A=a, mu=float(theta[1]), sigma=sig, B=b, lam=lam,
                           lambda_capped=lam > LAMBDA_CAP)

    resid_plain = u - curve.u(theta)
    ssr = float(np.dot(resid_plain * w, resid_plain * w))
    sst = float(np.dot((u - u.mean()) * w, (u - u.mean()) * w))
    r2_adj = adjusted_r2(ssr, sst, t.size, N_PARAMS)
    jac_natural = curve.jac_natural(theta) * w[:, None]
    se_a, se_mu, se_sig, se_b, se_lam = wald_se(jac_natural, ssr).tolist()

    return HistoryFit(
        params=params,
        se_A=se_a, se_mu=se_mu, se_sigma=se_sig, se_B=se_b,
        se_lambda=None if params.lambda_capped else se_lam,
        r2_adj=r2_adj,
        residuals=tuple(resid_plain.tolist()),
        converged=True,
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


def derive_metrics(params: HistoryParams) -> DerivedMetrics:
    """Metrics of a parameter set, such as a fit's params.

    s_rate is stored as delta1/delta2 and i_rate as 1/r_rate, so both
    ratio identities hold exactly by construction.
    """
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
    """Closed-form F, G, H and the jump-decay share rho at a finite horizon T >= 1.

    The baseline integral G is taken over [0, T-1]: baseline attention at
    age t has only accumulated for t years by horizon T = t + 1. With
    lambda_capped it is exactly B*(T-1).
    """
    if not (math.isfinite(T) and T >= 1.0):
        raise DomainError(f"horizon must be finite and >= 1, got {T}")
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

    A year whose fit raises ConvergenceError is a point with NaN metrics
    and converged False rather than dropped, so the output always aligns
    with the input years. A panel too thin or all zero still raises.
    """
    points = []
    for panel in panels:
        try:
            m = derive_metrics(fit_history(panel).params)
        except ConvergenceError:
            nan = float("nan")
            points.append(TrendPoint(panel.dataset_year, nan, nan, nan, False))
        else:
            points.append(TrendPoint(panel.dataset_year, m.s_rate, m.r_rate, m.i_rate, True))
    return points


# --- serialization ----------------------------------------------------------


def write_curve_csv(params: HistoryParams, path, t_max: float = 20.0, step: float = 0.1) -> None:
    """Sample the fitted curve as `t,u_hat,f_component,g_component`."""
    t = np.arange(0.0, t_max + step / 2, step)
    jump, base = _components(params, t)
    write_csv(path, ["t", "u_hat", "f_component", "g_component"],
              zip(t.tolist(), (jump + base).tolist(), jump.tolist(), base.tolist()))
