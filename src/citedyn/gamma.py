"""Citation evaluation against fitted history curves.

An eprint with c citations at age T in a discipline whose average history
integrates to H(T) gets the index

    gamma = ln(c / H(T)),

i.e. the log of its citation count relative to the discipline expectation
at the same age. The rank-based companion gamma* = Phi^(-1)(Q) maps the
eprint's mid-rank Q within its discipline through the standard normal
quantile, which makes scores comparable across disciplines whatever the
shape of the underlying count distribution.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._csv import write_csv
from .corpus import CitationCorpus
from .distfit import mid_ranks, normal_quantile
from .errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
)
from .historyfit import _SQRT_2PI, HistoryParams, cumulative_split

__all__ = [
    "GammaScore",
    "GammaStarScore",
    "ReadyReckoner",
    "GroupSummary",
    "PairResult",
    "GroupComparison",
    "KdeCurve",
    "gamma_index",
    "gamma_star_scores",
    "score_eprints",
    "build_reckoner",
    "group_stats",
    "pearson_r",
    "kde_curve",
    "write_scores_csv",
    "write_reckoner_csv",
]

log = logging.getLogger(__name__)

# Mid-ranks are clamped to this window before the normal quantile map, so
# extreme ranks in small groups cannot produce infinite scores.
RANK_CLAMP = (0.001, 0.999)

KDE_GRID_SIZE = 512


# --- the index --------------------------------------------------------------


def gamma_index(c: float, T: float, params: HistoryParams) -> float:
    """ln(c / H(T)) for a finite count c >= 1 at a finite age T >= 1."""
    if not (math.isfinite(c) and c >= 1):
        raise DomainError(f"citation count must be finite and >= 1, got {c}")
    split = cumulative_split(params, T)
    return math.log(c / split.H)


@dataclass(frozen=True)
class GammaScore:
    """The raw index for one eprint at its evaluation age."""

    eprint_id: str
    discipline: str
    T: int
    c: int
    gamma: float


@dataclass(frozen=True)
class GammaStarScore:
    """Rank-normal companion score: gamma_star = Phi^(-1)(Q)."""

    eprint_id: str
    Q: float
    gamma_star: float


def gamma_star_scores(scores: Iterable[GammaScore]) -> list[GammaStarScore]:
    """Rank-normal scores from raw gamma values, grouped by discipline.

    Each eprint's Q is the mid-rank of its gamma within its own
    discipline, clamped to RANK_CLAMP before the normal quantile map.
    Output order matches input order.
    """
    scores = list(scores)
    if not scores:
        raise DataError("no scores to rank")
    by_disc: dict[str, list[int]] = {}
    for i, s in enumerate(scores):
        by_disc.setdefault(s.discipline, []).append(i)
    out: list[GammaStarScore | None] = [None] * len(scores)
    for indices in by_disc.values():
        gammas = np.array([scores[i].gamma for i in indices])
        q = np.clip(mid_ranks(gammas), RANK_CLAMP[0], RANK_CLAMP[1])
        stars = normal_quantile(q)
        for i, qi, gi in zip(indices, q, stars):
            out[i] = GammaStarScore(
                eprint_id=scores[i].eprint_id, Q=float(qi), gamma_star=float(gi)
            )
    return out


def score_eprints(
    corpus: CitationCorpus,
    discipline: str,
    params: HistoryParams,
    dataset_year: int,
) -> tuple[list[GammaScore], list[GammaStarScore]]:
    """Score every scorable eprint of one discipline at dataset_year.

    An eprint is scorable when it is at least one year old at the horizon
    and has accumulated at least one citation by then; each of the rest is
    logged as a warning on the citedyn.gamma logger, not silently dropped.
    Rank scores are computed within the scorable set, the same population
    the gamma values describe. A dataset_year past the corpus's retrieval year
    or before corpus.MIN_SUBMIT_YEAR raises DomainError, as
    CitationCorpus.citation_totals does.
    """
    members = corpus.members(discipline)
    # The totals check dataset_year, so they come before the ages use it.
    totals = corpus.citation_totals(members, through=dataset_year).tolist()
    ages = (dataset_year - corpus.submit_years[members]).tolist()
    usable = []
    for k, T, c in zip(members.tolist(), ages, totals):
        if T < 1:
            log.warning("%s: not yet 1 year old in %d, skipped", corpus.ids[k], dataset_year)
        elif c < 1:
            log.warning("%s: no citations by %d, skipped", corpus.ids[k], dataset_year)
        else:
            usable.append((corpus.ids[k], T, c))
    if not usable:
        raise InsufficientDataError(
            f"no scorable eprints in {discipline!r} at {dataset_year}"
        )
    # gamma_index per eprint, with H(T) computed once per distinct age.
    H = {T: cumulative_split(params, T).H for T in {T for _, T, _ in usable}}
    scores = [
        GammaScore(
            eprint_id=eid,
            discipline=discipline,
            T=T,
            c=c,
            gamma=math.log(c / H[T]),
        )
        for eid, T, c in usable
    ]
    return scores, gamma_star_scores(scores)


# --- ready reckoner ---------------------------------------------------------


@dataclass(frozen=True)
class ReadyReckoner:
    """gamma values on a (citation level) x (age) grid.

    Cells where the discipline expectation already exceeds the citation
    level (gamma < 0) are masked with None.
    """

    discipline: str
    c_levels: tuple[float, ...]
    ages: tuple[float, ...]
    matrix: tuple[tuple[float | None, ...], ...]


def build_reckoner(
    params: HistoryParams,
    c_levels: Sequence[float],
    ages: Sequence[float],
    discipline: str = "",
) -> ReadyReckoner:
    if not c_levels or not ages:
        raise DataError("reckoner needs at least one citation level and one age")
    rows = []
    for c in c_levels:
        row = []
        for T in ages:
            g = gamma_index(c, T, params)
            row.append(g if g >= 0 else None)
        rows.append(tuple(row))
    return ReadyReckoner(
        discipline=discipline,
        c_levels=tuple(float(c) for c in c_levels),
        ages=tuple(float(a) for a in ages),
        matrix=tuple(rows),
    )


# --- group statistics -------------------------------------------------------


@dataclass(frozen=True)
class GroupSummary:
    label: str
    n: int
    mean: float
    std: float  # sample standard deviation, ddof=1 (0.0 for singletons)


@dataclass(frozen=True)
class PairResult:
    """Two-sided two-sample t-test, Bonferroni-adjusted.

    A pair with zero pooled variance is flagged degenerate; its statistic
    and p-values are NaN (undefined), not forced to a boundary value.
    """

    label_a: str
    label_b: str
    t_stat: float
    df: float
    p_raw: float
    p_adjusted: float
    degenerate: bool = False


@dataclass(frozen=True)
class GroupComparison:
    groups: tuple[GroupSummary, ...]
    f_stat: float
    df_between: int
    df_within: int
    p_value: float
    pairs: tuple[PairResult, ...]
    welch: bool
    pearson_r: float | None = None


def _t_sf_two_sided(t: float, df: float) -> float:
    # P(|T_df| > |t|) via the regularized incomplete beta function.
    if math.isinf(t):
        return 0.0
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def _pair_test(a: np.ndarray, b: np.ndarray, welch: bool) -> tuple[float, float, float, bool]:
    nan = float("nan")
    ma, mb = float(a.mean()), float(b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if welch:
        denom2 = va / a.size + vb / b.size
        if denom2 == 0.0:
            return nan, nan, nan, True
        t = (ma - mb) / math.sqrt(denom2)
        df = denom2**2 / (
            (va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1)
        )
    else:
        df = float(a.size + b.size - 2)
        pooled = ((a.size - 1) * va + (b.size - 1) * vb) / df
        if pooled == 0.0:
            return nan, df, nan, True
        t = (ma - mb) / math.sqrt(pooled * (1.0 / a.size + 1.0 / b.size))
    return t, df, _t_sf_two_sided(t, df), False


def group_stats(
    groups: Mapping[str, Sequence[float]],
    paired: tuple[Sequence[float], Sequence[float]] | None = None,
    welch: bool = False,
) -> GroupComparison:
    """One-way ANOVA across the groups plus all pairwise t-tests.

    Pairwise p-values get a Bonferroni adjustment for the number of pairs
    tested; welch switches the pairwise tests to unequal-variance form
    (the ANOVA stays classical). paired, when given, is a pair of
    equal-length score vectors whose Pearson correlation is attached to
    the result.

    Raises:
        InsufficientDataError: fewer than 2 groups, or a group with fewer
            than 2 elements.
    """
    if len(groups) < 2:
        raise InsufficientDataError("need at least 2 groups to compare")
    arrays = {}
    for label, values in groups.items():
        arr = np.asarray(list(values), dtype=float)
        if arr.size < 2:
            raise InsufficientDataError(
                f"group {label!r} has {arr.size} element(s), need at least 2"
            )
        arrays[label] = arr

    n_total = sum(a.size for a in arrays.values())
    k = len(arrays)
    df_between = k - 1
    df_within = n_total - k

    grand = sum(float(a.sum()) for a in arrays.values()) / n_total
    ssb = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays.values())
    ssw = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays.values())
    msb = ssb / df_between
    msw = ssw / df_within
    if msb == 0.0:
        f_stat, p_value = 0.0, 1.0
    elif msw == 0.0:
        f_stat, p_value = math.inf, 0.0
    else:
        from scipy.special import betainc

        f_stat = msb / msw
        p_value = float(
            betainc(df_within / 2.0, df_between / 2.0, df_within / (df_within + df_between * f_stat))
        )

    pairs = list(itertools.combinations(sorted(arrays), 2))
    m = max(len(pairs), 1)
    results = []
    for la, lb in pairs:
        t, df, p_raw, degenerate = _pair_test(arrays[la], arrays[lb], welch)
        results.append(
            PairResult(
                label_a=la,
                label_b=lb,
                t_stat=t,
                df=df,
                p_raw=p_raw,
                p_adjusted=min(1.0, p_raw * m) if not degenerate else p_raw,
                degenerate=degenerate,
            )
        )

    summaries = tuple(
        GroupSummary(
            label=label,
            n=int(a.size),
            mean=float(a.mean()),
            std=float(a.std(ddof=1)),
        )
        for label, a in sorted(arrays.items())
    )
    return GroupComparison(
        groups=summaries,
        f_stat=f_stat,
        df_between=df_between,
        df_within=df_within,
        p_value=p_value,
        pairs=tuple(results),
        welch=welch,
        pearson_r=pearson_r(*paired) if paired is not None else None,
    )


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise DataError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise InsufficientDataError("correlation needs at least 2 points")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise DegenerateDataError("a sample with zero variance has no correlation")
    return float(xc @ yc) / denom


# --- density estimate -------------------------------------------------------


@dataclass(frozen=True)
class KdeCurve:
    x: tuple[float, ...]
    density: tuple[float, ...]
    half_width: float
    kernel: str
    n: int


def kde_curve(
    values: Sequence[float],
    half_width: float,
    kernel: str = "epanechnikov",
) -> KdeCurve:
    """Kernel density estimate on a fixed 512-point grid.

    The grid spans [min - 3h, max + 3h]. Default kernel is the
    Epanechnikov parabola K(u) = 0.75 (1 - u^2) on |u| <= 1; "gaussian"
    selects the standard normal kernel instead.
    """
    if not (half_width > 0 and math.isfinite(half_width)):
        raise DomainError(f"half_width must be positive and finite, got {half_width}")
    v = np.asarray(list(values), dtype=float)
    if v.size < 2:
        raise InsufficientDataError("density estimate needs at least 2 values")
    if kernel not in ("epanechnikov", "gaussian"):
        raise DomainError(f"unknown kernel {kernel!r}")

    h = float(half_width)
    x = np.linspace(v.min() - 3 * h, v.max() + 3 * h, KDE_GRID_SIZE)
    density = np.zeros_like(x)
    # Chunk the sample so the (grid x sample) kernel matrix stays small.
    for start in range(0, v.size, 8192):
        chunk = v[start : start + 8192]
        u = (x[:, None] - chunk[None, :]) / h
        if kernel == "epanechnikov":
            kern = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        else:
            kern = np.exp(-0.5 * u * u) / _SQRT_2PI
        density += kern.sum(axis=1)
    density /= v.size * h
    return KdeCurve(
        x=tuple(x.tolist()),
        density=tuple(density.tolist()),
        half_width=h,
        kernel=kernel,
        n=int(v.size),
    )


# --- serialization ----------------------------------------------------------


def write_scores_csv(
    scores: Sequence[GammaScore], stars: Sequence[GammaStarScore], path
) -> None:
    """Write aligned gamma and gamma* scores, one row per eprint."""
    if len(scores) != len(stars):
        raise DataError(f"score/star length mismatch: {len(scores)} vs {len(stars)}")
    for s, star in zip(scores, stars):
        if s.eprint_id != star.eprint_id:
            raise DataError(f"score/star misalignment at {s.eprint_id!r} vs {star.eprint_id!r}")
    write_csv(path, ["eprint_id", "discipline", "T", "c", "gamma", "gamma_star"], (
        (s.eprint_id, s.discipline, s.T, s.c, s.gamma, star.gamma_star)
        for s, star in zip(scores, stars)
    ))


def write_reckoner_csv(reckoner: ReadyReckoner, path) -> None:
    """One row per citation level of one reckoner; masked cells left empty."""
    write_csv(path, ["discipline", "c"] + [f"T={_trim(a)}" for a in reckoner.ages], (
        [reckoner.discipline, _trim(c)] + ["" if g is None else f"{g:.2f}" for g in row]
        for c, row in zip(reckoner.c_levels, reckoner.matrix)
    ))


def _trim(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))
