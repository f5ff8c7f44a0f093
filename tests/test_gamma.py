"""Citation surprise index, rank-normal scores, reckoner grid, and the
group comparison helpers."""

import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedyn import gamma as gamma_mod
from citedyn.corpus import CitationCorpus, EprintRecord
from citedyn.errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
)
from citedyn.gamma import (
    GammaScore,
    build_reckoner,
    gamma_index,
    gamma_star_scores,
    group_stats,
    kde_curve,
    pearson_r,
    score_eprints,
    write_reckoner_csv,
    write_scores_csv,
)
from citedyn.historyfit import cumulative_split

from _reference import (
    ORACLE,
    RECKONER_AGES,
    RECKONER_C_LEVELS,
    RECKONER_DRIFT_CELLS,
    RECKONER_TABLE,
    params_for,
)

ASTRO = params_for("astro-ph")
HEP = params_for("hep")


# --- gamma index ---------------------------------------------------------------


def test_gamma_frozen_examples():
    assert gamma_index(5, 2, ASTRO) == pytest.approx(
        ORACLE["astro_gamma_5_2"], rel=1e-12
    )
    assert gamma_index(50, 10, ASTRO) == pytest.approx(
        ORACLE["astro_gamma_50_10"], rel=1e-12
    )
    assert gamma_index(50, 4, HEP) == pytest.approx(
        ORACLE["hep_gamma_50_4"], rel=1e-12
    )


def test_gamma_zero_when_on_expectation():
    assert gamma_index(ORACLE["astro_H10"], 10, ASTRO) == pytest.approx(0.0, abs=1e-12)


def test_gamma_domain_errors():
    for c, T in ((0.5, 5), (math.nan, 5), (math.inf, 5), (5, 0.5), (5, math.inf)):
        with pytest.raises(DomainError):
            gamma_index(c, T, ASTRO)


def test_gamma_monotone_in_both_arguments():
    ages = np.arange(1, 21)
    for c in (1, 5, 50):
        values = [gamma_index(c, T, ASTRO) for T in ages]
        assert all(b < a for a, b in zip(values, values[1:]))
    for T in (1, 5, 20):
        values = [gamma_index(c, T, ASTRO) for c in (1, 2, 5, 10, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))


@given(
    kappa=st.floats(min_value=1.0, max_value=1e4),
    c=st.floats(min_value=1.0, max_value=1e3),
    T=st.floats(min_value=1.0, max_value=30.0),
)
def test_gamma_scale_covariance(kappa, c, T):
    base = gamma_index(c, T, ASTRO)
    scaled = gamma_index(kappa * c, T, ASTRO)
    assert scaled - base == pytest.approx(math.log(kappa), rel=1e-9, abs=1e-9)


good_counts = st.floats(min_value=1.0, max_value=1e6)
good_ages = st.floats(min_value=1.0, max_value=100.0)
bad_values = st.sampled_from([0.0, 0.5, -3.0, math.nan, math.inf, -math.inf])


@given(
    cells=st.lists(st.tuples(good_counts, good_ages), min_size=1, max_size=30),
    bad=st.lists(st.tuples(st.integers(0, 29), st.sampled_from("cT"), bad_values), max_size=3),
)
def test_array_gamma_index_is_the_scalar_call(cells, bad):
    # Bit for bit, in any shape; a bad element raises what the scalar call on
    # the first one raises.
    for k, which, value in bad:
        if k < len(cells):
            c, T = cells[k]
            cells[k] = (value, T) if which == "c" else (c, value)
    c, T = (np.array(column, dtype=float) for column in zip(*cells))
    scalar, first_error = [], None
    for ck, Tk in zip(c.tolist(), T.tolist()):
        try:
            scalar.append(gamma_index(ck, Tk, ASTRO))
        except DomainError as exc:
            first_error = first_error or str(exc)
    if first_error is None:
        assert gamma_index(c, T, ASTRO).tolist() == scalar
        grid = gamma_index(c[::-1, None], T[None, ::-1], ASTRO)
        assert grid[::-1, ::-1].diagonal().tolist() == scalar
    else:
        with pytest.raises(DomainError) as err:
            gamma_index(c, T, ASTRO)
        assert str(err.value) == first_error


def test_gamma_index_keeps_scalar_messages():
    with pytest.raises(DomainError, match=r"citation count must be finite and >= 1, got 0$"):
        gamma_index(np.array([5, 0]), 2, ASTRO)
    with pytest.raises(DomainError, match=r"horizon must be finite and >= 1, got 0.5$"):
        gamma_index(np.array([5, 0]), np.array([0.5, 2.0]), ASTRO)
    assert type(gamma_index(5, 2, ASTRO)) is float


# --- ready reckoner ---------------------------------------------------------------


def test_reckoner_evaluates_H_once_per_distinct_age(monkeypatch):
    calls = []

    def counted(params, T):
        calls.append(T)
        return cumulative_split(params, T)

    monkeypatch.setattr(gamma_mod, "cumulative_split", counted)
    reck = build_reckoner(ASTRO, (5, 10, 50), (2, 3, 3, 10), "astro-ph")
    assert sorted(calls) == [2, 3, 10]
    assert reck.matrix[0][1] == reck.matrix[0][2] == gamma_index(5, 3, ASTRO)


def test_reckoner_grid_is_bounded(monkeypatch):
    monkeypatch.setattr(gamma_mod, "MAX_RECKONER_CELLS", 6)
    assert len(build_reckoner(ASTRO, (5, 10), (2, 3, 4), "x").matrix) == 2
    with pytest.raises(DomainError, match="reckoner grid of 3 x 3 cells exceeds 6"):
        build_reckoner(ASTRO, (5, 10, 50), (2, 3, 4), "x")


def test_reckoner_reproduces_reference_grid():
    for label, block in RECKONER_TABLE.items():
        reck = build_reckoner(
            params_for(label), RECKONER_C_LEVELS, RECKONER_AGES, label
        )
        for ci, c in enumerate(RECKONER_C_LEVELS):
            for ti, T in enumerate(RECKONER_AGES):
                want = block[c][ti]
                got = reck.matrix[ci][ti]
                where = f"{label} c={c} T={T}"
                if want is None:
                    assert got is None, where
                else:
                    tol = 0.02 if (label, c, T) in RECKONER_DRIFT_CELLS else 0.01
                    assert got == pytest.approx(want, abs=tol), where


def test_reckoner_masks_exactly_the_negative_cells():
    reck = build_reckoner(params_for("comp-sci"), (5,), RECKONER_AGES, "comp-sci")
    for ti, T in enumerate(RECKONER_AGES):
        raw = gamma_index(5, T, params_for("comp-sci"))
        if raw < 0:
            assert reck.matrix[0][ti] is None
        else:
            assert reck.matrix[0][ti] == pytest.approx(raw, rel=1e-12)


def test_reckoner_monotone_structure():
    reck = build_reckoner(ASTRO, RECKONER_C_LEVELS, RECKONER_AGES, "astro-ph")
    for row in reck.matrix:  # decreasing along increasing age
        present = [v for v in row if v is not None]
        assert all(b < a for a, b in zip(present, present[1:]))
    for ti in range(len(RECKONER_AGES)):  # increasing along citation levels
        col = [reck.matrix[ci][ti] for ci in range(len(RECKONER_C_LEVELS))]
        present = [v for v in col if v is not None]
        assert all(b > a for a, b in zip(present, present[1:]))


def test_reckoner_needs_levels_and_ages():
    with pytest.raises(DataError):
        build_reckoner(ASTRO, (), (2, 3), "x")
    with pytest.raises(DataError):
        build_reckoner(ASTRO, (5,), (), "x")


# --- rank-normal scores -------------------------------------------------------------


def score(i, disc, g):
    return GammaScore(eprint_id=f"e{i}", discipline=disc, T=5, c=10, gamma=g)


def test_gamma_star_three_distinct_values():
    scores = [score(0, "a", 3.0), score(1, "a", 1.0), score(2, "a", 2.0)]
    stars = gamma_star_scores(scores)
    assert [s.eprint_id for s in stars] == ["e0", "e1", "e2"]
    assert stars[0].Q == pytest.approx(5.0 / 6.0)
    assert stars[1].Q == pytest.approx(1.0 / 6.0)
    assert stars[2].Q == pytest.approx(0.5)
    assert stars[1].gamma_star == pytest.approx(ORACLE["phiinv_sixth"], abs=1e-11)
    assert stars[2].gamma_star == pytest.approx(0.0, abs=1e-12)
    assert stars[0].gamma_star == pytest.approx(-ORACLE["phiinv_sixth"], abs=1e-11)


def test_gamma_star_extreme_ranks_clamped():
    n = 2000
    stars = gamma_star_scores([score(i, "a", float(i)) for i in range(n)])
    values = [s.gamma_star for s in stars]
    # raw Q at the edges would be 0.00025 / 0.99975; the clamp caps them
    assert min(values) == pytest.approx(-ORACLE["phiinv_0999"], abs=1e-11)
    assert max(values) == pytest.approx(ORACLE["phiinv_0999"], abs=1e-11)


def test_gamma_star_groups_ranked_independently():
    scores = [
        score(0, "a", 10.0),
        score(1, "b", -5.0),
        score(2, "a", 20.0),
        score(3, "b", -4.0),
    ]
    stars = gamma_star_scores(scores)
    # both disciplines see the same two-point rank pattern
    assert stars[0].Q == stars[1].Q == 0.25
    assert stars[2].Q == stars[3].Q == 0.75
    assert stars[0].gamma_star == stars[1].gamma_star


def test_gamma_star_invariant_under_monotone_transform():
    raw = [2.0, -1.0, 0.5, 3.7, 0.0]
    a = gamma_star_scores([score(i, "a", g) for i, g in enumerate(raw)])
    b = gamma_star_scores([score(i, "a", math.exp(g)) for i, g in enumerate(raw)])
    assert [s.gamma_star for s in a] == [s.gamma_star for s in b]


def test_gamma_star_ties_share_scores():
    stars = gamma_star_scores([score(i, "a", g) for i, g in enumerate([1.0, 1.0, 2.0])])
    assert stars[0].Q == stars[1].Q == pytest.approx(1.0 / 3.0)
    assert stars[2].Q == pytest.approx(5.0 / 6.0)


def test_gamma_star_standardizes_continuous_samples():
    rng = np.random.default_rng(7)
    stars = gamma_star_scores(
        [score(i, "a", g) for i, g in enumerate(rng.lognormal(size=5000))]
    )
    values = np.array([s.gamma_star for s in stars])
    assert abs(values.mean()) < 0.05
    assert abs(values.std(ddof=1) - 1.0) < 0.05


def test_gamma_star_empty_rejected():
    with pytest.raises(DataError):
        gamma_star_scores([])


# --- corpus scoring -----------------------------------------------------------------


def rec(eid, year, counts, disc="astro-ph"):
    return EprintRecord(
        eprint_id=eid,
        disciplines=frozenset({disc}),
        submit_year=year,
        yearly_citations=tuple(counts),
    )


def test_score_eprints_skips_unscorable_with_warnings(caplog):
    corpus = CitationCorpus(
        records=(
            rec("good", 2015, (2, 3, 0, 0, 1)),
            rec("too-young", 2019, (4,)),
            rec("uncited", 2014, (0, 0, 0, 0, 0, 0)),
        ),
        retrieval_year=2019,
    )
    with caplog.at_level(logging.WARNING, logger="citedyn"):
        scores, stars = score_eprints(corpus, "astro-ph", ASTRO, 2019)
    assert [s.eprint_id for s in scores] == ["good"]
    assert scores[0].T == 4
    assert scores[0].c == 6
    assert scores[0].gamma == pytest.approx(gamma_index(6, 4, ASTRO), rel=1e-15)
    assert stars[0].Q == 0.5
    # One record per cause, each on the citedyn.gamma logger.
    assert {r.name for r in caplog.records} == {"citedyn.gamma"}
    assert caplog.messages == [
        "1 eprints not yet 1 year old in 2019, skipped (first: too-young)",
        "1 eprints with no citations by 2019, skipped (first: uncited)",
    ]


def test_score_eprints_error_paths():
    corpus = CitationCorpus(records=(rec("a", 2019, (5,)),), retrieval_year=2019)
    with pytest.raises(DataError):
        score_eprints(corpus, "nope", ASTRO, 2019)
    with pytest.raises(InsufficientDataError):
        score_eprints(corpus, "astro-ph", ASTRO, 2019)  # only a 0-year-old


# --- group comparison ---------------------------------------------------------------


def test_identical_groups_produce_null_result():
    result = group_stats({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]})
    assert result.f_stat == 0.0
    assert result.p_value == 1.0
    assert result.df_between == 1
    assert result.df_within == 4
    (pair,) = result.pairs
    assert pair.p_raw == pytest.approx(1.0)
    assert pair.p_adjusted == pytest.approx(1.0)
    assert not pair.degenerate
    assert result.pearson_r is None


def test_shifted_group_detected():
    rng = np.random.default_rng(3)
    base = rng.normal(0.0, 1.0, 40)
    result = group_stats({"a": base, "b": base + 5.0, "c": base})
    assert result.p_value < 1e-10
    pair_ab = next(p for p in result.pairs if {p.label_a, p.label_b} == {"a", "b"})
    pair_ac = next(p for p in result.pairs if {p.label_a, p.label_b} == {"a", "c"})
    assert pair_ab.p_adjusted < 1e-10
    assert pair_ac.p_raw == pytest.approx(1.0)
    # Bonferroni multiplies by the number of pairs, capped at 1
    assert pair_ac.p_adjusted == 1.0
    assert len(result.pairs) == 3


def test_group_stats_preconditions():
    with pytest.raises(InsufficientDataError):
        group_stats({"a": [1.0, 2.0]})
    with pytest.raises(InsufficientDataError):
        group_stats({"a": [1.0, 2.0], "b": [3.0]})


def test_degenerate_pair_flagged_with_undefined_p():
    result = group_stats({"a": [1.0, 1.0], "b": [2.0, 2.0]})
    (pair,) = result.pairs
    assert pair.degenerate
    assert math.isnan(pair.t_stat)
    assert math.isnan(pair.p_raw)


def test_welch_flag_changes_degrees_of_freedom():
    groups = {"a": [0.0, 0.1, -0.1, 0.05, -0.05], "b": [0.0, 5.0, -5.0, 2.5, -2.5]}
    pooled = group_stats(groups)
    welch = group_stats(groups, welch=True)
    assert welch.welch and not pooled.welch
    (p0,) = pooled.pairs
    (p1,) = welch.pairs
    assert p0.df == 8
    assert p1.df < p0.df  # Welch-Satterthwaite discounts the unequal spread


def test_paired_vectors_attach_pearson():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.1, 3.9, 6.2, 7.8]
    result = group_stats({"a": x, "b": y}, paired=(x, y))
    assert result.pearson_r == pytest.approx(pearson_r(x, y), rel=1e-15)
    assert result.pearson_r > 0.99


def test_pearson_r_values_and_errors():
    assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(DataError):
        pearson_r([1, 2], [1, 2, 3])
    with pytest.raises(InsufficientDataError):
        pearson_r([1], [2])
    with pytest.raises(DegenerateDataError):
        pearson_r([1, 1, 1], [1, 2, 3])


# --- kernel density ------------------------------------------------------------------


def test_kde_recovers_standard_normal_peak():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(4000)
    curve = kde_curve(values, half_width=0.35)
    at_zero = curve.density[int(np.argmin(np.abs(np.asarray(curve.x))))]
    assert at_zero == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=0.02)
    assert curve.kernel == "epanechnikov"
    assert curve.n == 4000
    assert len(curve.x) == len(curve.density) == 512


def test_kde_integrates_to_one():
    rng = np.random.default_rng(12)
    values = rng.normal(3.0, 2.0, 1500)
    epan = kde_curve(values, half_width=0.5)
    assert np.trapezoid(epan.density, epan.x) == pytest.approx(1.0, abs=1e-3)
    gauss = kde_curve(values, half_width=0.5, kernel="gaussian")
    # the grid stops 3 half-widths out, clipping a little gaussian mass
    assert np.trapezoid(gauss.density, gauss.x) == pytest.approx(1.0, abs=5e-3)


def test_kde_resolves_two_modes():
    rng = np.random.default_rng(13)
    values = np.concatenate([rng.normal(0.0, 0.3, 800), rng.normal(3.5, 0.3, 800)])
    curve = kde_curve(values, half_width=0.4)
    d = np.asarray(curve.density)
    rises = np.flatnonzero((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]))
    assert rises.size == 2


def test_kde_validation():
    with pytest.raises(InsufficientDataError):
        kde_curve([1.0], half_width=0.5)
    with pytest.raises(DomainError):
        kde_curve([1.0, 2.0], half_width=0.0)
    for half_width in (math.nan, math.inf):
        with pytest.raises(DomainError, match="half_width must be positive and finite"):
            kde_curve([1.0, 2.0], half_width=half_width)
    with pytest.raises(DomainError):
        kde_curve([1.0, 2.0], half_width=0.5, kernel="triangular")


# --- CSV output ----------------------------------------------------------------------


def test_scores_csv(tmp_path):
    scores = [score(0, "a", 3.0), score(1, "a", 1.0), score(2, "a", 2.0)]
    stars = gamma_star_scores(scores)
    path = tmp_path / "scores.csv"
    write_scores_csv(scores, stars, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["eprint_id"] == "e0"
    assert float(rows[0]["gamma"]) == 3.0
    assert float(rows[1]["gamma_star"]) == pytest.approx(stars[1].gamma_star)
    with pytest.raises(DataError):
        write_scores_csv(scores, stars[:2], tmp_path / "bad.csv")


def test_scores_csv_refuses_stars_in_another_order(tmp_path):
    scores = [score(0, "a", 3.0), score(1, "a", 1.0)]
    stars = gamma_star_scores(scores)[::-1]
    path = tmp_path / "scores.csv"
    with pytest.raises(DataError, match="score/star misalignment at 'e0' vs 'e1'"):
        write_scores_csv(scores, stars, path)
    assert not path.exists()


def test_reckoner_csv_format(tmp_path):
    reck = build_reckoner(
        params_for("comp-sci"), (5, 10), (2, 3, 4, 5), "comp-sci"
    )
    path = tmp_path / "reckoner.csv"
    write_reckoner_csv(reck, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["discipline", "c", "T=2", "T=3", "T=4", "T=5"]
    assert rows[1][:2] == ["comp-sci", "5"]
    assert rows[1][2] == "1.04"  # two decimals
    assert rows[1][4] == ""  # masked cell stays empty
    assert len(rows) == 3
