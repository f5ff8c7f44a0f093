"""Corpus ingestion, percentile capping, and panel aggregation."""

import csv
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedyn import corpus as corpus_mod
from citedyn.corpus import (
    AgePanel,
    CitationCorpus,
    EprintRecord,
    PanelEntry,
    build_age_panel,
    build_trend_subsets,
    load_corpus,
    percentile_summary,
    write_long_csv,
    write_panel_csv,
)
from citedyn.errors import DataError, DomainError, SchemaError


def rec(eid, year, counts, disciplines=("astro-ph",)):
    return EprintRecord(
        eprint_id=eid,
        disciplines=frozenset(disciplines),
        submit_year=year,
        yearly_citations=tuple(counts),
    )


# --- record and corpus validation ---------------------------------------------


def test_record_rejects_bad_fields():
    with pytest.raises(DataError, match="discipline"):
        rec("x", 2015, (1,), disciplines=())
    with pytest.raises(DataError, match="negative"):
        rec("x", 2015, (1, -2))
    with pytest.raises(DataError, match="predates"):
        rec("x", 1985, (1,))


def test_citations_through_and_lifetime():
    r = rec("x", 2015, (1, 2, 3))
    assert r.citations_through(2014) == 0
    assert r.citations_through(2015) == 1
    assert r.citations_through(2016) == 3
    assert r.citations_through(2030) == 6
    assert r.lifetime_citations == 6


def test_corpus_rejects_duplicates_and_future_submissions():
    with pytest.raises(DataError, match="duplicate"):
        CitationCorpus(records=(rec("x", 2015, (1,)), rec("x", 2016, (2,))), retrieval_year=2019)
    with pytest.raises(DataError, match="exceeds retrieval_year"):
        CitationCorpus(records=(rec("x", 2020, (1,)),), retrieval_year=2019)


def test_corpus_discipline_lookup():
    c = CitationCorpus(
        records=(
            rec("a", 2015, (1,), ("astro-ph", "hep")),
            rec("b", 2016, (2,), ("hep",)),
        ),
        retrieval_year=2019,
    )
    assert c.disciplines == {"astro-ph", "hep"}
    assert [r.eprint_id for r in c.in_discipline("astro-ph")] == ["a"]
    assert len(c.in_discipline("hep")) == 2


# --- long-csv ingestion --------------------------------------------------------


def write_rows(path, rows, header=corpus_mod.LONG_CSV_COLUMNS):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_long_csv_round_trip(tmp_path):
    original = CitationCorpus(
        records=(
            rec("2015.0001", 2015, (3, 5, 0, 2), ("astro-ph", "hep")),
            rec("2017.0002", 2017, (0, 1), ("hep",)),
        ),
        retrieval_year=2019,
    )
    path = tmp_path / "corpus.csv"
    write_long_csv(original, path)
    loaded = load_corpus(path, "long-csv", retrieval_year=2019)
    assert loaded.retrieval_year == 2019
    assert len(loaded) == 2
    by_id = {r.eprint_id: r for r in loaded.records}
    assert by_id["2015.0001"].disciplines == {"astro-ph", "hep"}
    assert by_id["2015.0001"].yearly_citations == (3, 5, 0, 2)
    assert by_id["2017.0002"].submit_year == 2017


def test_long_csv_derives_retrieval_year(tmp_path):
    path = tmp_path / "corpus.csv"
    write_rows(
        path,
        [
            ["a", "x", 2015, 0, 1],
            ["a", "x", 2015, 1, 2],
            ["b", "x", 2018, 0, 4],
        ],
    )
    loaded = load_corpus(path, "long-csv")
    # latest observed submit_year + max age
    assert loaded.retrieval_year == 2018


def test_long_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, [["a", "x", 2015, 0]], header=["eprint_id", "discipline", "submit_year", "age"])
    with pytest.raises(SchemaError, match="citations_in_year"):
        load_corpus(path, "long-csv")


def test_long_csv_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, [["a", "x", 2015, 0, 1], ["a", "x", "noise", 1, 2]])
    with pytest.raises(DataError, match="row 3"):
        load_corpus(path, "long-csv")

    path2 = tmp_path / "dup.csv"
    write_rows(path2, [["a", "x", 2015, 0, 1], ["a", "x", 2015, 0, 1]])
    with pytest.raises(DataError, match="row 3.*duplicate"):
        load_corpus(path2, "long-csv")


def test_long_csv_conflicting_counts_rejected(tmp_path):
    # same eprint under two disciplines must agree age by age
    path = tmp_path / "conflict.csv"
    write_rows(path, [["a", "x", 2015, 0, 1], ["a", "y", 2015, 0, 2]])
    with pytest.raises(DataError, match="conflicts"):
        load_corpus(path, "long-csv")

    path2 = tmp_path / "year_conflict.csv"
    write_rows(path2, [["a", "x", 2015, 0, 1], ["a", "y", 2016, 0, 1]])
    with pytest.raises(DataError, match="submit_year"):
        load_corpus(path2, "long-csv")


def test_long_csv_gap_zero_fills_with_warning(tmp_path, caplog):
    path = tmp_path / "gap.csv"
    write_rows(path, [["a", "x", 2015, 0, 1], ["a", "x", 2015, 2, 3]])
    with caplog.at_level(logging.WARNING, logger="citedyn.corpus"):
        loaded = load_corpus(path, "long-csv")
    assert loaded.records[0].yearly_citations == (1, 0, 3)
    assert any("zero-filled" in m for m in caplog.messages)


HEADER = ",".join(corpus_mod.LONG_CSV_COLUMNS)

# (data lines after the header, exact DataError message). Row numbers count
# the header as row 1 and skip blank lines.
LOAD_ERRORS = {
    "empty id": (["a,x,2015,0,1", ",x,2015,1,1"], "row 3: empty eprint_id or discipline"),
    "blank discipline": (["a, ,2015,0,1"], "row 2: empty eprint_id or discipline"),
    "year not int": (["a,x,noise,0,1"], "row 2: column 'submit_year' is not an integer: 'noise'"),
    "age not int": (["a,x,2015,1.5,1"], "row 2: column 'age' is not an integer: '1.5'"),
    "count not int": (["a,x,2015,0,"], "row 2: column 'citations_in_year' is not an integer: ''"),
    "negative age": (["a,x,2015,-1,1"], "row 2: negative age -1"),
    "negative count": (["a,x,2015,0,-3"], "row 2: negative citations_in_year -3"),
    "early year": (["a,x,1990,0,1"], "row 2: submit_year 1990 predates 1991"),
    "year conflict": (
        ["a,x,2015,0,1", "a,y,2016,0,1"],
        "row 3: eprint 'a' submit_year 2016 conflicts with earlier value 2015",
    ),
    "duplicate": (
        ["a,x,2015,0,1", "b,x,2015,0,1", "a,x,2015,0,1"],
        "row 4: duplicate (eprint_id, discipline, age) = ('a', 'x', 0)",
    ),
    "count conflict": (
        ["a,x,2015,0,1", "a,y,2015,0,2"],
        "row 3: eprint 'a' age 0 count 2 conflicts with 1 from another discipline row",
    ),
    "blank lines not numbered": (
        ["a,x,2015,0,1", "", "", "a,x,2015,1,bad"],
        "row 3: column 'citations_in_year' is not an integer: 'bad'",
    ),
    "short row": (["a,x,2015"], "row 2: column 'age' is not an integer: None"),
    "row of one cell": (["a"], "row 2: empty eprint_id or discipline"),
    "earlier fault wins": (
        ["a,x,2015,0,1", "a,x,2015,0,oops", "a,x,1980,0,1"],
        "row 3: column 'citations_in_year' is not an integer: 'oops'",
    ),
    "checks run in order": (["a,x,1980,-1,-1"], "row 2: negative age -1"),
}


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_long_csv_error_contract(tmp_path, case):
    lines, message = LOAD_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_corpus(path, "long-csv")
    assert str(err.value) == message


def test_long_csv_without_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n\n\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_corpus(path, "long-csv")
    assert str(err.value) == f"{path}: no data rows"


def test_long_csv_repeated_column_reads_last(tmp_path):
    # As csv.DictReader: a repeated header name takes its last column.
    path = tmp_path / "twice.csv"
    path.write_text(HEADER + ",age\na,x,2015,0,4,1\n", encoding="utf-8")
    assert load_corpus(path, "long-csv").records[0].yearly_citations == (0, 4)


_ID_CHARS = st.sampled_from(list('ab1,"\'.-/'))


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=6), min_size=1, max_size=6,
                        unique=True))
    records = [
        EprintRecord(
            eprint_id=eid,
            disciplines=draw(st.frozensets(st.text(_ID_CHARS, min_size=1, max_size=4),
                                           min_size=1, max_size=3)),
            submit_year=draw(st.integers(corpus_mod.MIN_SUBMIT_YEAR, 2020)),
            yearly_citations=draw(st.lists(st.integers(0, 40), min_size=1, max_size=5)),
        )
        for eid in sorted(ids)
    ]
    horizon = max(r.submit_year + len(r.yearly_citations) - 1 for r in records)
    return CitationCorpus(records=tuple(records), retrieval_year=horizon)


@given(corpora())
def test_long_csv_round_trip_property(tmp_path_factory, original):
    path = tmp_path_factory.mktemp("round") / "corpus.csv"
    write_long_csv(original, path)
    assert load_corpus(path, "long-csv") == original


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(SchemaError, match="unknown corpus format"):
        load_corpus(tmp_path / "x.csv", "parquet")


# --- percentile thresholds -----------------------------------------------------


def test_percentile_threshold_brute_force():
    c = CitationCorpus(
        records=tuple(
            rec(f"e{i}", 2015, (t,)) for i, t in enumerate([0, 0, 1, 2, 100])
        ),
        retrieval_year=2019,
    )
    s = percentile_summary(c, "astro-ph", 0.5)
    # fractions at or below: 0 -> 0.4, 1 -> 0.6 >= 0.5
    assert s.threshold == 1
    assert s.n_below == 3
    top = percentile_summary(c, "astro-ph", 1.0)
    assert top.threshold == 100
    assert top.n_below == 5


def test_percentile_validation():
    c = CitationCorpus(records=(rec("a", 2015, (1,)),), retrieval_year=2019)
    for bad in (0.0, -0.5, 1.01):
        with pytest.raises(DomainError):
            percentile_summary(c, "astro-ph", bad)
    with pytest.raises(DataError, match="no eprints"):
        percentile_summary(c, "missing", 0.5)


# --- panel construction ---------------------------------------------------------


def test_build_age_panel_by_hand():
    c = CitationCorpus(
        records=(rec("a", 2017, (1, 2, 3)), rec("b", 2019, (7,))),
        retrieval_year=2019,
    )
    panel = build_age_panel(c, "astro-ph", 2019, percentile_cap=1.0, max_age=3)
    assert panel.entries == (
        PanelEntry(t=0, u=4.0, n=2),
        PanelEntry(t=1, u=2.0, n=1),
        PanelEntry(t=2, u=3.0, n=1),
    )
    assert panel.missing_ages == (3,)
    assert panel.population == 2
    assert panel.ages == [0, 1, 2]


def test_cap_drops_most_cited():
    records = tuple(
        rec(f"e{i}", 2019, (t,)) for i, t in enumerate([1, 2, 3, 100])
    )
    c = CitationCorpus(records=records, retrieval_year=2019)
    capped = build_age_panel(c, "astro-ph", 2019, percentile_cap=0.75, max_age=1)
    assert capped.population == 3
    assert capped.entries[0].u == pytest.approx(2.0)
    # threshold agrees with the standalone percentile scan at the same cut
    assert percentile_summary(c, "astro-ph", 0.75).threshold == 3
    full = build_age_panel(c, "astro-ph", 2019, percentile_cap=1.0, max_age=1)
    assert full.population == 4


def test_cap_uses_totals_through_cut_year():
    # heavy citations arriving after the cut must not exclude the eprint
    late_bloomer = rec("late", 2015, (0, 0, 1, 200, 200))
    steady = rec("steady", 2015, (2, 2, 2, 2, 2))
    c = CitationCorpus(records=(late_bloomer, steady), retrieval_year=2019)
    panel = build_age_panel(c, "astro-ph", 2017, percentile_cap=0.5, max_age=2)
    # through 2017 the totals are 1 and 6, so the cap keeps "late"
    assert panel.population == 1
    assert panel.entries[0].u == pytest.approx(0.0)


def test_build_age_panel_validation():
    c = CitationCorpus(records=(rec("a", 2015, (1,)),), retrieval_year=2019)
    with pytest.raises(DomainError, match="exceeds retrieval_year"):
        build_age_panel(c, "astro-ph", 2020, 0.99, 5)
    with pytest.raises(DomainError, match="max_age"):
        build_age_panel(c, "astro-ph", 2019, 0.99, 0)
    with pytest.raises(DomainError, match="percentile_cap"):
        build_age_panel(c, "astro-ph", 2019, 0.0, 5)
    with pytest.raises(DataError, match="no eprints"):
        build_age_panel(c, "hep", 2019, 0.99, 5)


def test_trend_subsets_auto_window():
    records = tuple(
        rec(f"e{y}", y, tuple(range(1, 2019 - y + 2))) for y in range(2015, 2020)
    )
    c = CitationCorpus(records=records, retrieval_year=2019)
    panels = build_trend_subsets(c, "astro-ph", 2017, 2019, 1.0)
    assert [p.dataset_year for p in panels] == [2017, 2018, 2019]
    assert panels[0].ages == [0, 1, 2]
    assert panels[2].ages == [0, 1, 2, 3, 4]
    fixed = build_trend_subsets(c, "astro-ph", 2017, 2019, 1.0, max_age=2)
    assert all(p.ages == [0, 1, 2] for p in fixed)


def test_trend_subsets_validation():
    c = CitationCorpus(records=(rec("a", 2015, (1,)),), retrieval_year=2019)
    with pytest.raises(DomainError, match="first_year"):
        build_trend_subsets(c, "astro-ph", 2018, 2016, 1.0)
    with pytest.raises(DomainError, match="exceeds retrieval_year"):
        build_trend_subsets(c, "astro-ph", 2018, 2020, 1.0)


# --- panel type and panel-csv ----------------------------------------------------


def test_panel_contiguity_enforced():
    with pytest.raises(DataError, match="not contiguous"):
        AgePanel(
            discipline="x",
            dataset_year=2019,
            percentile_cap=None,
            entries=(PanelEntry(0, 1.0, 5), PanelEntry(2, 1.0, 5)),
        )
    # the same gap is fine when declared
    panel = AgePanel(
        discipline="x",
        dataset_year=2019,
        percentile_cap=None,
        entries=(PanelEntry(0, 1.0, 5), PanelEntry(2, 1.0, 5)),
        missing_ages=(1,),
    )
    assert panel.missing_ages == (1,)


def test_panel_rejects_bad_entries():
    with pytest.raises(DataError, match="no entries"):
        AgePanel(discipline="x", dataset_year=2019, percentile_cap=None, entries=())
    with pytest.raises(DataError, match="negative mean"):
        AgePanel(
            discipline="x",
            dataset_year=2019,
            percentile_cap=None,
            entries=(PanelEntry(0, -0.5, 5),),
        )
    with pytest.raises(DataError, match="no eprints"):
        AgePanel(
            discipline="x",
            dataset_year=2019,
            percentile_cap=None,
            entries=(PanelEntry(0, 1.0, 0),),
        )


def test_panel_csv_round_trip(tmp_path):
    c = CitationCorpus(
        records=(rec("a", 2016, (1, 2, 3, 4)), rec("b", 2018, (5, 6))),
        retrieval_year=2019,
    )
    panel = build_age_panel(c, "astro-ph", 2019, percentile_cap=1.0, max_age=3)
    path = tmp_path / "panels.csv"
    write_panel_csv([panel], path)
    loaded = load_corpus(path, "panel-csv")
    assert len(loaded) == 1
    got = loaded[0]
    assert got.discipline == panel.discipline
    assert got.dataset_year == panel.dataset_year
    assert got.percentile_cap is None  # the cap is not representable in this format
    assert got.entries == panel.entries


def test_panel_csv_errors(tmp_path):
    path = tmp_path / "panels.csv"
    write_rows(
        path,
        [["x", 2019, 0, 0, 5]],
        header=corpus_mod.PANEL_CSV_COLUMNS,
    )
    with pytest.raises(DataError, match="row 2.*n_eprints"):
        load_corpus(path, "panel-csv")

    path2 = tmp_path / "dup.csv"
    write_rows(
        path2,
        [["x", 2019, 0, 5, 5], ["x", 2019, 0, 5, 5]],
        header=corpus_mod.PANEL_CSV_COLUMNS,
    )
    with pytest.raises(DataError, match="row 3.*duplicate"):
        load_corpus(path2, "panel-csv")


def test_ingestion_is_deterministic(tmp_path):
    c = CitationCorpus(
        records=(
            rec("b", 2016, (1, 2), ("hep",)),
            rec("a", 2016, (3, 4), ("astro-ph", "hep")),
        ),
        retrieval_year=2019,
    )
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_long_csv(c, p1)
    write_long_csv(c, p2)
    assert p1.read_bytes() == p2.read_bytes()
    r1 = load_corpus(p1, "long-csv")
    r2 = load_corpus(p2, "long-csv")
    assert r1 == r2
