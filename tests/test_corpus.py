"""Corpus ingestion, percentile capping, and panel aggregation."""

import csv
import io
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citedyn import corpus as corpus_mod
from citedyn.corpus import (
    AgePanel,
    CitationCorpus,
    EprintRecord,
    PanelEntry,
    PercentileSummary,
    build_age_panel,
    build_trend_subsets,
    load_corpus,
    percentile_summary,
    write_long_csv,
    write_panel_csv,
)
from citedyn.errors import DataError, DomainError, InsufficientDataError, SchemaError
from citedyn.gamma import GammaScore, gamma_index, gamma_star_scores, score_eprints

from _reference import params_for


def rec(eid, year, counts, disciplines=("astro-ph",)):
    return EprintRecord(
        eprint_id=eid,
        disciplines=frozenset(disciplines),
        submit_year=year,
        yearly_citations=tuple(counts),
    )


# --- record and corpus validation ---------------------------------------------


def test_record_rejects_bad_fields():
    def build(record):
        return CitationCorpus(records=(record,), retrieval_year=2019)

    with pytest.raises(DataError, match="discipline"):
        build(rec("x", 2015, (1,), disciplines=()))
    with pytest.raises(DataError, match="negative"):
        build(rec("x", 2015, (1, -2)))
    with pytest.raises(DataError, match="predates"):
        build(rec("x", 1985, (1,)))


def test_citation_totals_end_at_the_retrieval_year():
    corp = CitationCorpus(records=(rec("x", 2015, (1, 2, 3, 4, 5)),), retrieval_year=2019)
    members = corp.members("astro-ph")
    assert corp.citation_totals(members, through=2016).tolist() == [3]
    assert corp.citation_totals(members, through=2019).tolist() == [15]
    with pytest.raises(DomainError, match="dataset_year 2020 exceeds retrieval_year 2019"):
        corp.citation_totals(members, through=2020)


def test_corpus_rejects_duplicates_and_future_submissions():
    with pytest.raises(DataError, match="duplicate"):
        CitationCorpus(records=(rec("x", 2015, (1,)), rec("x", 2016, (2,))), retrieval_year=2019)
    with pytest.raises(DataError, match="exceeds retrieval_year"):
        CitationCorpus(records=(rec("x", 2020, (1,)),), retrieval_year=2019)


def test_corpus_refuses_citations_after_the_retrieval_year():
    # the loader's rule: seven yearly counts from 2015 run to 2021
    with pytest.raises(DataError) as err:
        CitationCorpus(records=(rec("x", 2015, (1, 2, 3, 4, 5, 6, 7)),), retrieval_year=2016)
    assert str(err.value) == "eprint x: age 6 dates citations to 2021, past retrieval_year 2016"
    assert len(CitationCorpus(records=(rec("x", 2015, (1, 2)),), retrieval_year=2016)) == 1


def test_corpus_counts_must_fit_int64(tmp_path):
    with pytest.raises(DataError, match="must fit in int64"):
        CitationCorpus(records=(rec("x", 2015, (2**63,)),), retrieval_year=2019)
    with pytest.raises(DataError, match="must sum below 2\\*\\*62"):
        CitationCorpus(records=(rec("x", 2015, (2**61, 2**61)),), retrieval_year=2019)
    path = tmp_path / "big.csv"
    write_rows(path, [["x", "a", 2015, 0, 2**61], ["x", "a", 2015, 1, 2**61]])
    with pytest.raises(DataError, match="must sum below 2\\*\\*62"):
        load_corpus(path, "long-csv")


# Eprints a and b as records and as the columns they make; each case below
# changes them to break one invariant.
A, B = ("a", 2015, (1, 2), ("x", "y")), ("b", 2016, (3,), ("y",))
BASE_COLUMNS = dict(
    ids=("a", "b"), submit_years=[2015, 2016], offsets=[0, 2, 3], counts=[1, 2, 3],
    discipline_names=("x", "y"), member_eprints=[0, 0, 1], member_disciplines=[0, 1, 1],
    retrieval_year=2019,
)

# case: (records breaking the invariant, or None where records cannot,
# the same change to BASE_COLUMNS, the DataError message), in check order.
INVARIANTS = {
    "no eprints": ((), dict(ids=(), submit_years=[], offsets=[0], counts=[], discipline_names=(),
                            member_eprints=[], member_disciplines=[]), "corpus holds no eprints"),
    "column lengths": (None, dict(submit_years=[2015]), "column lengths disagree with the 2 ids"),
    "id not a string": (((7, *A[1:]), B), dict(ids=(7, "b")), "eprint 7: eprint_id is not a string"),
    "empty id": ((("", *A[1:]), B), dict(ids=("", "b")), "eprint '': eprint_id is empty"),
    "padded id": (((" a", *A[1:]), B), dict(ids=(" a", "b")),
                  "eprint ' a': eprint_id has surrounding whitespace"),
    "id with CR": ((("a\rb", *A[1:]), B), dict(ids=("a\rb", "b")),
                   "eprint 'a\\rb': eprint_id holds a carriage return"),
    "duplicate id": ((A, ("a", *B[1:])), dict(ids=("a", "a")), "eprint 'a': eprint_id is a duplicate"),
    "name not a string": (((*A[:3], (7, "y")), B), dict(discipline_names=(7, "y")),
                          "discipline 7: name is not a string"),
    "padded name": (((*A[:3], (" x", "y")), B), dict(discipline_names=(" x", "y")),
                    "discipline ' x': name has surrounding whitespace"),
    "name with CR": (((*A[:3], ("x\rx", "y")), B), dict(discipline_names=("x\rx", "y")),
                     "discipline 'x\\rx': name holds a carriage return"),
    "duplicate name": (None, dict(discipline_names=("x", "x")), "discipline 'x': name is a duplicate"),
    "names unsorted": (None, dict(discipline_names=("y", "x")), "discipline 'x': sorts before 'y'"),
    "offsets start": (None, dict(offsets=[1, 2, 3]), "offsets run from 1 to 3, not from 0 to 3"),
    "offsets end": (None, dict(offsets=[0, 2, 4]), "offsets run from 0 to 4, not from 0 to 3"),
    "offsets decrease": (None, dict(offsets=[0, 4, 3]), "eprint b: offsets decrease"),
    "no ages": (((*A[:2], (), A[3]), B), dict(offsets=[0, 0, 1], counts=[3]),
                "eprint a: no yearly citation counts"),
    "float count": (((*A[:2], (1.5, 2), A[3]), B), dict(counts=[1.5, 2, 3]),
                    "eprint a: citation count 1.5 is not an integer"),
    "whole float count": ((A, (*B[:2], (3.0,), B[3])), dict(counts=[1, 2, 3.0]),
                          "eprint b: citation count 3.0 is not an integer"),
    "str count": ((A, (*B[:2], ("3",), B[3])), dict(counts=[1, 2, "3"]),
                  "eprint b: citation count '3' is not an integer"),
    "count past int64": (((*A[:2], (1, 2**63), A[3]), B), dict(counts=[1, 2**63, 3]),
                         f"eprint a: citation count {2**63} must fit in int64"),
    "negative count": (((*A[:2], (1, -2), A[3]), B), dict(counts=[1, -2, 3]),
                       "eprint a: negative citation count -2 at age 1"),
    "count sum": (((*A[:2], (2**61, 2**61), A[3]), B), dict(counts=[2**61, 2**61, 3]),
                  "citation counts must sum below 2**62"),
    "float retrieval year": ((A, B), dict(retrieval_year=2019.0),
                             "corpus: retrieval_year 2019.0 is not an integer"),
    "str year": (((A[0], "2015", *A[2:]), B), dict(submit_years=["2015", 2016]),
                 "eprint a: submit_year '2015' is not an integer"),
    "early year": (((A[0], 1985, *A[2:]), B), dict(submit_years=[1985, 2016]),
                   "eprint a: submit_year 1985 predates 1991"),
    "late year": ((A, (B[0], 2020, *B[2:])), dict(submit_years=[2015, 2020]),
                  "eprint b: submit_year 2020 exceeds retrieval_year 2019"),
    "late age": (((*A[:2], (1,) * 6, A[3]), B), dict(offsets=[0, 6, 7], counts=[1] * 6 + [3]),
                 "eprint a: age 5 dates citations to 2020, past retrieval_year 2019"),
    "no discipline": (((*A[:3], ()), B), dict(discipline_names=("y",), member_eprints=[1],
                                              member_disciplines=[0]),
                      "eprint a: discipline set is empty"),
    "membership out of range": (None, dict(member_disciplines=[0, 1, 2]),
                                "membership 2: (1, 2) out of range"),
    "memberships unsorted": (None, dict(member_eprints=[0, 1, 0], member_disciplines=[0, 1, 1]),
                             "eprint a: memberships not sorted and unique"),
    "memberships repeated": (None, dict(member_eprints=[0, 0, 1], member_disciplines=[1, 1, 1]),
                             "eprint a: memberships not sorted and unique"),
    "unused discipline": (None, dict(discipline_names=("x", "y", "z")),
                          "discipline 'z': no eprint is tagged with it"),
}


def test_columns_and_records_build_one_corpus():
    corpus = CitationCorpus(records=(rec(*A), rec(*B)), retrieval_year=2019)
    assert CitationCorpus._from_columns(**BASE_COLUMNS) == corpus


def test_corpus_compares_unequal_to_other_types_and_has_a_summary_repr():
    corpus = CitationCorpus(records=(rec(*A), rec(*B)), retrieval_year=2019)
    assert (corpus == 1) is False
    assert corpus != "corpus"
    assert repr(corpus) == "CitationCorpus(2 eprints, 2 disciplines, retrieval_year=2019)"


@pytest.mark.parametrize("case", list(INVARIANTS))
def test_every_constructor_refuses_the_same_inputs(case):
    records, changes, message = INVARIANTS[case]
    columns = {**BASE_COLUMNS, **changes}
    with pytest.raises(DataError) as err:
        CitationCorpus._from_columns(**columns)
    assert str(err.value) == message
    if records is not None:
        with pytest.raises(DataError) as err:
            CitationCorpus(records=[rec(*r) for r in records],
                           retrieval_year=columns["retrieval_year"])
        assert str(err.value) == message


def test_corpus_discipline_lookup():
    c = CitationCorpus(
        records=(
            rec("a", 2015, (1,), ("astro-ph", "hep")),
            rec("b", 2016, (2,), ("hep",)),
        ),
        retrieval_year=2019,
    )
    assert c.discipline_names == ("astro-ph", "hep")
    assert [c.ids[k] for k in c.members("astro-ph").tolist()] == ["a"]
    assert c.members("hep").tolist() == [0, 1]
    with pytest.raises(DataError, match="no eprints in discipline 'math'"):
        c.members("math")


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


def test_long_csv_refuses_citations_after_the_retrieval_year(tmp_path):
    path = tmp_path / "corpus.csv"
    write_rows(path, [["a", "x", 2015, 0, 1], ["a", "x", 2015, 2, 0], ["b", "x", 2016, 0, 4]])
    assert load_corpus(path, "long-csv", retrieval_year=2017).retrieval_year == 2017
    with pytest.raises(DataError) as err:
        load_corpus(path, "long-csv", retrieval_year=2016)
    assert str(err.value) == "eprint a: age 2 dates citations to 2017, past retrieval_year 2016"


def test_long_csv_takes_ages_up_to_year_9999(tmp_path):
    path = tmp_path / "corpus.csv"
    write_rows(path, [["a", "x", 2015, 0, 1], ["a", "x", 2015, 7984, 2]])
    loaded = load_corpus(path, "long-csv", retrieval_year=9999)
    assert loaded.records[0].yearly_citations[-1] == 2


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
    "age past year 9999": (
        ["a,x,2015,0,1", "a,x,2015,7985,1"], "row 3: submit_year 2015 + age 7985 passes year 9999",
    ),
    "int64 age past year 9999": (
        [f"a,x,2015,{2**63 - 1},1"],
        f"row 2: submit_year 2015 + age {2**63 - 1} passes year 9999",
    ),
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


def test_long_csv_orders_eprints_by_stripped_id(tmp_path):
    # " b" sorts before "a" as read and after it once stripped; eprints and
    # their codes follow the stripped order, which " b " shares.
    path = tmp_path / "padded.csv"
    path.write_text(f"{HEADER}\n b,x,2018,0,5\n b,x,2018,1,6\na,x,2019,0,1\n b ,y,2018,1,6\n",
                    encoding="utf-8")
    loaded = load_corpus(path, "long-csv")
    assert loaded.ids == ("a", "b")
    assert loaded.discipline_names == ("x", "y")
    assert loaded.counts.tolist() == [1, 5, 6]
    assert loaded.offsets.tolist() == [0, 1, 3]
    assert loaded.submit_years.tolist() == [2019, 2018]
    assert loaded.member_eprints.tolist() == [0, 1, 1]
    assert loaded.member_disciplines.tolist() == [0, 0, 1]
    assert loaded.retrieval_year == 2019


_ID_CHARS = list('ab1,"\'.-/')
# What an echo must carry through, or the constructor refuse: padding,
# line breaks and a bare carriage return.
_WIDE_CHARS = _ID_CHARS + [" ", "\t", "\n", "\r"]
_EDGE_NAMES = ["", " a", "a ", "\r", "a\rb", "a\nb", "a b", "a\tb", "a\r\nb"]


@st.composite
def corpus_inputs(draw, wide=False):
    """Records, sorted by id, and a retrieval year.

    wide=True may also draw, per group of fields, what the constructor
    must refuse: empty, padded or '\\r'-holding ids and discipline names,
    repeated ids, empty citation vectors, float or str counts and years,
    and a retrieval year before an eprint's last age.
    """
    def pick(valid, refusable):
        return st.one_of(valid, refusable) if wide and draw(st.booleans()) else valid

    def names(size):
        return pick(st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=size),
                    st.text(st.sampled_from(_WIDE_CHARS), max_size=size)
                    | st.sampled_from(_EDGE_NAMES))

    ids = draw(st.lists(names(6), min_size=1, max_size=6, unique=not (wide and draw(st.booleans()))))
    tags = pick(st.frozensets(names(4), min_size=1, max_size=3), st.frozensets(names(4), max_size=3))
    years = pick(st.integers(corpus_mod.MIN_SUBMIT_YEAR, 2020), st.sampled_from([1990, 2015.0, "2015"]))
    counts = pick(st.lists(st.integers(0, 40), min_size=1, max_size=5),
                  st.lists(st.sampled_from([0, 7, -1, 1.5, 2.0, "3"]), max_size=5))
    records = tuple(EprintRecord(eid, draw(tags), draw(years), draw(counts))
                    for eid in sorted(ids, key=str))
    horizon = max((r.submit_year + len(r.yearly_citations) - 1 for r in records
                   if isinstance(r.submit_year, int)), default=2020)
    return records, horizon + draw(pick(st.just(0), st.integers(-1, 1)))


def corpora():
    return corpus_inputs().map(lambda inputs: CitationCorpus(*inputs))


def one_record(eid="a", disciplines=("x",), year=2015, counts=(1,)):
    return example(((EprintRecord(eid, frozenset(disciplines), year, counts),), 2015))


@settings(max_examples=200)
@given(corpus_inputs(wide=True))
@one_record(eid=" a ")
@one_record(eid="a\rb")
@one_record(eid=7)
@one_record(disciplines=("x\ry",))
@one_record(counts=())
@one_record(counts=(1.7,))
@one_record(counts=("3",))
@one_record(year="2015")
def test_long_csv_round_trip_property(tmp_path_factory, inputs):
    # Whatever the constructor takes, a long-csv echo reads back equal.
    records, retrieval_year = inputs
    try:
        original = CitationCorpus(records=records, retrieval_year=retrieval_year)
    except DataError:
        return
    path = tmp_path_factory.mktemp("round") / "corpus.csv"
    write_long_csv(original, path)
    assert load_corpus(path, "long-csv", retrieval_year=retrieval_year) == original


def row_loop_long_csv(corpus):
    """The long-csv echo as a csv.writer row loop writes it, one row at a time:
    eprints in corpus order, each eprint's disciplines by name, ages 0 to last."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(corpus_mod.LONG_CSV_COLUMNS)
    for r in corpus.records:
        for disc in sorted(r.disciplines):
            for age, n in enumerate(r.yearly_citations):
                writer.writerow((r.eprint_id, disc, r.submit_year, age, n))
    return buf.getvalue().encode("utf-8")


# Cells csv must quote (',' '"' '\n'), and ones it must leave alone ('#',
# inner spaces, non-ASCII text). Names stay valid: non-empty, stripped.
_ECHO_CHARS = list('ab,"\n# \'éß中-')
_echo_names = st.text(st.sampled_from(_ECHO_CHARS), min_size=1, max_size=5).filter(
    lambda s: s == s.strip())


@settings(max_examples=150)
@given(st.lists(st.tuples(
    _echo_names,
    st.frozensets(_echo_names, min_size=1, max_size=3),
    st.integers(corpus_mod.MIN_SUBMIT_YEAR, 2020),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=30),
), min_size=1, max_size=6, unique_by=lambda f: f[0]))
def test_echo_bytes_match_a_csv_writer_row_loop(tmp_path_factory, fields):
    records = [EprintRecord(eid, tags, year, tuple(counts)) for eid, tags, year, counts in fields]
    retrieval_year = max(r.submit_year + len(r.yearly_citations) - 1 for r in records)
    original = CitationCorpus(records=records, retrieval_year=retrieval_year)
    path = tmp_path_factory.mktemp("echo") / "corpus.csv"
    write_long_csv(original, path)
    assert path.read_bytes() == row_loop_long_csv(original)


def test_echo_holds_less_than_it_writes(tmp_path, peak_bytes):
    # A few thousand eprints of cross-listed cohorts; the first write in a
    # process allocates once, so a small corpus warms the writer up.
    rng = np.random.default_rng(5)
    records = [
        rec(f"{2000 + k % 20}.{k:05d}", 2000 + k % 20, rng.poisson(20.0, 20 - k % 20),
            ("astro-ph", "hep")[: 1 + (k % 5 == 0)])
        for k in range(5_000)
    ]
    corpus = CitationCorpus(records=records, retrieval_year=2019)
    write_long_csv(CitationCorpus(records=records[:10], retrieval_year=2019), tmp_path / "warm.csv")
    path = tmp_path / "echo.csv"
    peak = peak_bytes(write_long_csv, corpus, path)
    # Streamed a membership at a time; joining the whole text would hold
    # at least the file.
    assert peak < path.stat().st_size


def test_load_holds_each_row_once_in_compact_columns(tmp_path, peak_bytes):
    # The cross-listed corpus of the echo guard above: 65,000 rows. The
    # first load in a process allocates once, so a small file warms it up.
    rng = np.random.default_rng(5)
    records = [
        rec(f"{2000 + k % 20}.{k:05d}", 2000 + k % 20, rng.poisson(20.0, 20 - k % 20),
            ("astro-ph", "hep")[: 1 + (k % 5 == 0)])
        for k in range(5_000)
    ]
    path, warm = tmp_path / "corpus.csv", tmp_path / "warm.csv"
    write_long_csv(CitationCorpus(records=records, retrieval_year=2019), path)
    write_long_csv(CitationCorpus(records=records[:10], retrieval_year=2019), warm)
    load_corpus(warm, "long-csv")
    peak = peak_bytes(load_corpus, path, "long-csv")
    # Strings are held one chunk at a time and each row once, in narrow
    # columns: about 2.4 times the file. Five int64 columns, reordered all
    # at once, held 4.4 times it.
    assert peak < 3 * path.stat().st_size


def logged(logger_name, fn, *args):
    """fn(*args) and the warnings it logged on logger_name, in order. Unlike
    caplog, this works inside a hypothesis test, once per example."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        result = fn(*args)
    finally:
        logger.removeHandler(handler)
    return result, [r.getMessage() for r in records]


def load_logged(path):
    """load_corpus's long-csv result and the warnings it logged, in order."""
    return logged("citedyn.corpus", load_corpus, path, "long-csv")


@given(corpora(), st.randoms(use_true_random=False))
def test_long_csv_row_order_property(tmp_path_factory, original, rnd):
    # Zero some counts below each eprint's last age and drop most zero rows,
    # so the loader zero-fills gaps (with a warning) and reads an age that
    # one discipline's rows lack from another's. Then shuffle the rows, so
    # they are no longer grouped by eprint.
    records, rows = [], []
    for r in original.records:
        last = len(r.yearly_citations) - 1
        counts = [0 if age < last and rnd.random() < 0.3 else count
                  for age, count in enumerate(r.yearly_citations)]
        records.append(rec(r.eprint_id, r.submit_year, counts, r.disciplines))
        rows += [
            [r.eprint_id, disc, r.submit_year, age, count]
            for disc in sorted(r.disciplines)
            for age, count in enumerate(counts)
            if count or age == last or rnd.random() < 0.3
        ]
    expected = CitationCorpus(records=records, retrieval_year=original.retrieval_year)
    folder = tmp_path_factory.mktemp("order")
    write_rows(folder / "grouped.csv", rows)
    write_rows(folder / "shuffled.csv", rnd.sample(rows, len(rows)))
    grouped, grouped_warnings = load_logged(folder / "grouped.csv")
    shuffled, warnings = load_logged(folder / "shuffled.csv")
    assert grouped == expected
    assert shuffled == expected
    assert warnings == grouped_warnings


def test_long_csv_reads_cells_as_int_does(tmp_path):
    # numpy's reader refuses the first two cells; int() takes all three.
    path = tmp_path / "odd.csv"
    path.write_text(f"{HEADER}\na,x,2_000,0,٣\na,x,2000,1, 7 \n", encoding="utf-8")
    assert load_corpus(path, "long-csv") == CitationCorpus(
        records=(rec("a", 2000, (3, 7), ("x",)),), retrieval_year=2001
    )


def test_long_csv_ids_with_csv_syntax_round_trip(tmp_path):
    original = CitationCorpus(
        records=(
            rec('#1, "first"', 2015, (3, 0, 2), ("#x", 'y,"z"')),
            rec("#2", 2016, (1,), ("#x",)),
            rec("multi\nline", 2017, (4, 5), ("#x",)),
        ),
        retrieval_year=2018,
    )
    path = tmp_path / "corpus.csv"
    write_long_csv(original, path)
    assert load_corpus(path, "long-csv") == original


# (data lines after the header, exact DataError message): files numpy's
# reader refuses, quoted line breaks, and a conflict whose first row sorts
# after the conflicting one.
MORE_LOAD_ERRORS = {
    "count past int64": (
        ["a,x,2015,0,1", f"a,x,2015,1,{2**63}"],
        f"row 3: column 'citations_in_year' does not fit in int64: '{2**63}'",
    ),
    "earlier mask fault wins": (
        ["a,x,2015,0,1", "a,x,2015,-1,1", "a,x,2015,1,1", "a,x,2015,2,nope"],
        "row 3: negative age -1",
    ),
    "multi-line id is one row": (
        ['"a\nb",x,2015,0,1', "c,x,2015,0,1", "c,x,2015,0,1"],
        "row 4: duplicate (eprint_id, discipline, age) = ('c', 'x', 0)",
    ),
    "multi-line id is one row when reread": (
        ['"a\nb",x,2015,0,1', "c,x,2015,0,1", "c,x,2015,1,x"],
        "row 4: column 'citations_in_year' is not an integer: 'x'",
    ),
    # The row rules pass a quoted '\r'; the corpus refuses it, as it does
    # through every constructor.
    "quoted carriage return in an id": (
        ['"a\rb",x,2015,0,1'], "eprint 'a\\rb': eprint_id holds a carriage return",
    ),
    "count conflict judged by file order": (
        ["b,x,2015,0,1", "a,y,2015,0,1", "a,x,2015,0,2"],
        "row 4: eprint 'a' age 0 count 2 conflicts with 1 from another discipline row",
    ),
}


@pytest.mark.parametrize("case", sorted(MORE_LOAD_ERRORS))
def test_long_csv_more_error_contract(tmp_path, case):
    lines, message = MORE_LOAD_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_corpus(path, "long-csv")
    assert str(err.value) == message


def sequential_load(path):
    """The long-csv loader as one pass over csv.reader rows.

    Returns the first fault's message, or the corpus and its zero-fill
    warnings.
    """
    by_id = {}  # eprint_id -> [submit_year, {discipline: set of ages}, {age: count}]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        index = {name: i for i, name in enumerate(header)}
        columns = [index[c] for c in corpus_mod.LONG_CSV_COLUMNS]
        row_no = 1
        for row in reader:
            if not row:
                continue
            row_no += 1
            row += [None] * (len(header) - len(row))
            eid, disc = ((row[i] or "").strip() for i in columns[:2])
            if not eid or not disc:
                return f"row {row_no}: empty eprint_id or discipline"
            values = []
            for i, name in zip(columns[2:], corpus_mod.LONG_CSV_COLUMNS[2:]):
                try:
                    values.append(int(row[i]))
                except (TypeError, ValueError):
                    return f"row {row_no}: column {name!r} is not an integer: {row[i]!r}"
            year, age, count = values
            if age < 0:
                return f"row {row_no}: negative age {age}"
            if count < 0:
                return f"row {row_no}: negative citations_in_year {count}"
            if year < corpus_mod.MIN_SUBMIT_YEAR:
                return f"row {row_no}: submit_year {year} predates {corpus_mod.MIN_SUBMIT_YEAR}"
            if year + age > 9999:
                return f"row {row_no}: submit_year {year} + age {age} passes year 9999"
            first_year, ages_by_disc, counts = by_id.setdefault(eid, [year, {}, {}])
            if first_year != year:
                return (f"row {row_no}: eprint {eid!r} submit_year {year} conflicts "
                        f"with earlier value {first_year}")
            ages = ages_by_disc.setdefault(disc, set())
            if age in ages:
                return (f"row {row_no}: duplicate (eprint_id, discipline, age) = "
                        f"({eid!r}, {disc!r}, {age})")
            ages.add(age)
            known = counts.setdefault(age, count)
            if known != count:
                return (f"row {row_no}: eprint {eid!r} age {age} count {count} conflicts "
                        f"with {known} from another discipline row")
    if not by_id:
        return f"{path}: no data rows"
    records, warnings = [], []
    for eid in sorted(by_id):
        year, ages_by_disc, counts = by_id[eid]
        gaps = [a for a in range(max(counts) + 1) if a not in counts]
        if gaps:
            warnings.append(f"eprint {eid}: ages {gaps} absent from file, zero-filled")
        records.append(rec(eid, year, [counts.get(a, 0) for a in range(max(counts) + 1)],
                           ages_by_disc))
    horizon = max(r.submit_year + len(r.yearly_citations) - 1 for r in records)
    return CitationCorpus(records=records, retrieval_year=horizon), warnings


# Mostly valid cells, so that rows reach the conflict and duplicate checks.
_ROW_CELLS = (
    st.sampled_from(["a", "b"] * 4 + [" a", "c,d", 'e"f', "g\nh", ""]),
    st.sampled_from(["x", "y"] * 4 + [" x", ""]),
    st.sampled_from(["2015"] * 8 + ["2016", "1990", "2_015", "z"]),
    st.sampled_from(["0", "1", "2"] * 3 + ["3", "-1", " 1 ", "", "8000"]),
    st.sampled_from(["0", "1", "2"] * 3 + ["-1", "1.0", "٣"]),
)


_ROWS = st.lists(st.one_of(
    st.tuples(*_ROW_CELLS).map(list),
    st.tuples(*_ROW_CELLS).map(lambda row: list(row[:3])),  # a short row
    st.just([]),  # a blank line
), max_size=14)


@settings(max_examples=300)
@given(_ROWS)
def test_long_csv_matches_sequential_pass(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("seq") / "corpus.csv"
    write_rows(path, rows)
    expected = sequential_load(path)
    if isinstance(expected, str):
        with pytest.raises(DataError) as err:
            load_corpus(path, "long-csv")
        assert str(err.value) == expected
    else:
        assert load_logged(path) == expected


@settings(max_examples=150)
@given(_ROWS, st.integers(1, 3))
def test_long_csv_chunk_size_changes_nothing(tmp_path_factory, rows, chunk_rows):
    path = tmp_path_factory.mktemp("chunks") / "corpus.csv"
    write_rows(path, rows)
    expected = sequential_load(path)
    with mock.patch.object(corpus_mod, "_CHUNK_ROWS", chunk_rows):
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                load_corpus(path, "long-csv")
            assert str(err.value) == expected
        else:
            assert load_logged(path) == expected


@given(corpora(), st.integers(1, 4))
def test_long_csv_round_trips_at_any_chunk_size(tmp_path_factory, original, chunk_rows):
    path = tmp_path_factory.mktemp("chunks") / "corpus.csv"
    write_long_csv(original, path)
    with mock.patch.object(corpus_mod, "_CHUNK_ROWS", chunk_rows):
        assert load_corpus(path, "long-csv") == original


# Years and ages at the edges of the fast reader's int32 columns and of
# [0, MAX_YEAR], and counts up to 2**62. Most cells are valid, so that an
# extreme cell is often the only fault in its file.
_EXTREME_ROWS = st.lists(st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["x", "y"]),
    st.sampled_from([1991] * 12 + [1990, 1991, 9999, 10000, 2**15, 2**31, 2**63 - 1]),
    st.sampled_from([0] * 12 + [-1, 0, 7984, 8008, 2**15, 2**31, 2**63 - 1]),
    st.integers(0, 2**62),
).map(list), max_size=6)


@settings(max_examples=150)
@given(_EXTREME_ROWS, st.integers(1, 3))
@example([["a", "x", 1991, 2**31, 1]], 1)  # wraps in int32
@example([["a", "x", 2**31, 0, 1]], 1)
@example([["a", "x", 9999, 7984, 1]], 1)  # in range, past year 9999
@example([["a", "x", 1991, 8008, 2**62 - 1], ["a", "y", 1991, 8008, 2**62 - 1]], 1)
@example([["a", "x", 1991, 0, 2**62]], 1)  # sums to 2**62
def test_long_csv_extreme_integers_match_sequential_pass(tmp_path_factory, rows, chunk_rows):
    path = tmp_path_factory.mktemp("extreme") / "corpus.csv"
    write_rows(path, rows)
    try:
        expected = sequential_load(path)
    except DataError as err:  # a corpus the constructor refuses: counts summing past 2**62
        expected = str(err)
    with mock.patch.object(corpus_mod, "_CHUNK_ROWS", chunk_rows):
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                load_corpus(path, "long-csv")
            assert str(err.value) == expected
        else:
            assert load_logged(path) == expected


def test_codes_widen_to_int64_when_the_table_outgrows_int32(monkeypatch):
    # int32 codes impose no limit on a file: a table that outgrows int32's
    # range numbers every code, earlier parts too, as an int64 position in
    # the sorted table.
    monkeypatch.setattr(corpus_mod, "_INT32", np.iinfo(np.int8))
    codes = corpus_mod._Codes()
    codes.add([f"e{k}" for k in range(100)])
    codes.add([f" e{k}" for k in range(50, 200)])
    joined, table = codes.result()
    assert joined.dtype == np.int64
    assert table == sorted(f"e{k}" for k in range(200))
    assert joined.tolist() == [table.index(f"e{k}") for k in (*range(100), *range(50, 200))]


def test_long_csv_is_read_over_one_handle(tmp_path, monkeypatch):
    # A valid file numpy's reader takes is opened once and assembled once;
    # one it refuses, or one with a faulty row, is opened once more.
    opened, open_csv = [], corpus_mod.open_csv
    assembled, assemble = [], corpus_mod._assemble

    def open_counted(path):
        opened.append(path)
        return open_csv(path)

    def assemble_counted(*columns):
        assembled.append(opened[-1])
        return assemble(*columns)

    monkeypatch.setattr(corpus_mod, "open_csv", open_counted)
    monkeypatch.setattr(corpus_mod, "_assemble", assemble_counted)
    good, odd, dup = tmp_path / "good.csv", tmp_path / "odd.csv", tmp_path / "dup.csv"
    good.write_text(f"{HEADER}\na,x,2015,0,1\n", encoding="utf-8")
    odd.write_text(f"{HEADER}\na,x,2_015,0,1\n", encoding="utf-8")
    dup.write_text(f"{HEADER}\na,x,2015,0,1\na,x,2015,0,1\n", encoding="utf-8")
    assert load_corpus(good, "long-csv") == load_corpus(odd, "long-csv")
    with pytest.raises(DataError) as err:
        load_corpus(dup, "long-csv")
    assert str(err.value) == "row 3: duplicate (eprint_id, discipline, age) = ('a', 'x', 0)"
    assert opened == [good, odd, odd, dup, dup]
    assert assembled == [good, odd, dup]


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


# --- reductions against per-record loops ----------------------------------------
#
# The column reductions must equal these loops over EprintRecords, which
# are the formulas written out one eprint at a time.


def citations_through(r, year):
    """Citations r accumulated through calendar year `year`."""
    return sum(r.yearly_citations[:max(year - r.submit_year + 1, 0)])


def lifetime_citations(r):
    return sum(r.yearly_citations)


def loop_threshold(totals, p):
    totals = sorted(totals)
    n = len(totals)
    cum = 0
    i = 0
    while i < n:
        value = totals[i]
        while i < n and totals[i] == value:
            cum += 1
            i += 1
        if cum / n >= p:
            return value, cum
    return totals[-1], n


def loop_age_panel(recs, dataset_year, cap, max_age):
    recs = [r for r in recs if r.submit_year <= dataset_year]
    totals = [citations_through(r, dataset_year) for r in recs]
    threshold, _ = loop_threshold(totals, cap)
    kept = [r for r, c in zip(recs, totals) if c <= threshold]
    entries, missing = [], []
    for age in range(max_age + 1):
        observable = [r for r in kept if dataset_year - r.submit_year >= age]
        if not observable:
            missing.append(age)
            continue
        total = sum(
            r.yearly_citations[age] if age < len(r.yearly_citations) else 0 for r in observable
        )
        entries.append(PanelEntry(t=age, u=total / len(observable), n=len(observable)))
    return tuple(entries), tuple(missing)


def loop_scores(recs, discipline, params, dataset_year):
    scores, warnings = [], []
    for r in recs:
        T = dataset_year - r.submit_year
        c = citations_through(r, dataset_year)
        if T < 1:
            warnings.append(f"{r.eprint_id}: not yet 1 year old in {dataset_year}, skipped")
        elif c < 1:
            warnings.append(f"{r.eprint_id}: no citations by {dataset_year}, skipped")
        else:
            scores.append(GammaScore(r.eprint_id, discipline, T, c, gamma_index(c, T, params)))
    return scores, warnings


@st.composite
def reduction_cases(draw):
    n = draw(st.integers(1, 12))
    records = tuple(
        EprintRecord(
            eprint_id=f"e{k:02d}",
            disciplines=draw(st.frozensets(st.sampled_from("xyz"), min_size=1)),
            submit_year=draw(st.integers(2000, 2008)),
            yearly_citations=draw(st.lists(st.integers(0, 6), min_size=1, max_size=9)),
        )
        for k in draw(st.permutations(range(n)))
    )
    horizon = max(r.submit_year + len(r.yearly_citations) - 1 for r in records)
    corpus = CitationCorpus(records=records, retrieval_year=horizon)
    discipline = draw(st.sampled_from(corpus.discipline_names))
    dataset_year = draw(st.integers(min(r.submit_year for r in records), horizon))
    cap = draw(st.sampled_from([0.3, 0.5, 0.75, 0.9, 1.0]))
    return corpus, discipline, dataset_year, cap, draw(st.integers(1, 10))


@given(reduction_cases())
def test_reductions_match_record_loops(case):
    corpus, discipline, dataset_year, cap, max_age = case
    recs = [r for r in corpus.records if discipline in r.disciplines]
    threshold, n_below = loop_threshold([lifetime_citations(r) for r in recs], cap)
    assert percentile_summary(corpus, discipline, cap) == PercentileSummary(cap, threshold, n_below)

    if any(r.submit_year <= dataset_year for r in recs):
        panel = build_age_panel(corpus, discipline, dataset_year, cap, max_age)
        assert (panel.entries, panel.missing_ages) == loop_age_panel(
            recs, dataset_year, cap, max_age
        )
    else:
        with pytest.raises(DataError, match="no eprints"):
            build_age_panel(corpus, discipline, dataset_year, cap, max_age)

    params = params_for("astro-ph")
    scores, warnings = loop_scores(recs, discipline, params, dataset_year)
    if scores:
        assert logged("citedyn.gamma", score_eprints, corpus, discipline, params,
                      dataset_year) == ((scores, gamma_star_scores(scores)), warnings)
    else:
        with pytest.raises(InsufficientDataError):
            score_eprints(corpus, discipline, params, dataset_year)


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


def test_panel_csv_refuses_a_retrieval_year(tmp_path):
    # A panel carries its own dataset year; a retrieval year would be dropped.
    c = CitationCorpus(records=(rec("a", 2016, (1, 2, 3, 4)),), retrieval_year=2019)
    path = tmp_path / "panels.csv"
    write_panel_csv([build_age_panel(c, "astro-ph", 2019, percentile_cap=1.0, max_age=3)], path)
    with pytest.raises(DomainError, match="retrieval_year applies only to long-csv input"):
        load_corpus(path, "panel-csv", retrieval_year=1800)


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


@pytest.mark.parametrize("row, fault", [
    (["", 2019, 0, 5, 5], "empty discipline"),
    (["x", 2019, -1, 5, 5], "negative age -1"),
    (["x", 2019, 0, 5, -5], "negative total_citations -5"),
])
def test_panel_csv_row_faults(tmp_path, row, fault):
    path = tmp_path / "panels.csv"
    write_rows(path, [["x", 2019, 1, 5, 5], row], header=corpus_mod.PANEL_CSV_COLUMNS)
    with pytest.raises(DataError) as err:
        load_corpus(path, "panel-csv")
    assert str(err.value) == f"row 3: {fault}"


def test_panel_csv_header_only(tmp_path):
    path = tmp_path / "panels.csv"
    write_rows(path, [], header=corpus_mod.PANEL_CSV_COLUMNS)
    with pytest.raises(DataError) as err:
        load_corpus(path, "panel-csv")
    assert str(err.value) == f"{path}: no data rows"


def test_panel_csv_missing_ages_warning(tmp_path, caplog):
    path = tmp_path / "panels.csv"
    write_rows(path, [["x", 2019, 0, 5, 5], ["x", 2019, 3, 5, 5]],
               header=corpus_mod.PANEL_CSV_COLUMNS)
    with caplog.at_level(logging.WARNING, logger="citedyn.corpus"):
        (panel,) = load_corpus(path, "panel-csv")
    assert caplog.messages == ["panel x/2019: ages [1, 2] missing"]
    assert panel.missing_ages == (1, 2)


def test_panel_csv_integer_cells_follow_the_long_csv_grammar(tmp_path):
    path = tmp_path / "panels.csv"
    write_rows(path, [["x", "2_019", " 0 ", "٣", 6]], header=corpus_mod.PANEL_CSV_COLUMNS)
    assert load_corpus(path, "panel-csv")[0].entries == (PanelEntry(0, 2.0, 3),)
    for column, cell, fault in (
        ("total_citations", str(10**400), "does not fit in int64"),
        ("n_eprints", str(2**63), "does not fit in int64"),
        ("age", "1.0", "is not an integer"),
    ):
        row = dict(discipline="x", dataset_year=2019, age=0, n_eprints=1, total_citations=1)
        write_rows(path, [[*row.values()], [*{**row, "age": 1, column: cell}.values()]],
                   header=corpus_mod.PANEL_CSV_COLUMNS)
        with pytest.raises(DataError) as err:
            load_corpus(path, "panel-csv")
        assert str(err.value) == f"row 3: column {column!r} {fault}: {cell!r}"


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
