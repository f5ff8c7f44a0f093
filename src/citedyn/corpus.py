"""Eprint corpus ingestion and age-panel construction.

The corpus is held as columns. Each eprint has an id, a submission year
and a yearly citation vector indexed by age, stored as one slice of a
flat count array. Its disciplines are (eprint, discipline) index pairs
into a discipline table. Panels aggregate a discipline's eprints into
the mean-yearly-citations series u_i that the history-curve regression
consumes. All aggregation runs in exact integer arithmetic until the
final division.

A long-csv file is parsed by numpy's C reader. A file that reader
refuses is read again with csv.reader and int(), so a file loads exactly
when its integer cells follow int()'s grammar and fit in int64.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from ._csv import open_csv, write_csv
from .errors import DataError, DomainError, SchemaError

__all__ = [
    "EprintRecord",
    "CitationCorpus",
    "PercentileSummary",
    "PanelEntry",
    "AgePanel",
    "load_corpus",
    "percentile_summary",
    "build_age_panel",
    "build_trend_subsets",
    "write_long_csv",
    "write_panel_csv",
]

log = logging.getLogger(__name__)

LONG_CSV_COLUMNS = ("eprint_id", "discipline", "submit_year", "age", "citations_in_year")
PANEL_CSV_COLUMNS = ("discipline", "dataset_year", "age", "n_eprints", "total_citations")

# Earliest plausible submission year for the archives this schema models.
MIN_SUBMIT_YEAR = 1991

# Rows of id and discipline strings parsed at a time. Each chunk is turned
# into integer codes before the next is read, so the loader never holds
# the strings of the whole file.
_CHUNK_ROWS = 16_384

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class EprintRecord:
    """A single eprint: identity, tagging, and its yearly citation vector.

    yearly_citations[i] is the number of citations received at age i, i.e.
    during calendar year submit_year + i.
    """

    eprint_id: str
    disciplines: frozenset[str]
    submit_year: int
    yearly_citations: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "disciplines", frozenset(self.disciplines))
        object.__setattr__(self, "yearly_citations", tuple(int(c) for c in self.yearly_citations))
        if not self.disciplines:
            raise DataError(f"eprint {self.eprint_id}: discipline set is empty")
        if self.submit_year < MIN_SUBMIT_YEAR:
            raise DataError(
                f"eprint {self.eprint_id}: submit_year {self.submit_year} predates {MIN_SUBMIT_YEAR}"
            )
        if any(c < 0 for c in self.yearly_citations):
            raise DataError(f"eprint {self.eprint_id}: negative citation count")

    def citations_through(self, year: int) -> int:
        """Total citations accumulated through calendar year `year`."""
        horizon = year - self.submit_year + 1
        if horizon <= 0:
            return 0
        return sum(self.yearly_citations[:horizon])

    @property
    def lifetime_citations(self) -> int:
        return sum(self.yearly_citations)


def _horizon_error(eprint_id: str, submit_year: int, retrieval_year: int) -> DataError:
    return DataError(
        f"eprint {eprint_id}: submit_year {submit_year} exceeds retrieval_year {retrieval_year}"
    )


class CitationCorpus:
    """Immutable collection of eprints with a data horizon, held as columns.

    Eprint k has id `ids[k]`, submission year `submit_years[k]` and yearly
    citations `counts[offsets[k]:offsets[k + 1]]`, indexed by age. It is
    tagged with `discipline_names[member_disciplines[j]]` for every j with
    `member_eprints[j] == k`. The pairs are sorted, and `discipline_names`
    holds the disciplines in use, sorted. The arrays are int64 and
    read-only.

    `CitationCorpus(records, retrieval_year)` keeps the records' order;
    `load_corpus` orders eprints by id. `records` gives the eprints back
    as EprintRecords, built on first use.
    """

    _ARRAYS = ("submit_years", "offsets", "counts", "member_eprints", "member_disciplines")

    def __init__(self, records: Iterable[EprintRecord], retrieval_year: int):
        records = tuple(records)
        seen: set[str] = set()
        for rec in records:
            if rec.eprint_id in seen:
                raise DataError(f"duplicate eprint_id {rec.eprint_id!r}")
            seen.add(rec.eprint_id)
            if rec.submit_year > retrieval_year:
                raise _horizon_error(rec.eprint_id, rec.submit_year, retrieval_year)
        index: dict[str, int] = {}
        tag_codes = np.fromiter(
            (index.setdefault(name, len(index)) for rec in records for name in rec.disciplines),
            np.int64,
        )
        tag_table = list(index)
        perm, rank = _sort_table(tag_table)
        lengths = [len(rec.yearly_citations) for rec in records]
        try:
            years = np.fromiter((rec.submit_year for rec in records), np.int64, len(records))
            counts = np.fromiter(
                chain.from_iterable(rec.yearly_citations for rec in records), np.int64, sum(lengths)
            )
        except OverflowError:
            raise DataError("submit years and citation counts must fit in int64") from None
        member_eprints = np.repeat(np.arange(len(records)), [len(r.disciplines) for r in records])
        self._set_columns(
            ids=tuple(rec.eprint_id for rec in records),
            submit_years=years,
            offsets=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            counts=counts,
            discipline_names=tuple(tag_table[k] for k in perm.tolist()),
            **_memberships(member_eprints, rank[tag_codes], len(perm)),
            retrieval_year=retrieval_year,
        )
        self.__dict__["records"] = records

    @classmethod
    def _from_columns(cls, **columns) -> "CitationCorpus":
        corpus = cls.__new__(cls)
        corpus._set_columns(**columns)
        return corpus

    def _set_columns(self, *, ids, discipline_names, retrieval_year, **arrays):
        # Totals are taken from one running sum over `counts`, so the whole
        # corpus's citations must stay inside int64; 2**62 leaves room for
        # the float sum's rounding.
        if arrays["counts"].sum(dtype=np.float64) >= 2.0**62:
            raise DataError("citation counts must sum below 2**62")
        self.ids = ids
        self.discipline_names = discipline_names
        self.retrieval_year = retrieval_year
        for name in self._ARRAYS:
            array = np.asarray(arrays[name], dtype=np.int64)
            array.flags.writeable = False
            setattr(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, CitationCorpus):
            return NotImplemented
        return (
            self.retrieval_year == other.retrieval_year
            and self.ids == other.ids
            and self.discipline_names == other.discipline_names
            and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self._ARRAYS)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"CitationCorpus({len(self)} eprints, {len(self.discipline_names)} disciplines, "
                f"retrieval_year={self.retrieval_year})")

    def __len__(self) -> int:
        return len(self.ids)

    def _tag_lists(self) -> list[list[str]]:
        """Each eprint's discipline names, sorted."""
        tags: list[list[str]] = [[] for _ in self.ids]
        for k, d in zip(self.member_eprints.tolist(), self.member_disciplines.tolist()):
            tags[k].append(self.discipline_names[d])
        return tags

    @cached_property
    def records(self) -> tuple[EprintRecord, ...]:
        counts, offsets = self.counts.tolist(), self.offsets.tolist()
        return tuple(
            EprintRecord(eid, frozenset(tags), year, counts[offsets[k]:offsets[k + 1]])
            for k, (eid, tags, year) in enumerate(
                zip(self.ids, self._tag_lists(), self.submit_years.tolist())
            )
        )

    def members(self, discipline: str) -> np.ndarray:
        """Indices of the eprints tagged with `discipline`, in corpus order."""
        if discipline not in self.discipline_names:
            return np.empty(0, dtype=np.int64)
        code = self.discipline_names.index(discipline)
        return self.member_eprints[self.member_disciplines == code]

    def citation_totals(self, eprints: np.ndarray, through: int | None = None) -> np.ndarray:
        """Citations of each of `eprints` through calendar year `through`.

        through=None gives lifetime totals.
        """
        start, end = self.offsets[eprints], self.offsets[eprints + 1]
        if through is not None:
            end = np.clip(start + (through - self.submit_years[eprints] + 1), start, end)
        running = np.concatenate(([0], np.cumsum(self.counts)))
        return running[end] - running[start]

    def in_discipline(self, discipline: str) -> list[EprintRecord]:
        return [self.records[k] for k in self.members(discipline).tolist()]

    @property
    def disciplines(self) -> set[str]:
        return set(self.discipline_names)


@dataclass(frozen=True)
class PercentileSummary:
    """Threshold c_[p] and the count of eprints at or below it."""

    p: float
    threshold: int
    n_below: int


class PanelEntry(NamedTuple):
    t: int      # age in whole years
    u: float    # mean yearly citations at this age
    n: int      # eprints observable at this age


@dataclass(frozen=True)
class AgePanel:
    """Discipline-level mean yearly citations by eprint age.

    Ages with no observable eprint are omitted from entries and listed in
    missing_ages so downstream consumers see the gap instead of a silent
    zero. Entry ages plus missing ages are contiguous from 0.
    """

    discipline: str
    dataset_year: int
    percentile_cap: float | None
    entries: tuple[PanelEntry, ...]
    missing_ages: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(PanelEntry(*e) for e in self.entries))
        object.__setattr__(self, "missing_ages", tuple(self.missing_ages))
        if not self.entries:
            raise DataError(f"panel {self.discipline}/{self.dataset_year}: no entries")
        for e in self.entries:
            if e.u < 0:
                raise DataError(f"panel {self.discipline}: negative mean at age {e.t}")
            if e.n < 1:
                raise DataError(f"panel {self.discipline}: age {e.t} has no eprints")
        covered = sorted([e.t for e in self.entries] + list(self.missing_ages))
        if covered != list(range(len(covered))):
            raise DataError(
                f"panel {self.discipline}: ages {covered} not contiguous from 0"
            )

    @property
    def ages(self) -> list[int]:
        return [e.t for e in self.entries]

    @property
    def population(self) -> int:
        """Eprints contributing at age 0, i.e. everyone after the cap."""
        for e in self.entries:
            if e.t == 0:
                return e.n
        return 0


# --- ingestion -------------------------------------------------------------


def _parse_int(value: str, column: str, row_no: int) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise DataError(f"row {row_no}: column {column!r} is not an integer: {value!r}") from None


def _check_header(fieldnames, required: tuple[str, ...], path) -> None:
    present = set(fieldnames or ())
    missing = [c for c in required if c not in present]
    if missing:
        raise SchemaError(f"{path}: missing required columns {missing}")


def load_corpus(path, format: str, retrieval_year: int | None = None):
    """Load a corpus (long-csv) or a set of pre-built panels (panel-csv).

    Long format carries one row per (eprint, discipline, age); the same
    eprint may appear under several disciplines, with identical counts at
    each age. Gaps inside an eprint's age range are zero-filled with a
    logged warning; duplicates and conflicting counts are rejected with
    their row numbers. When retrieval_year is not given it is derived as
    the latest observed (submit_year + max age).

    Returns a CitationCorpus for "long-csv", a list of AgePanel for
    "panel-csv".
    """
    if format == "long-csv":
        return _load_long_csv(path, retrieval_year)
    if format == "panel-csv":
        return _load_panel_csv(path)
    raise SchemaError(f"unknown corpus format {format!r}")


class _Codes:
    """Integer codes for strings, numbered in order of first appearance.

    Strings are numbered as they arrive. `result` then strips surrounding
    whitespace and merges the codes of strings that strip alike; the
    merged codes keep first-appearance order.
    """

    def __init__(self):
        self._index: dict[str, int] = {}
        self._parts: list[np.ndarray] = []

    def add(self, values) -> None:
        # Rows usually come grouped by eprint, so only the first string of
        # each run of equal strings is looked up.
        values = np.asarray(values, dtype=object)
        heads = np.ones(len(values), dtype=bool)
        heads[1:] = values[1:] != values[:-1]
        index = self._index
        head_codes = np.fromiter(
            (index.setdefault(v, len(index)) for v in values[heads]), np.int64, int(heads.sum())
        )
        self._parts.append(head_codes[np.cumsum(heads) - 1])

    def result(self) -> tuple[np.ndarray, list[str]]:
        stripped: dict[str, int] = {}
        remap = np.fromiter(
            (stripped.setdefault(v.strip(), len(stripped)) for v in self._index),
            np.int64, len(self._index),
        )
        return remap[np.concatenate(self._parts)], list(stripped)


class _Rows(NamedTuple):
    """A long-csv file's data rows as columns, in file order.

    ids and discs are codes into id_table and disc_table, numbered in
    order of first appearance. `bad` is (row index, fault) for the first
    row with a cell that is not an int64, which is then the last row.
    """

    ids: np.ndarray
    id_table: list[str]
    discs: np.ndarray
    disc_table: list[str]
    years: np.ndarray
    ages: np.ndarray
    counts: np.ndarray
    bad: tuple[int, str] | None = None


def _loadtxt(fh, dtype, usecols, max_rows=None) -> np.ndarray:
    with warnings.catch_warnings():
        # Blank lines and a file without data rows are valid input here.
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # comments=None: an id may contain '#'.
        return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          usecols=usecols, max_rows=max_rows, ndmin=2)


def _read_rows(path, fh, columns) -> _Rows:
    """Data rows through numpy's C reader; ValueError if it refuses one.

    fh is positioned after the header. The integer columns come from one
    pass over a second handle, the strings from fh in chunks.
    """
    i_id, i_disc, *i_ints = columns
    with open_csv(path) as ints_fh:
        next(csv.reader(ints_fh))
        years, ages, counts = _loadtxt(ints_fh, np.int64, i_ints).T.copy()
    ids, discs = _Codes(), _Codes()
    while True:
        chunk = _loadtxt(fh, object, (i_id, i_disc), max_rows=_CHUNK_ROWS)
        ids.add(chunk[:, 0])
        discs.add(chunk[:, 1])
        if len(chunk) < _CHUNK_ROWS:
            break
    return _Rows(*ids.result(), *discs.result(), years, ages, counts)


def _int64_cell(value, column: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"column {column!r} is not an integer: {value!r}") from None
    if not _INT64.min <= number <= _INT64.max:
        raise ValueError(f"column {column!r} does not fit in int64: {value!r}")
    return number


def _reread_rows(path, columns, width: int) -> _Rows:
    """Data rows through csv.reader and int(), for a file numpy refused.

    Reading stops at the first row with a cell int() rejects or int64
    cannot hold. That row keeps its strings, reads 0 in its integer
    columns and is named in `bad`.
    """
    i_id, i_disc, *i_ints = columns
    ids, discs, ints = [], [], []
    bad = None
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            # Blank lines are skipped and not numbered; a short row reads its
            # missing cells as None. Both as csv.DictReader does.
            if not row:
                continue
            row += [None] * (width - len(row))
            ids.append(row[i_id] or "")
            discs.append(row[i_disc] or "")
            try:
                ints.append([_int64_cell(row[i], c) for i, c in zip(i_ints, LONG_CSV_COLUMNS[2:])])
            except ValueError as exc:
                ints.append([0, 0, 0])
                bad = (len(ints) - 1, str(exc))
                break
    id_codes, disc_codes = _Codes(), _Codes()
    id_codes.add(ids)
    disc_codes.add(discs)
    years, ages, counts = np.array(ints, dtype=np.int64).reshape(-1, 3).T.copy()
    return _Rows(*id_codes.result(), *disc_codes.result(), years, ages, counts, bad)


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


def _sort_table(table: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The codes of `table` in sorted order, and each code's sorted position."""
    perm = np.array(sorted(range(len(table)), key=table.__getitem__), dtype=np.int64)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))
    return perm, rank


def _memberships(eprints, disciplines, n_disciplines: int) -> dict[str, np.ndarray]:
    """The distinct (eprint, discipline) pairs among the given ones, sorted."""
    width = max(n_disciplines, 1)
    pairs = np.unique(eprints * width + disciplines)
    return {"member_eprints": pairs // width, "member_disciplines": pairs % width}


def _check_rows(rows: _Rows, first_row, order, new_pair) -> None:
    """Raise DataError for the first row the loader rejects.

    first_row holds each eprint's first row. order sorts the rows stably
    by (eprint, age, discipline), and new_pair marks where each
    (eprint, age) pair starts in that order. Each check is a mask over all
    rows. Conflicts are judged against the first row of the eprint or of
    the (eprint, age) pair: a sequential pass holds exactly that when it
    reaches a row, since it stops at its first fault. The earliest failing
    row wins; within it, the earliest check.
    """
    ids, discs, years, ages, counts = rows.ids, rows.discs, rows.years, rows.ages, rows.counts
    n = len(ids)
    earlier_year = years[first_row][ids]
    in_order = np.empty(n, dtype=np.int64)
    in_order[order] = np.arange(n)
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = ~new_pair[1:] & (discs[order][1:] == discs[order][:-1])
    duplicate = repeat[in_order]
    # Within a pair, rows are sorted by discipline code, so its first row in
    # the file is the lowest row index among them.
    first_of_pair = np.minimum.reduceat(order, np.flatnonzero(new_pair))
    known = counts[first_of_pair][np.cumsum(new_pair) - 1][in_order]
    empty_id = np.array([not s for s in rows.id_table], dtype=bool)
    empty_disc = np.array([not s for s in rows.disc_table], dtype=bool)

    def eid(r):
        return rows.id_table[ids[r]]

    checks = [
        (_first(empty_id[ids] | empty_disc[discs]), lambda r: "empty eprint_id or discipline"),
        (rows.bad[0] if rows.bad else None, lambda r: rows.bad[1]),
        (_first(ages < 0), lambda r: f"negative age {ages[r]}"),
        (_first(counts < 0), lambda r: f"negative citations_in_year {counts[r]}"),
        (_first(years < MIN_SUBMIT_YEAR),
         lambda r: f"submit_year {years[r]} predates {MIN_SUBMIT_YEAR}"),
        (_first(years != earlier_year),
         lambda r: f"eprint {eid(r)!r} submit_year {years[r]} conflicts "
                   f"with earlier value {earlier_year[r]}"),
        (_first(duplicate),
         lambda r: f"duplicate (eprint_id, discipline, age) = "
                   f"({eid(r)!r}, {rows.disc_table[discs[r]]!r}, {ages[r]})"),
        (_first(counts != known),
         lambda r: f"eprint {eid(r)!r} age {ages[r]} count {counts[r]} conflicts "
                   f"with {known[r]} from another discipline row"),
    ]
    failed = [(r, i) for i, (r, _) in enumerate(checks) if r is not None]
    if failed:
        r, i = min(failed)
        raise DataError(f"row {r + 2}: {checks[i][1](r)}")


def _load_long_csv(path, retrieval_year: int | None) -> CitationCorpus:
    with open_csv(path) as fh:
        header = next(csv.reader(fh), None)
        _check_header(header, LONG_CSV_COLUMNS, path)
        # A repeated column name reads its last occurrence, as csv.DictReader does.
        index = {name: i for i, name in enumerate(header)}
        columns = [index[c] for c in LONG_CSV_COLUMNS]
        try:
            rows = _read_rows(path, fh, columns)
        except ValueError:
            rows = None
    if rows is None:
        rows = _reread_rows(path, columns, len(header))

    ids, ages = rows.ids, rows.ages
    # Codes count up in order of first appearance, so each eprint's first
    # row is where the running maximum of the codes rises.
    first_row = np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))
    order = np.lexsort((rows.discs, ages, ids))  # stable: ties keep file order
    sorted_ids, sorted_ages = ids[order], ages[order]
    new_pair = np.ones(len(ids), dtype=bool)
    new_pair[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (sorted_ages[1:] != sorted_ages[:-1])
    _check_rows(rows, first_row, order, new_pair)
    if not len(ids):
        raise DataError(f"{path}: no data rows")

    # Eprints are ordered by id. Per eprint code: the highest age is on the
    # last of its sorted rows, and n_ages counts its distinct ages.
    perm, rank = _sort_table(rows.id_table)
    last_sorted = np.flatnonzero(np.append(sorted_ids[1:] != sorted_ids[:-1], True))
    n_ages = np.bincount(sorted_ids[new_pair], minlength=len(perm))
    lengths = sorted_ages[last_sorted][perm] + 1
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    pair_rows = order[new_pair]
    slots = offsets[rank[ids[pair_rows]]] + ages[pair_rows]
    counts = np.zeros(offsets[-1], dtype=np.int64)
    counts[slots] = rows.counts[pair_rows]
    submit_years = rows.years[first_row][perm]

    sorted_id_table = [rows.id_table[k] for k in perm.tolist()]
    gapped = np.flatnonzero(n_ages[perm] < lengths)
    if gapped.size:
        present = np.zeros(offsets[-1], dtype=bool)
        present[slots] = True
        for k in gapped.tolist():
            gaps = np.flatnonzero(~present[offsets[k]:offsets[k + 1]]).tolist()
            log.warning("eprint %s: ages %s absent from file, zero-filled", sorted_id_table[k], gaps)

    disc_perm, disc_rank = _sort_table(rows.disc_table)

    if retrieval_year is None:
        retrieval_year = int((submit_years + lengths - 1).max())
    late = _first(submit_years > retrieval_year)
    if late is not None:
        raise _horizon_error(sorted_id_table[late], submit_years[late], retrieval_year)
    return CitationCorpus._from_columns(
        ids=tuple(sorted_id_table),
        submit_years=submit_years,
        offsets=offsets,
        counts=counts,
        discipline_names=tuple(rows.disc_table[k] for k in disc_perm.tolist()),
        **_memberships(rank[ids], disc_rank[rows.discs], len(disc_perm)),
        retrieval_year=retrieval_year,
    )


def _load_panel_csv(path) -> list[AgePanel]:
    groups: dict[tuple[str, int], dict[int, tuple[int, int]]] = {}
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, PANEL_CSV_COLUMNS, path)
        for row_no, row in enumerate(reader, start=2):
            disc = (row.get("discipline") or "").strip()
            if not disc:
                raise DataError(f"row {row_no}: empty discipline")
            year = _parse_int(row["dataset_year"], "dataset_year", row_no)
            age = _parse_int(row["age"], "age", row_no)
            n = _parse_int(row["n_eprints"], "n_eprints", row_no)
            total = _parse_int(row["total_citations"], "total_citations", row_no)
            if age < 0:
                raise DataError(f"row {row_no}: negative age {age}")
            if n < 1:
                raise DataError(f"row {row_no}: n_eprints must be >= 1, got {n}")
            if total < 0:
                raise DataError(f"row {row_no}: negative total_citations {total}")
            ages = groups.setdefault((disc, year), {})
            if age in ages:
                raise DataError(f"row {row_no}: duplicate (discipline, dataset_year, age)")
            ages[age] = (n, total)

    if not groups:
        raise DataError(f"{path}: no data rows")

    panels = []
    for (disc, year), ages in sorted(groups.items()):
        max_age = max(ages)
        entries = [
            PanelEntry(t=a, u=ages[a][1] / ages[a][0], n=ages[a][0])
            for a in sorted(ages)
        ]
        missing = tuple(a for a in range(max_age + 1) if a not in ages)
        if missing:
            log.warning("panel %s/%s: ages %s missing", disc, year, list(missing))
        panels.append(
            AgePanel(
                discipline=disc,
                dataset_year=year,
                percentile_cap=None,
                entries=tuple(entries),
                missing_ages=missing,
            )
        )
    return panels


# --- aggregation -----------------------------------------------------------


def _threshold_scan(totals: np.ndarray, p: float) -> tuple[int, int]:
    """Smallest observed total c with fraction(c_k <= c) >= p, and that count."""
    totals = np.sort(totals)
    at_or_below = np.searchsorted(totals, totals, side="right")
    reached = _first(at_or_below / totals.size >= p)
    i = totals.size - 1 if reached is None else reached
    return int(totals[i]), int(at_or_below[i])


def percentile_summary(corpus: CitationCorpus, discipline: str, p: float) -> PercentileSummary:
    """Citation threshold at percentile p for one discipline.

    The threshold is the smallest citation total c such that the fraction
    of the discipline's eprints with c_k <= c reaches p; n_below counts
    those eprints. Lifetime totals (through the retrieval year) are used.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"percentile must lie in (0, 1], got {p}")
    members = corpus.members(discipline)
    if not members.size:
        raise DataError(f"no eprints in discipline {discipline!r}")
    threshold, n_below = _threshold_scan(corpus.citation_totals(members), p)
    return PercentileSummary(p=p, threshold=threshold, n_below=n_below)


def build_age_panel(
    corpus: CitationCorpus,
    discipline: str,
    dataset_year: int,
    percentile_cap: float,
    max_age: int,
) -> AgePanel:
    """Aggregate a discipline's records into the u_i series at one cut year.

    Includes eprints submitted in or before dataset_year; their citation
    totals through the cut determine the percentile cap, computed on this
    filtered population. Each surviving eprint contributes at ages
    0..(dataset_year - submit_year); u_i is the integer citation sum at
    age i divided by the number of eprints observable at that age.
    """
    if dataset_year > corpus.retrieval_year:
        raise DomainError(
            f"dataset_year {dataset_year} exceeds retrieval_year {corpus.retrieval_year}"
        )
    if max_age < 1:
        raise DomainError(f"max_age must be >= 1, got {max_age}")
    if not 0.0 < percentile_cap <= 1.0:
        raise DomainError(f"percentile_cap must lie in (0, 1], got {percentile_cap}")

    members = corpus.members(discipline)
    members = members[corpus.submit_years[members] <= dataset_year]
    if not members.size:
        raise DataError(
            f"no eprints in {discipline!r} submitted by {dataset_year}"
        )
    totals = corpus.citation_totals(members, through=dataset_year)
    threshold, _ = _threshold_scan(totals, percentile_cap)
    kept = members[totals <= threshold]

    # An eprint is observable at ages 0..span and has counts at ages below
    # its vector's length; the counts summed per age are those at ages
    # 0..min(span, length - 1, max_age).
    span = dataset_year - corpus.submit_years[kept]
    start = corpus.offsets[kept]
    n_counted = np.clip(np.minimum(span, corpus.offsets[kept + 1] - start - 1), -1, max_age) + 1
    age = np.arange(n_counted.sum()) - np.repeat(np.cumsum(n_counted) - n_counted, n_counted)
    totals_by_age = np.zeros(max_age + 1, dtype=np.int64)
    np.add.at(totals_by_age, age, corpus.counts[np.repeat(start, n_counted) + age])
    observable = np.cumsum(np.bincount(np.minimum(span, max_age), minlength=max_age + 1)[::-1])[::-1]

    entries: list[PanelEntry] = []
    missing: list[int] = []
    for t, (total, n) in enumerate(zip(totals_by_age.tolist(), observable.tolist())):
        if n:
            entries.append(PanelEntry(t=t, u=total / n, n=n))
        else:
            missing.append(t)
    if missing:
        log.warning(
            "panel %s/%s: no eprints observable at ages %s", discipline, dataset_year, missing
        )
    return AgePanel(
        discipline=discipline,
        dataset_year=dataset_year,
        percentile_cap=percentile_cap,
        entries=tuple(entries),
        missing_ages=tuple(missing),
    )


def build_trend_subsets(
    corpus: CitationCorpus,
    discipline: str,
    first_year: int,
    last_year: int,
    percentile_cap: float,
    *,
    max_age: int | None = None,
) -> list[AgePanel]:
    """One independently capped panel per dataset year in [first, last].

    max_age=None sizes each panel to its own full window (dataset year
    minus the earliest included submission year).
    """
    if first_year > last_year:
        raise DomainError(f"first_year {first_year} exceeds last_year {last_year}")
    if last_year > corpus.retrieval_year:
        raise DomainError(
            f"last_year {last_year} exceeds retrieval_year {corpus.retrieval_year}"
        )
    submits = corpus.submit_years[corpus.members(discipline)]
    panels = []
    for year in range(first_year, last_year + 1):
        if max_age is None:
            included = submits[submits <= year]
            if not included.size:
                raise DataError(f"no eprints in {discipline!r} submitted by {year}")
            age_span = max(1, year - int(included.min()))
        else:
            age_span = max_age
        panels.append(
            build_age_panel(corpus, discipline, year, percentile_cap, age_span)
        )
    return panels


# --- serialization ---------------------------------------------------------


def write_long_csv(corpus: CitationCorpus, path) -> None:
    """Write the corpus in long format, one row per (eprint, discipline, age)."""
    counts, offsets = corpus.counts.tolist(), corpus.offsets.tolist()
    write_csv(path, LONG_CSV_COLUMNS, (
        (eid, disc, year, age, counts[offsets[k] + age])
        for k, (eid, tags, year) in enumerate(
            zip(corpus.ids, corpus._tag_lists(), corpus.submit_years.tolist())
        )
        for disc in tags
        for age in range(offsets[k + 1] - offsets[k])
    ))


def write_panel_csv(panels: Iterable[AgePanel], path) -> None:
    """Write panels in the aggregate format; totals reconstructed exactly."""
    # u was produced by a single integer division, so u*n rounds back to the
    # exact integer total.
    write_csv(path, PANEL_CSV_COLUMNS, (
        (panel.discipline, panel.dataset_year, e.t, e.n, round(e.u * e.n))
        for panel in panels
        for e in panel.entries
    ))
