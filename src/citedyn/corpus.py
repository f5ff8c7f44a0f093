"""Eprint corpus ingestion and age-panel construction.

The corpus is held as columns. Each eprint has an id, a submission year
and a yearly citation vector indexed by age, stored as one slice of a
flat count array. Its disciplines are (eprint, discipline) index pairs
into a discipline table. Panels aggregate a discipline's eprints into
the mean-yearly-citations series u_i that the history-curve regression
consumes. All aggregation runs in exact integer arithmetic until the
final division.

Both file formats take an integer cell exactly when it follows int()'s
grammar and fits in int64. `_reread_rows` states the long-csv row rules
in the order they are checked; a load reports the earliest faulty row,
and within it the first rule listed. numpy's C reader parses a long-csv
file in one chunked pass and hands its columns to `_assemble`, which
builds the corpus columns by scatter writes and checks every row against
what it wrote. A file that reader refuses, or that has a faulty row, is
read again by `_reread_rows`, which names the row or hands its own
columns to `_assemble`.

A long-csv load holds the strings of one chunk of rows at a time, and
each data row once, in compact columns: int32 codes for the id and the
discipline, an int32 year and age and an int64 count, 24 bytes in all.
Each column is freed once it is used. The traced peak of a load is about
45 bytes per data row on a 246,000-row file and 70 on a 65,000-row one,
where one chunk's strings weigh more.
"""

from __future__ import annotations

import csv
import datetime
import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from ._csv import create_csv, open_csv, row_formatter, write_csv
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
# Latest calendar year a row may date its citations to (submit_year + age).
MAX_YEAR = datetime.MAXYEAR

# Long-csv rows parsed at a time. Each chunk's strings are turned into
# integer codes before the next is read, so the loader never holds the
# strings of the whole file.
_CHUNK_ROWS = 16_384

# A long-csv row as numpy's reader parses it, in LONG_CSV_COLUMNS order:
# the two strings, then the three integers as one field.
_ROW_DTYPE = np.dtype([("id", object), ("disc", object), ("ints", np.int64, 3)])

_INT32 = np.iinfo(np.int32)
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class EprintRecord:
    """A single eprint: identity, tagging, and its yearly citation vector.

    yearly_citations[i] is the number of citations received at age i, i.e.
    during calendar year submit_year + i. A record is a plain value; the
    CitationCorpus built from it checks it.
    """

    eprint_id: str
    disciplines: frozenset[str]
    submit_year: int
    yearly_citations: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "disciplines", frozenset(self.disciplines))
        object.__setattr__(self, "yearly_citations", tuple(self.yearly_citations))


class CitationCorpus:
    """Immutable collection of eprints with a data horizon, held as columns.

    Eprint k has id `ids[k]`, submission year `submit_years[k]` and yearly
    citations `counts[offsets[k]:offsets[k + 1]]`, indexed by age. It is
    tagged with `discipline_names[member_disciplines[j]]` for every j with
    `member_eprints[j] == k`. The arrays are int64 and read-only.

    Every constructor goes through `_set_columns`. It raises DataError,
    naming the eprint or discipline at fault, for the first invariant
    broken of these, checked in order:

    1. there is an eprint, and the columns' lengths agree with `ids`;
    2. ids are strings, non-empty, unchanged by strip(), free of '\\r' and
       unique;
    3. discipline names keep the same rules and are sorted;
    4. offsets start at 0, end at len(counts) and rise by at least 1 per
       eprint, so every eprint has an age;
    5. counts are integers in int64, never negative, summing below 2**62;
    6. retrieval_year and the submit years are integers in int64, each
       submit year lies in [MIN_SUBMIT_YEAR, retrieval_year], and no
       eprint's last age is dated after retrieval_year;
    7. every eprint has a discipline;
    8. the (eprint, discipline) pairs are in range, sorted and unique, and
       every discipline has an eprint.

    A float or a string is refused where an integer belongs, even when it
    is whole. Under these invariants `load_corpus` reads what
    `write_long_csv` writes back as an equal corpus.
    `CitationCorpus(records, retrieval_year)` keeps the records' order, so
    sorted ids are not an invariant; `load_corpus` orders eprints by id.
    `records` gives the eprints back as EprintRecords, built from the
    columns on first use.
    """

    _ARRAYS = ("submit_years", "offsets", "counts", "member_eprints", "member_disciplines")

    def __init__(self, records: Iterable[EprintRecord], retrieval_year: int):
        records = tuple(records)
        # key=str: a name that is not a string still sorts; _set_columns refuses it.
        table = sorted({name for rec in records for name in rec.disciplines}, key=str)
        code = {name: c for c, name in enumerate(table)}
        self._set_columns(
            ids=tuple(rec.eprint_id for rec in records),
            submit_years=[rec.submit_year for rec in records],
            offsets=np.cumsum([0, *(len(rec.yearly_citations) for rec in records)]),
            counts=list(chain.from_iterable(rec.yearly_citations for rec in records)),
            discipline_names=tuple(table),
            **_memberships(
                np.repeat(np.arange(len(records)), [len(rec.disciplines) for rec in records]),
                np.fromiter((code[name] for rec in records for name in rec.disciplines), np.int64),
                len(table),
            ),
            retrieval_year=retrieval_year,
        )

    @classmethod
    def _from_columns(cls, **columns) -> "CitationCorpus":
        corpus = cls.__new__(cls)
        corpus._set_columns(**columns)
        return corpus

    def _set_columns(self, *, ids, submit_years, offsets, counts, discipline_names,
                     member_eprints, member_disciplines, retrieval_year):
        """Check the columns against the invariants above, in order, and keep them."""
        ids, names = tuple(ids), tuple(discipline_names)
        n = len(ids)
        if not n:
            raise DataError("corpus holds no eprints")
        if (len(offsets), len(submit_years), len(member_eprints)) != (
                n + 1, n, len(member_disciplines)):
            raise DataError(f"column lengths disagree with the {n} ids")
        _check_names(ids, "eprint", "eprint_id")
        _check_names(names, "discipline", "name")
        _refuse([a > b for a, b in zip(names, names[1:])],
                lambda d: f"discipline {names[d + 1]!r}: sorts before {names[d]!r}")

        def eprint(k):
            return f"eprint {ids[k]}"

        offsets = _int64s(offsets, "offset", lambda j: eprint(min(j, n - 1)))
        if offsets[0] != 0 or offsets[-1] != len(counts):
            raise DataError(f"offsets run from {offsets[0]} to {offsets[-1]}, "
                            f"not from 0 to {len(counts)}")

        def owner(j):  # the eprint whose counts hold position j
            return int(np.searchsorted(offsets, j, side="right")) - 1

        lengths = np.diff(offsets)
        _refuse(lengths < 1, lambda k: eprint(k) + (
            ": offsets decrease" if lengths[k] else ": no yearly citation counts"))
        counts = _int64s(counts, "citation count", lambda j: eprint(owner(j)))
        _refuse(counts < 0, lambda j: f"{eprint(owner(j))}: negative citation count "
                                      f"{counts[j]} at age {j - offsets[owner(j)]}")
        # Totals are taken from one running sum over `counts`, so the whole
        # corpus's citations must stay inside int64; 2**62 leaves room for
        # the float sum's rounding.
        if counts.sum(dtype=np.float64) >= 2.0**62:
            raise DataError("citation counts must sum below 2**62")

        retrieval_year = int(_int64s([retrieval_year], "retrieval_year", lambda j: "corpus")[0])
        years = _int64s(submit_years, "submit_year", eprint)
        _refuse(years < MIN_SUBMIT_YEAR,
                lambda k: f"{eprint(k)}: submit_year {years[k]} predates {MIN_SUBMIT_YEAR}")
        _refuse(years > retrieval_year, lambda k: f"{eprint(k)}: submit_year {years[k]} "
                                                  f"exceeds retrieval_year {retrieval_year}")
        _refuse(lengths - 1 > retrieval_year - years, lambda k: (
            f"{eprint(k)}: age {lengths[k] - 1} dates citations to "
            f"{years[k] + lengths[k] - 1}, past retrieval_year {retrieval_year}"))

        members = _int64s(member_eprints, "member eprint", lambda j: f"membership {j}")
        tags = _int64s(member_disciplines, "member discipline", lambda j: f"membership {j}")
        _refuse(~np.isin(np.arange(n), members), lambda k: f"{eprint(k)}: discipline set is empty")
        _refuse((members < 0) | (members >= n) | (tags < 0) | (tags >= len(names)),
                lambda j: f"membership {j}: ({members[j]}, {tags[j]}) out of range")
        _refuse(np.diff(members * len(names) + tags) < 1,
                lambda j: f"{eprint(members[j + 1])}: memberships not sorted and unique")
        _refuse(~np.isin(np.arange(len(names)), tags),
                lambda d: f"discipline {names[d]!r}: no eprint is tagged with it")

        self.ids, self.discipline_names, self.retrieval_year = ids, names, retrieval_year
        for name, array in zip(self._ARRAYS, (years, offsets, counts, members, tags)):
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
            EprintRecord(eid, frozenset(tags), year, counts[start:end])
            for eid, tags, year, start, end in zip(
                self.ids, self._tag_lists(), self.submit_years.tolist(), offsets, offsets[1:])
        )

    def members(self, discipline: str) -> np.ndarray:
        """Indices of the eprints tagged with `discipline`, in corpus order.

        Every discipline the corpus names tags at least one eprint, so the
        result is never empty; a name the corpus does not hold raises
        DataError.
        """
        if discipline not in self.discipline_names:
            raise DataError(f"no eprints in discipline {discipline!r}")
        code = self.discipline_names.index(discipline)
        return self.member_eprints[self.member_disciplines == code]

    def citation_totals(self, eprints: np.ndarray, through: int | None = None) -> np.ndarray:
        """Citations of each of `eprints` through calendar year `through`.

        through=None gives lifetime totals; a year past the retrieval year
        raises DomainError, since the data end there, and so does a year
        before MIN_SUBMIT_YEAR, since no eprint is submitted earlier.
        """
        start, end = self.offsets[eprints], self.offsets[eprints + 1]
        if through is not None:
            if through > self.retrieval_year:
                raise DomainError(f"dataset_year {through} exceeds retrieval_year "
                                  f"{self.retrieval_year}")
            if through < MIN_SUBMIT_YEAR:
                raise DomainError(f"dataset_year {through} predates {MIN_SUBMIT_YEAR}")
            end = np.clip(start + (through - self.submit_years[eprints] + 1), start, end)
        running = np.concatenate(([0], np.cumsum(self.counts)))
        return running[end] - running[start]


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
    percentile_cap is None when unknown (a panel-csv) and otherwise lies
    in (0, 1].
    """

    discipline: str
    dataset_year: int
    percentile_cap: float | None
    entries: tuple[PanelEntry, ...]
    missing_ages: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(PanelEntry(*e) for e in self.entries))
        object.__setattr__(self, "missing_ages", tuple(self.missing_ages))
        cap = self.percentile_cap
        if cap is not None and not 0.0 < cap <= 1.0:
            raise DomainError(f"percentile_cap must lie in (0, 1], got {cap}")
        if not self.entries:
            raise DataError(f"panel {self.discipline}/{self.dataset_year}: no entries")
        for e in self.entries:
            if e.u < 0:
                raise DataError(f"panel {self.discipline}: negative mean at age {e.t}")
            if e.n < 1:
                raise DataError(f"panel {self.discipline}: age {e.t} has no eprints")
        covered = sorted([e.t for e in self.entries] + list(self.missing_ages))
        if covered != list(range(len(covered))):
            raise DataError(f"panel {self.discipline}: ages {covered} not contiguous from 0")

    @property
    def ages(self) -> list[int]:
        return [e.t for e in self.entries]

    @property
    def population(self) -> int:
        """Eprints contributing at age 0, i.e. everyone after the cap."""
        return next((e.n for e in self.entries if e.t == 0), 0)


# --- ingestion -------------------------------------------------------------


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
    the latest observed (submit_year + max age). Panels carry their own
    dataset years, so retrieval_year with "panel-csv" raises DomainError.

    Returns a CitationCorpus for "long-csv", a list of AgePanel for
    "panel-csv".
    """
    if format == "long-csv":
        return _load_long_csv(path, retrieval_year)
    if format == "panel-csv":
        if retrieval_year is not None:
            raise DomainError("retrieval_year applies only to long-csv input")
        return _load_panel_csv(path)
    raise SchemaError(f"unknown corpus format {format!r}")


class _Codes:
    """Integer codes for strings, numbered in sorted order of the stripped strings.

    Surrounding whitespace is stripped, so strings that strip alike share
    a code. `add` numbers each new name where it first appears; `result`
    renumbers the codes by sorted name. Codes are int32 while the table
    fits them, so a row's code takes four bytes.
    """

    def __init__(self):
        self._index: dict[str, int] = {}  # each string, as read and stripped -> code
        self._names: list[str] = []       # each stripped string, by code
        self._parts: list[np.ndarray] = []

    def _code(self, value: str) -> int:
        code = self._index.get(value)
        if code is None:
            name = value.strip()
            code = self._index.get(name)
            if code is None:
                code = self._index[name] = len(self._names)
                self._names.append(name)
            self._index[value] = code
        return code

    def add(self, values) -> None:
        # Rows usually come grouped by eprint, so only the first string of
        # each run of equal strings is looked up.
        values = np.asarray(values, dtype=object)
        heads = np.ones(len(values), dtype=bool)
        heads[1:] = values[1:] != values[:-1]
        n_heads = int(heads.sum())
        # np.concatenate widens the earlier parts if a later one needs int64.
        dtype = np.int32 if len(self._names) + n_heads <= _INT32.max else np.int64
        head_codes = np.fromiter(map(self._code, values[heads]), dtype, n_heads)
        self._parts.append(head_codes[np.cumsum(heads) - 1])

    def result(self) -> tuple[np.ndarray, list[str]]:
        """Every code added, in order, as a position in the sorted table; and
        that table. The parts are renumbered one at a time, then joined."""
        order = sorted(range(len(self._names)), key=self._names.__getitem__)
        rank = np.empty(len(order), np.int32 if len(order) <= _INT32.max else np.int64)
        rank[order] = np.arange(len(order))
        for i, part in enumerate(self._parts):
            self._parts[i] = rank[part]
        return _join(self._parts), [self._names[k] for k in order]


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end; the list is emptied, so each part is freed."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _read_rows(fh, columns) -> dict | None:
    """`_assemble` of the data rows through numpy's C reader; ValueError if
    that reader refuses one.

    fh is positioned after the header and read once, _CHUNK_ROWS rows at a
    time. Each chunk's strings are coded and its integers copied out, one
    column at a time, before the next chunk is read. Years and ages are
    held as int32, so a chunk with a year or an age outside [0, MAX_YEAR]
    is a ValueError too; such a row breaks a rule of `_reread_rows`.
    """
    ids, discs = _Codes(), _Codes()
    years, ages, counts = [], [], []
    n_read = _CHUNK_ROWS
    while n_read == _CHUNK_ROWS:
        with warnings.catch_warnings():
            # Blank lines and a file without data rows are valid input here.
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: an id may contain '#'.
            chunk = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", quotechar='"', comments=None,
                               usecols=columns, max_rows=_CHUNK_ROWS, ndmin=1)
        dates = chunk["ints"][:, :2]
        if ((dates < 0) | (dates > MAX_YEAR)).any():
            raise ValueError(f"a year or an age outside [0, {MAX_YEAR}]")
        ids.add(chunk["id"])
        discs.add(chunk["disc"])
        years.append(dates[:, 0].astype(np.int32))
        ages.append(dates[:, 1].astype(np.int32))
        counts.append(chunk["ints"][:, 2].copy())
        n_read = len(chunk)
        del chunk, dates  # before the next chunk is read
    return _assemble(ids, discs, _join(years), _join(ages), _join(counts))


def _int64_cell(value, column: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"column {column!r} is not an integer: {value!r}") from None
    if not _INT64.min <= number <= _INT64.max:
        raise ValueError(f"column {column!r} does not fit in int64: {value!r}")
    return number


def _reread_rows(path, columns, width: int) -> dict:
    """`_assemble` of the data rows through csv.reader and int(), checked in
    file order.

    A row is faulty, by the first of these rules it breaks, if: its
    eprint_id or discipline is empty (after stripping, as they are
    compared); an integer cell is not an int64 by int()'s grammar; its age
    or citations_in_year is negative; its submit_year predates
    MIN_SUBMIT_YEAR; its submit_year + age passes MAX_YEAR; its
    submit_year differs from an earlier row of the eprint; it repeats an
    earlier row's (eprint_id, discipline, age); or its count differs from
    an earlier row's of the same (eprint_id, age). The earliest faulty row
    raises DataError.
    """
    i_id, i_disc, *i_ints = columns
    int_cells = list(zip(i_ints, LONG_CSV_COLUMNS[2:]))
    ids, discs, ints = [], [], []
    years: dict[str, int] = {}
    counts: dict[tuple[str, int], int] = {}
    seen: set[tuple[str, str, int]] = set()
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        # Blank lines are skipped and not numbered; a short row reads its
        # missing cells as None. Both as csv.DictReader does.
        for row_no, row in enumerate(filter(None, reader), start=2):
            row += [None] * (width - len(row))
            eid, disc = (row[i_id] or "").strip(), (row[i_disc] or "").strip()
            try:
                if not eid or not disc:
                    raise ValueError("empty eprint_id or discipline")
                year, age, count = (_int64_cell(row[i], c) for i, c in int_cells)
                if age < 0:
                    raise ValueError(f"negative age {age}")
                if count < 0:
                    raise ValueError(f"negative citations_in_year {count}")
                if year < MIN_SUBMIT_YEAR:
                    raise ValueError(f"submit_year {year} predates {MIN_SUBMIT_YEAR}")
                if age > MAX_YEAR - year:
                    raise ValueError(f"submit_year {year} + age {age} passes year {MAX_YEAR}")
                if years.setdefault(eid, year) != year:
                    raise ValueError(f"eprint {eid!r} submit_year {year} conflicts "
                                     f"with earlier value {years[eid]}")
                if (eid, disc, age) in seen:
                    raise ValueError(f"duplicate (eprint_id, discipline, age) = "
                                     f"({eid!r}, {disc!r}, {age})")
                seen.add((eid, disc, age))
                if counts.setdefault((eid, age), count) != count:
                    raise ValueError(f"eprint {eid!r} age {age} count {count} conflicts "
                                     f"with {counts[eid, age]} from another discipline row")
            except ValueError as exc:
                raise DataError(f"row {row_no}: {exc}") from None
            ids.append(eid)
            discs.append(disc)
            ints.append((year, age, count))
    id_codes, disc_codes = _Codes(), _Codes()
    id_codes.add(ids)
    disc_codes.add(discs)
    return _assemble(id_codes, disc_codes, *np.array(ints, dtype=np.int64).reshape(-1, 3).T)


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


def _refuse(mask, message) -> None:
    """Raise DataError(message(k)) for the first k where mask holds."""
    k = _first(np.asarray(mask, dtype=bool))
    if k is not None:
        raise DataError(message(k))


def _check_names(names: tuple, kind: str, field: str) -> None:
    """Refuse the first name that breaks invariant 2 of CitationCorpus, by the
    first rule it breaks. The loader strips names, and csv.writer leaves a
    bare '\\r' unquoted, so a name that breaks one would not survive an echo."""
    seen: set[str] = set()
    for name in names:
        fault = ("is not a string" if not isinstance(name, str) else "is empty" if not name
                 else "has surrounding whitespace" if name != name.strip()
                 else "holds a carriage return" if "\r" in name
                 else "is a duplicate" if name in seen else None)
        if fault:
            raise DataError(f"{kind} {name!r}: {field} {fault}")
        seen.add(name)


def _int64s(values, what: str, owner) -> np.ndarray:
    """`values` as a flat int64 array, or a DataError naming owner(j) for
    the first value j that is not an integer in int64; a whole float too."""
    array = np.asarray(values)
    if array.ndim == 1 and array.dtype.kind == "i":
        return array.astype(np.int64, copy=False)
    for j, value in enumerate(array.tolist() if isinstance(values, np.ndarray) else values):
        if not isinstance(value, (int, np.integer)):
            raise DataError(f"{owner(j)}: {what} {value!r} is not an integer")
        if not _INT64.min <= value <= _INT64.max:
            raise DataError(f"{owner(j)}: {what} {value} must fit in int64")
    return array.astype(np.int64)


def _memberships(eprints, disciplines, n_disciplines: int) -> dict[str, np.ndarray]:
    """The distinct (eprint, discipline) pairs among the given ones, sorted.

    A file's rows come grouped by (eprint, discipline), so only the first
    pair of each run of equal neighbours is sorted.
    """
    eprints, disciplines = np.asarray(eprints), np.asarray(disciplines)
    heads = np.ones(len(eprints), dtype=bool)
    heads[1:] = (eprints[1:] != eprints[:-1]) | (disciplines[1:] != disciplines[:-1])
    width = max(n_disciplines, 1)
    pairs = np.unique(eprints[heads].astype(np.int64) * width + disciplines[heads])
    return {"member_eprints": pairs // width, "member_disciplines": pairs % width}


def _assemble(id_codes: _Codes, disc_codes: _Codes, years, ages, row_counts) -> dict | None:
    """The corpus columns, all but retrieval_year, of a long-csv file's data
    rows in any order; None if a row breaks a rule of `_reread_rows`.

    Every integer is an int64 by int()'s grammar, with years and ages in
    [0, MAX_YEAR] and of one dtype, which keeps np.maximum.at on numpy's
    fast path; the other rules are checked here. Codes number the sorted
    names, so eprint k is id code k and discipline d is discipline code d.
    Each row writes its submit_year to its eprint and its count to its
    eprint's slot for its age, and must read both back. Each column is
    deleted once it is used, and the zero-fill warnings are logged only
    once every row has passed.
    """
    ids, id_table = id_codes.result()
    discs, disc_table = disc_codes.result()
    if ("" in id_table or "" in disc_table or (row_counts < 0).any()
            or (years < MIN_SUBMIT_YEAR).any() or (ages > MAX_YEAR - years).any()):
        return None

    # Eprint k's counts fill slots offsets[k] to offsets[k + 1] - 1, one per
    # age up to its last.
    last_ages = np.zeros(len(id_table), ages.dtype)
    np.maximum.at(last_ages, ids, ages)
    offsets = np.concatenate(([0], np.cumsum(last_ages + 1, dtype=np.int64)))
    del last_ages
    slots = offsets[ids]
    slots += ages
    del ages

    submit_years = np.zeros(len(id_table), years.dtype)
    submit_years[ids] = years
    if (submit_years[ids] != years).any():  # an eprint's rows disagree on its year
        return None
    del years

    # A row repeats an (eprint_id, discipline, age) when its (slot,
    # discipline) key repeats. Keys below offsets[-1] * len(disc_table) are
    # int64; past that range, they are Python ints.
    width = len(disc_table)
    keys = slots.astype(np.int64 if int(offsets[-1]) * width <= _INT64.max else object)
    keys *= width
    keys += discs
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    del keys
    memberships = _memberships(ids, discs, width)
    del ids, discs

    counts = np.zeros(offsets[-1], dtype=np.int64)
    counts[slots] = row_counts
    if (counts[slots] != row_counts).any():  # two rows of an (eprint, age) disagree
        return None
    del row_counts

    present = np.zeros(len(counts), dtype=bool)
    present[slots] = True
    del slots
    gapped = np.unique(np.searchsorted(offsets, np.flatnonzero(~present), side="right") - 1)
    for k in gapped.tolist():
        gaps = np.flatnonzero(~present[offsets[k]:offsets[k + 1]]).tolist()
        log.warning("eprint %s: ages %s absent from file, zero-filled", id_table[k], gaps)
    return dict(ids=tuple(id_table), submit_years=submit_years, offsets=offsets, counts=counts,
                discipline_names=tuple(disc_table), **memberships)


def _load_long_csv(path, retrieval_year: int | None) -> CitationCorpus:
    with open_csv(path) as fh:
        header = next(csv.reader(fh), None)
        _check_header(header, LONG_CSV_COLUMNS, path)
        # A repeated column name reads its last occurrence, as csv.DictReader does.
        index = {name: i for i, name in enumerate(header)}
        columns = [index[c] for c in LONG_CSV_COLUMNS]
        try:
            assembled = _read_rows(fh, columns)
        except ValueError:
            assembled = None
    if assembled is None:  # numpy's reader refused a row, or a row breaks a rule
        assembled = _reread_rows(path, columns, len(header))
    if not assembled["ids"]:
        raise DataError(f"{path}: no data rows")
    if retrieval_year is None:
        last_ages = np.diff(assembled["offsets"]) - 1
        retrieval_year = int((assembled["submit_years"] + last_ages).max())
    return CitationCorpus._from_columns(**assembled, retrieval_year=retrieval_year)


def _load_panel_csv(path) -> list[AgePanel]:
    groups: dict[tuple[str, int], dict[int, tuple[int, int]]] = {}
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, PANEL_CSV_COLUMNS, path)
        for row_no, row in enumerate(reader, start=2):
            disc = (row.get("discipline") or "").strip()
            try:
                if not disc:
                    raise ValueError("empty discipline")
                year, age, n, total = (_int64_cell(row[c], c) for c in PANEL_CSV_COLUMNS[1:])
                if age < 0:
                    raise ValueError(f"negative age {age}")
                if n < 1:
                    raise ValueError(f"n_eprints must be >= 1, got {n}")
                if total < 0:
                    raise ValueError(f"negative total_citations {total}")
                if age in groups.setdefault((disc, year), {}):
                    raise ValueError("duplicate (discipline, dataset_year, age)")
            except ValueError as exc:
                raise DataError(f"row {row_no}: {exc}") from None
            groups[disc, year][age] = (n, total)

    if not groups:
        raise DataError(f"{path}: no data rows")

    panels = []
    for (disc, year), ages in sorted(groups.items()):
        missing = [a for a in range(max(ages) + 1) if a not in ages]
        if missing:
            log.warning("panel %s/%s: ages %s missing", disc, year, missing)
        entries = [PanelEntry(t=a, u=total / n, n=n) for a, (n, total) in sorted(ages.items())]
        panels.append(AgePanel(discipline=disc, dataset_year=year, percentile_cap=None,
                               entries=entries, missing_ages=missing))
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
    threshold, n_below = _threshold_scan(corpus.citation_totals(members), p)
    return PercentileSummary(p=p, threshold=threshold, n_below=n_below)


def build_age_panel(corpus: CitationCorpus, discipline: str, dataset_year: int,
                    percentile_cap: float, max_age: int) -> AgePanel:
    """Aggregate a discipline's records into the u_i series at one cut year.

    Includes eprints submitted in or before dataset_year; their citation
    totals through the cut determine the percentile cap, computed on this
    filtered population. Each surviving eprint contributes at ages
    0..(dataset_year - submit_year); u_i is the integer citation sum at
    age i divided by the number of eprints observable at that age.
    max_age lies in [1, MAX_YEAR - MIN_SUBMIT_YEAR]: no eprint can reach an
    older age.
    """
    if dataset_year > corpus.retrieval_year:
        raise DomainError(f"dataset_year {dataset_year} exceeds retrieval_year "
                          f"{corpus.retrieval_year}")
    if not 1 <= max_age <= MAX_YEAR - MIN_SUBMIT_YEAR:
        raise DomainError(f"max_age must lie in [1, {MAX_YEAR - MIN_SUBMIT_YEAR}], got {max_age}")
    if not 0.0 < percentile_cap <= 1.0:
        raise DomainError(f"percentile_cap must lie in (0, 1], got {percentile_cap}")

    members = corpus.members(discipline)
    members = members[corpus.submit_years[members] <= dataset_year]
    if not members.size:
        raise DataError(f"no eprints in {discipline!r} submitted by {dataset_year}")
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

    entries = [PanelEntry(t=t, u=total / n, n=n) for t, (total, n)
               in enumerate(zip(totals_by_age.tolist(), observable.tolist())) if n]
    missing = np.flatnonzero(observable == 0).tolist()
    if missing:
        # observable never rises with age, so the missing ages are one run
        # that ends at max_age.
        log.warning("panel %s/%s: no eprints observable at ages %d to %d",
                    discipline, dataset_year, missing[0], max_age)
    return AgePanel(discipline=discipline, dataset_year=dataset_year,
                    percentile_cap=percentile_cap, entries=entries, missing_ages=missing)


def build_trend_subsets(corpus: CitationCorpus, discipline: str, first_year: int, last_year: int,
                        percentile_cap: float, *, max_age: int | None = None) -> list[AgePanel]:
    """One independently capped panel per dataset year in [first, last].

    max_age=None sizes each panel to its own full window (dataset year
    minus the earliest included submission year).
    """
    if first_year > last_year:
        raise DomainError(f"first_year {first_year} exceeds last_year {last_year}")
    if last_year > corpus.retrieval_year:
        raise DomainError(f"last_year {last_year} exceeds retrieval_year {corpus.retrieval_year}")
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
        panels.append(build_age_panel(corpus, discipline, year, percentile_cap, age_span))
    return panels


# --- serialization ---------------------------------------------------------


def write_long_csv(corpus: CitationCorpus, path) -> None:
    """Write the corpus in long format, one row per (eprint, discipline, age).

    Rows come in corpus order: eprint by eprint, each eprint's disciplines
    by name, ages 0 to last. Each (eprint, discipline) pair is one write:
    its `eprint_id,discipline,submit_year,` prefix, rendered once by
    csv.writer so the text cells are quoted only where CSV needs it,
    joined before each of the eprint's `age,count` cells. The bytes are
    those of a csv.writer row loop.
    """
    counts, offsets = corpus.counts.tolist(), corpus.offsets.tolist()
    format_row = row_formatter()
    with create_csv(path) as fh:
        fh.write(format_row(LONG_CSV_COLUMNS))
        for k, (eid, tags, year) in enumerate(
            zip(corpus.ids, corpus._tag_lists(), corpus.submit_years.tolist())
        ):
            cells = [f"{age},{n}\n" for age, n in enumerate(counts[offsets[k]:offsets[k + 1]])]
            for disc in tags:
                # The empty last cell leaves the prefix's trailing comma.
                prefix = format_row((eid, disc, year, ""))[:-1]
                fh.write(prefix.join(["", *cells]))


def write_panel_csv(panels: Iterable[AgePanel], path) -> None:
    """Write panels in the aggregate format; totals reconstructed exactly."""
    # u was produced by a single integer division, so u*n rounds back to the
    # exact integer total.
    write_csv(path, PANEL_CSV_COLUMNS, (
        (panel.discipline, panel.dataset_year, e.t, e.n, round(e.u * e.n))
        for panel in panels
        for e in panel.entries
    ))
