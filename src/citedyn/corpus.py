"""Eprint corpus ingestion and age-panel construction.

The corpus holds one record per eprint: its submission year, the set of
disciplines it is tagged with, and a year-by-year citation vector indexed
by age. Panels aggregate a discipline's records into the mean-yearly-
citations series u_i that the history-curve regression consumes. All
aggregation runs in exact integer arithmetic until the final division.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True)
class CitationCorpus:
    """Immutable collection of eprint records with a data horizon."""

    records: tuple[EprintRecord, ...]
    retrieval_year: int

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen: set[str] = set()
        for rec in self.records:
            if rec.eprint_id in seen:
                raise DataError(f"duplicate eprint_id {rec.eprint_id!r}")
            seen.add(rec.eprint_id)
            if rec.submit_year > self.retrieval_year:
                raise DataError(
                    f"eprint {rec.eprint_id}: submit_year {rec.submit_year} "
                    f"exceeds retrieval_year {self.retrieval_year}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def in_discipline(self, discipline: str) -> list[EprintRecord]:
        return [r for r in self.records if discipline in r.disciplines]

    @property
    def disciplines(self) -> set[str]:
        out: set[str] = set()
        for rec in self.records:
            out |= rec.disciplines
        return out


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


def _load_long_csv(path, retrieval_year: int | None) -> CitationCorpus:
    # eprint_id -> [submit_year, {discipline: set of ages}, {age: count}]
    by_id: dict[str, list] = {}
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, LONG_CSV_COLUMNS, path)
        # A repeated column name reads its last occurrence, as csv.DictReader does.
        index = {name: i for i, name in enumerate(header)}
        i_id, i_disc, i_year, i_age, i_count = (index[c] for c in LONG_CSV_COLUMNS)
        width = len(header)
        row_no = 1
        for row in reader:
            # Blank lines are skipped and not numbered; a short row reads its
            # missing cells as None. Both as csv.DictReader does.
            if not row:
                continue
            row_no += 1
            if len(row) < width:
                row += [None] * (width - len(row))
            eid = (row[i_id] or "").strip()
            disc = (row[i_disc] or "").strip()
            if not eid or not disc:
                raise DataError(f"row {row_no}: empty eprint_id or discipline")
            try:
                year = int(row[i_year])
                age = int(row[i_age])
                count = int(row[i_count])
            except (TypeError, ValueError):
                # Re-parse column by column to name the first bad one.
                year = _parse_int(row[i_year], "submit_year", row_no)
                age = _parse_int(row[i_age], "age", row_no)
                count = _parse_int(row[i_count], "citations_in_year", row_no)
            if age < 0:
                raise DataError(f"row {row_no}: negative age {age}")
            if count < 0:
                raise DataError(f"row {row_no}: negative citations_in_year {count}")
            if year < MIN_SUBMIT_YEAR:
                raise DataError(f"row {row_no}: submit_year {year} predates {MIN_SUBMIT_YEAR}")

            entry = by_id.get(eid)
            if entry is None:
                entry = by_id[eid] = [year, {}, {}]
            elif entry[0] != year:
                raise DataError(
                    f"row {row_no}: eprint {eid!r} submit_year {year} conflicts "
                    f"with earlier value {entry[0]}"
                )
            _, ages_by_disc, counts = entry
            ages = ages_by_disc.get(disc)
            if ages is None:
                ages = ages_by_disc[disc] = set()
            elif age in ages:
                raise DataError(f"row {row_no}: duplicate (eprint_id, discipline, age) = "
                                f"({eid!r}, {disc!r}, {age})")
            ages.add(age)
            known = counts.setdefault(age, count)
            if known != count:
                raise DataError(
                    f"row {row_no}: eprint {eid!r} age {age} count {count} conflicts "
                    f"with {known} from another discipline row"
                )

    if not by_id:
        raise DataError(f"{path}: no data rows")

    records = []
    for eid in sorted(by_id):
        submit_year, ages_by_disc, counts = by_id[eid]
        max_age = max(counts)
        if len(counts) <= max_age:
            gaps = [a for a in range(max_age + 1) if a not in counts]
            log.warning("eprint %s: ages %s absent from file, zero-filled", eid, gaps)
        yearly = tuple(counts.get(a, 0) for a in range(max_age + 1))
        records.append(
            EprintRecord(
                eprint_id=eid,
                disciplines=frozenset(ages_by_disc),
                submit_year=submit_year,
                yearly_citations=yearly,
            )
        )
    if retrieval_year is None:
        retrieval_year = max(r.submit_year + len(r.yearly_citations) - 1 for r in records)
    return CitationCorpus(records=tuple(records), retrieval_year=retrieval_year)


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


def _threshold_scan(totals: list[int], p: float) -> tuple[int, int]:
    """Smallest observed total c with fraction(c_k <= c) >= p, and that count."""
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


def percentile_summary(corpus: CitationCorpus, discipline: str, p: float) -> PercentileSummary:
    """Citation threshold at percentile p for one discipline.

    The threshold is the smallest citation total c such that the fraction
    of the discipline's eprints with c_k <= c reaches p; n_below counts
    those eprints. Lifetime totals (through the retrieval year) are used.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"percentile must lie in (0, 1], got {p}")
    recs = corpus.in_discipline(discipline)
    if not recs:
        raise DataError(f"no eprints in discipline {discipline!r}")
    totals = [r.lifetime_citations for r in recs]
    threshold, n_below = _threshold_scan(totals, p)
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

    recs = [
        r
        for r in corpus.in_discipline(discipline)
        if r.submit_year <= dataset_year
    ]
    if not recs:
        raise DataError(
            f"no eprints in {discipline!r} submitted by {dataset_year}"
        )
    totals = [r.citations_through(dataset_year) for r in recs]
    threshold, _ = _threshold_scan(totals, percentile_cap)
    kept = [r for r, c in zip(recs, totals) if c <= threshold]

    entries: list[PanelEntry] = []
    missing: list[int] = []
    for age in range(max_age + 1):
        observable = [r for r in kept if dataset_year - r.submit_year >= age]
        if not observable:
            missing.append(age)
            continue
        total = sum(
            r.yearly_citations[age] if age < len(r.yearly_citations) else 0
            for r in observable
        )
        entries.append(PanelEntry(t=age, u=total / len(observable), n=len(observable)))
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
    panels = []
    for year in range(first_year, last_year + 1):
        if max_age is None:
            submits = [
                r.submit_year
                for r in corpus.in_discipline(discipline)
                if r.submit_year <= year
            ]
            if not submits:
                raise DataError(f"no eprints in {discipline!r} submitted by {year}")
            age_span = max(1, year - min(submits))
        else:
            age_span = max_age
        panels.append(
            build_age_panel(corpus, discipline, year, percentile_cap, age_span)
        )
    return panels


# --- serialization ---------------------------------------------------------


def write_long_csv(corpus: CitationCorpus, path) -> None:
    """Write the corpus in long format, one row per (eprint, discipline, age)."""
    write_csv(path, LONG_CSV_COLUMNS, (
        (rec.eprint_id, disc, rec.submit_year, age, count)
        for rec in corpus.records
        for disc in sorted(rec.disciplines)
        for age, count in enumerate(rec.yearly_citations)
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
