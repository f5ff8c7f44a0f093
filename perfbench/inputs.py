"""Seeded input generators for the citedyn benchmark.

Every generator is a pure function of its arguments, so the same workload
seed always yields the same bytes. Each one draws from its own numpy
stream, keyed by (stream id, seed), so adding a generator never shifts
the draws of another.

The reference rows, their panel builder and the drift corpus come from
the test suite's frozen reference module, imported read-only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import _reference as ref
from citedyn import corpus, historyfit

# Stream ids: one per generator, never reused.
_CORPUS_STREAM = 1
_FLAT_STREAM = 2
_ENSEMBLE_STREAM = 3

COHORT_DISCIPLINES = ("astro-ph", "cond-mat", "hep")
FIRST_COHORT, LAST_COHORT = 1996, 2019
COHORT_GROWTH = 1.05
CROSS_LIST_FRAC = 0.2
# Log-sd of the per-eprint attention factor. Wide enough that citation
# totals rarely tie within a cohort, so gamma* ranks stay near-continuous.
FACTOR_SD = 0.8

# The acceptance gate's noisy refits: 2% multiplicative noise, one frozen draw.
REFERENCE_NOISE_SD = 0.02
REFERENCE_NOISE_DRAW = 15

FLAT_AGES = 21
FLAT_EPRINTS = 50_000
FLAT_RATE = 2.0
FLAT_DRAW = 0
FLAT_DISCIPLINE = "flat"

VOLATILITY = {"s1": 0.0281, "s2": 0.2}  # the reference volatility scale


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rng(stream: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


# --- cohort corpus (pipeline) ------------------------------------------------


@dataclass(frozen=True)
class CohortCorpus:
    """Generated eprints as plain tuples, sorted by id like the loader sorts.

    records[k] = (eprint_id, sorted disciplines, submit_year, yearly counts)
    """

    records: tuple
    retrieval_year: int = LAST_COHORT


def cohort_corpus(seed: int, n_eprints: int) -> CohortCorpus:
    """Poisson cohort corpus over COHORT_DISCIPLINES, cohorts 1996-2019.

    Cohort sizes grow geometrically and sum to n_eprints. Each eprint has a
    primary discipline, and with probability CROSS_LIST_FRAC a second one.
    Its yearly counts are Poisson around its primary discipline's
    reference curve times a mean-one lognormal factor of its own.
    """
    rng = _rng(_CORPUS_STREAM, seed)
    years = np.arange(FIRST_COHORT, LAST_COHORT + 1)
    weights = COHORT_GROWTH ** (years - FIRST_COHORT)
    sizes = np.maximum(1, np.round(n_eprints * weights / weights.sum()).astype(int))
    max_age = LAST_COHORT - FIRST_COHORT
    curves = np.array(
        [historyfit.eval_history(ref.params_for(d), np.arange(max_age + 1.0))
         for d in COHORT_DISCIPLINES]
    )
    n_disc = len(COHORT_DISCIPLINES)
    records = []
    for year, size in zip(years.tolist(), sizes.tolist()):
        n_ages = LAST_COHORT - year + 1
        primary = rng.integers(n_disc, size=size)
        cross = rng.random(size) < CROSS_LIST_FRAC
        other = (primary + rng.integers(1, n_disc, size=size)) % n_disc
        factor = np.exp(FACTOR_SD * rng.standard_normal(size) - 0.5 * FACTOR_SD**2)
        counts = rng.poisson(factor[:, None] * curves[primary, :n_ages])
        for j in range(size):
            discs = {COHORT_DISCIPLINES[primary[j]]}
            if cross[j]:
                discs.add(COHORT_DISCIPLINES[other[j]])
            records.append(
                (f"bench/{year}.{j:05d}", tuple(sorted(discs)), year,
                 tuple(counts[j].tolist()))
            )
    records.sort(key=lambda r: r[0])
    return CohortCorpus(records=tuple(records))


def write_cohort_csv(corp: CohortCorpus, path) -> None:
    """Long-csv in the order `citedyn ingest --echo` writes it back."""
    header = ",".join(corpus.LONG_CSV_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for eid, discs, year, counts in corp.records:
            for disc in discs:
                fh.write("".join(
                    f"{eid},{disc},{year},{age},{c}\n" for age, c in enumerate(counts)
                ))


def same_corpus(corp: CohortCorpus, loaded: corpus.CitationCorpus) -> bool:
    """True when a loaded corpus holds exactly the generated records."""
    if loaded.retrieval_year != corp.retrieval_year or len(loaded) != len(corp.records):
        return False
    return all(
        rec.eprint_id == eid
        and tuple(sorted(rec.disciplines)) == discs
        and rec.submit_year == year
        and rec.yearly_citations == counts
        for rec, (eid, discs, year, counts) in zip(loaded.records, corp.records)
    )


# --- history-fit panels (refit) ----------------------------------------------


def reference_panels(rows=None):
    """(label, truth, panel, noisy) for every reference row, noiseless then noisy.

    Built exactly as the acceptance gate builds them, frozen noise draw
    included. The gate's 10% tolerance on the noisy refits holds for that
    draw but not for most others: other draws move a weakly identified
    parameter further while the fit still ends below the truth's cost. So
    these panels, like the drift corpus, do not vary with the seed.
    """
    rows = ref.all_reference_rows() if rows is None else rows
    out = [(label, truth, ref.make_panel(truth), False) for label, truth in rows]
    out += [
        (label, truth,
         ref.make_panel(truth, noise_sd=REFERENCE_NOISE_SD, seed=REFERENCE_NOISE_DRAW), True)
        for label, truth in rows
    ]
    return out


def flat_panel(n_eprints: int = FLAT_EPRINTS) -> corpus.AgePanel:
    """A 21-age panel with no aging at all, built the way the CLI builds panels.

    n_eprints eprints spread evenly over FLAT_AGES cohorts draw Poisson
    counts at one constant yearly rate; the panel is their 0.99-capped age
    panel at the last cohort year. The draw is fixed rather than seeded:
    the fit's cost on this stress case swings by a factor of two between
    draws, which would drown every other refit timing in seed-to-seed
    spread.
    """
    rng = _rng(_FLAT_STREAM, FLAT_DRAW)
    per_cohort = n_eprints // FLAT_AGES
    records = []
    for year in range(LAST_COHORT - FLAT_AGES + 1, LAST_COHORT + 1):
        counts = rng.poisson(FLAT_RATE, size=(per_cohort, LAST_COHORT - year + 1))
        records += [
            corpus.EprintRecord(f"flat/{year}.{j:05d}", frozenset({FLAT_DISCIPLINE}), year, row)
            for j, row in enumerate(counts.tolist())
        ]
    corp = corpus.CitationCorpus(records=tuple(records), retrieval_year=LAST_COHORT)
    return corpus.build_age_panel(corp, FLAT_DISCIPLINE, LAST_COHORT, 0.99, FLAT_AGES - 1)


def panel_digest(panels) -> str:
    """sha256 over every panel's entries, in order, at full precision."""
    digest = hashlib.sha256()
    for p in panels:
        for e in p.entries:
            digest.update(f"{p.discipline},{e.t},{e.u!r},{e.n}\n".encode())
    return digest.hexdigest()


def write_drift_csv(path) -> None:
    corpus.write_long_csv(ref.drift_corpus(), path)


# --- ensemble inputs ---------------------------------------------------------


def ensemble_params(seed: int) -> historyfit.HistoryParams:
    """One reference discipline's curve, picked by the seed."""
    names = sorted(ref.REFERENCE_FITS)
    return ref.params_for(names[int(_rng(_ENSEMBLE_STREAM, seed).integers(len(names)))])


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")

