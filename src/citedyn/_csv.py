"""The CSV convention shared by every citedyn input and artifact.

Inputs are read as UTF-8, with or without a byte-order mark. Artifacts
are written as UTF-8 without one, with `\\n` line ends. Writers pass
Python ints and floats, so each float is written as its shortest
round-trip repr.

Most artifacts go through write_csv. The two bulk writers format their
own rows, a group of rows per write, and still write csv.writer's bytes.
corpus.write_long_csv renders each group's text cells through
row_formatter, so their quoting is csv.writer's own, and appends the
integer cells, which csv.writer writes unquoted as str(int). The
per-path ensemble dump (stochastic.write_ensemble_csv) holds only ints
and float reprs, which csv.writer never quotes.
"""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import Iterable, Sequence


def open_csv(path):
    """Open a CSV input for csv.reader: UTF-8, a leading BOM skipped."""
    return open(path, "r", encoding="utf-8-sig", newline="")


def create_csv(path):
    """Open a CSV artifact for writing: UTF-8, no BOM, line ends untranslated."""
    return open(path, "w", encoding="utf-8", newline="")


def row_formatter():
    """A csv.writer writerow that returns each row's text, as write_csv writes it."""
    # writerow returns what its file's write returns; over `str`, the text.
    return csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row and then rows."""
    with create_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
