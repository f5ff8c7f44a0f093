"""The CSV convention shared by every citedyn input and artifact.

Inputs are read as UTF-8, with or without a byte-order mark. Artifacts
are written as UTF-8 without one, with `\\n` line ends. Writers pass
Python ints and floats, so each float is written as its shortest
round-trip repr.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence


def open_csv(path):
    """Open a CSV input for csv.reader: UTF-8, a leading BOM skipped."""
    return open(path, "r", encoding="utf-8-sig", newline="")


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row and then rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
