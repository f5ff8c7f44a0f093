"""docs/formats.md against the files the toolkit writes.

Each column table in the format reference is parsed and compared with
the header row its writer emits, so the documented schemas cannot drift
from the code, and every file is checked against the CSV conventions
the reference states.
"""

import codecs
import csv
import json
import re
from pathlib import Path

import pytest

from citedyn import corpus
from citedyn.cli import run_command

DOCS = Path(__file__).resolve().parent.parent / "docs"
CORPUS, PANEL, PARAMS, VOL, VOL_SERIES = (
    str(DOCS / "samples" / name)
    for name in ("corpus.csv", "panel_wide.csv", "params.json", "vol.json", "vol_series.csv")
)
SIM = ["--fit", PARAMS, "--vol", VOL, "--dt", "0.5", "--horizon", "2", "--paths", "4"]

# Row label of the "Bulk CSV artifacts" table -> a command writing that
# artifact, ending with its output file name (plot writes its CSV beside
# the SVG).
COMMANDS = {
    "`fit-dist --points`": ["fit-dist", "--input", CORPUS, "--discipline", "astro-ph",
                            "--points", "points.csv"],
    "`fit-history --curve`": ["fit-history", "--input", PANEL, "--discipline", "example",
                              "--curve", "curve.csv"],
    "`trend --csv`": ["trend", "--input", CORPUS, "--discipline", "astro-ph",
                      "--first-year", "2019", "--last-year", "2019", "--csv", "trend.csv"],
    "`gamma --scores`": ["gamma", "--input", CORPUS, "--discipline", "astro-ph", "--fit", PARAMS,
                         "--scores", "scores.csv"],
    # c=1 goes negative from age 4 on, so the table has masked cells.
    "`reckoner --csv`": ["reckoner", "--fit", PARAMS, "--citations", "1,5,10", "--ages", "2:6",
                         "--csv", "reckoner.csv"],
    "`simulate --ensemble` (mode `paths`)": ["simulate", *SIM, "--ensemble", "paths.csv"],
    "`simulate --ensemble` (mode `summary`)": ["simulate", *SIM, "--ensemble-mode", "summary",
                                               "--ensemble", "summary.csv"],
    "`plot` sibling CSV": ["plot", "--data", VOL_SERIES, "--x", "t", "--y", "m",
                           "--svg", "fig.svg"],
}


def section_table(heading: str) -> dict[str, list[str]]:
    """Map each row's first cell to the backticked names in its last cell.

    Prose after " -- " in the last cell is dropped; for a column table the
    first cell is itself the column name.
    """
    text = (DOCS / "formats.md").read_text(encoding="utf-8")
    body = text.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in body.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[cells[0]] = re.findall(r"`([^`]+)`", cells[-1].split(" -- ")[0])
    return rows


def header_of(path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


# Columns holding names or flags; every other cell is a number.
TEXT_COLUMNS = {"eprint_id", "discipline", "converged", "series"}


def empty_numeric_cells(path) -> list[tuple[int, str]]:
    """Check the CSV conventions and return the (row, column) of empty
    numeric cells: no BOM, "\n" line ends, every other number readable by
    float()."""
    raw = path.read_bytes()
    assert not raw.startswith(codecs.BOM_UTF8)
    assert b"\r" not in raw
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    empty = []
    for i, row in enumerate(rows):
        for column, cell in row.items():
            if column in TEXT_COLUMNS:
                continue
            if cell == "":
                empty.append((i, column))
            else:
                float(cell)
    return empty


def matches(documented: list[str], header: list[str]) -> bool:
    """A last documented name like `T=<age>` stands for one or more columns."""
    if documented and "<" in documented[-1]:
        fixed = documented[:-1]
        prefix = documented[-1].split("<", 1)[0]
        tail = header[len(fixed):]
        return header[: len(fixed)] == fixed and bool(tail) and all(
            c.startswith(prefix) and c != prefix for c in tail
        )
    return header == documented


def test_every_documented_artifact_has_a_command():
    assert set(section_table("Bulk CSV artifacts")) == set(COMMANDS)


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_artifact_columns_match_docs(tmp_path, label):
    *argv, out = COMMANDS[label]
    envelope, path = tmp_path / "r.json", (tmp_path / out).with_suffix(".csv")
    assert run_command([*argv, str(tmp_path / out), "--out", str(envelope)]) == 0
    header = header_of(path)
    documented = section_table("Bulk CSV artifacts")[label]
    assert matches(documented, header), (documented, header)
    empty = empty_numeric_cells(path)
    if label == "`reckoner --csv`":
        # The masked cells, null in the payload, are the only empty ones.
        matrix = json.loads(envelope.read_text(encoding="utf-8"))["payload"]["matrix"]
        masked = [(i, header[2 + j]) for i, row in enumerate(matrix)
                  for j, v in enumerate(row) if v is None]
        assert masked and empty == masked
    else:
        assert empty == []


def test_corpus_format_columns_match_docs(tmp_path):
    long_path, panel_path = tmp_path / "long.csv", tmp_path / "panel.csv"
    corpus.write_long_csv(corpus.load_corpus(CORPUS, "long-csv"), long_path)
    corpus.write_panel_csv(corpus.load_corpus(PANEL, "panel-csv"), panel_path)
    for heading, path in (("Citation corpus, long form (`long-csv`)", long_path),
                          ("Age panel, aggregate form (`panel-csv`)", panel_path)):
        assert list(section_table(heading)) == [f"`{c}`" for c in header_of(path)]
        assert empty_numeric_cells(path) == []


def test_matches_reads_templated_columns():
    assert matches(["discipline", "c", "T=<age>"], ["discipline", "c", "T=2", "T=3"])
    assert not matches(["discipline", "c", "T=<age>"], ["discipline", "c"])
    assert not matches(["discipline", "c", "T=<age>"], ["discipline", "c", "Q"])
    assert not matches(["t", "x"], ["t", "x", "Q"])
