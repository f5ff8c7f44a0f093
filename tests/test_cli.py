"""End-to-end command-line checks, driven in process through run_command."""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from citedyn import cli, corpus, gamma, historyfit, stochastic
from citedyn.cli import PlotSeries, _json_safe, _parse_number_list, emit_plot, run_command
from citedyn.errors import UsageError

from _reference import ORACLE, RECKONER_TABLE, make_panel, params_for

ASTRO = params_for("astro-ph")
SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"
SRC = Path(__file__).resolve().parent.parent / "src"


def small_corpus():
    mk = corpus.EprintRecord
    records = (
        mk("a1", frozenset({"astro-ph"}), 2014, (0, 1, 2, 3, 2, 1)),
        mk("a2", frozenset({"astro-ph"}), 2015, (1, 2, 4, 3, 2)),
        mk("a3", frozenset({"astro-ph"}), 2016, (0, 0, 1, 1)),
        mk("a4", frozenset({"astro-ph"}), 2016, (2, 5, 7, 9)),
        mk("a5", frozenset({"astro-ph"}), 2019, (0,)),
        mk("a6", frozenset({"astro-ph"}), 2015, (0, 0, 0, 0, 0)),
        mk("b1", frozenset({"hep"}), 2015, (3, 4, 5, 6, 7)),
    )
    return corpus.CitationCorpus(records=records, retrieval_year=2019)


@pytest.fixture()
def corpus_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    corpus.write_long_csv(small_corpus(), path)
    return path


@pytest.fixture()
def params_json(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(ASTRO.to_dict()))
    return path


def read_envelope(path):
    with open(path) as fh:
        return json.load(fh)


# --- envelope contract -------------------------------------------------------


def test_envelope_structure(tmp_path, corpus_csv):
    out = tmp_path / "result.json"
    assert run_command(["ingest", "--input", str(corpus_csv), "--out", str(out)]) == 0
    env = read_envelope(out)
    assert set(env) == {
        "version",
        "created",
        "input_digest",
        "subcommand",
        "payload",
        "warnings",
    }
    assert env["subcommand"] == "ingest"
    # digests keyed by basename, full sha256 hex
    assert set(env["input_digest"]) == {"corpus.csv"}
    assert len(env["input_digest"]["corpus.csv"]) == 64
    from datetime import datetime

    stamp = datetime.fromisoformat(env["created"])
    assert stamp.tzinfo is not None


def test_json_safe_coercions():
    raw = {
        "nan": float("nan"),
        "inf": np.inf,
        "arr": np.array([1.5, 2.5]),
        "i": np.int64(3),
        "flag": np.bool_(True),
        1: "int key",
    }
    safe = _json_safe(raw)
    assert safe["nan"] is None and safe["inf"] is None
    assert safe["arr"] == [1.5, 2.5]
    assert safe["i"] == 3 and type(safe["i"]) is int
    assert safe["flag"] is True
    assert safe["1"] == "int key"
    json.dumps(safe, allow_nan=False)


def test_parse_number_list():
    assert _parse_number_list("5,10", "--x") == [5.0, 10.0]
    assert _parse_number_list("2:5", "--x") == [2.0, 3.0, 4.0, 5.0]
    assert _parse_number_list("1,3:4", "--x") == [1.0, 3.0, 4.0]
    for bad in ("", "5,,6", "abc", "5:2", "1.5:3"):
        with pytest.raises(UsageError):
            _parse_number_list(bad, "--x")


def test_range_longer_than_the_age_domain_is_refused():
    span = corpus.MAX_YEAR - corpus.MIN_SUBMIT_YEAR
    assert len(_parse_number_list(f"1:{span}", "--x")) == span
    for bad in (f"1:{span + 1}", f"0:{span}", f"5,-3:{span}"):
        with pytest.raises(UsageError, match=f"holds more than {span} values"):
            _parse_number_list(bad, "--x")


# --- ingest ---------------------------------------------------------------------


def test_ingest_summary_and_echo(tmp_path, corpus_csv):
    out = tmp_path / "r.json"
    echo = tmp_path / "echo.csv"
    code = run_command(
        [
            "ingest",
            "--input",
            str(corpus_csv),
            "--percentiles",
            "0.5",
            "--echo",
            str(echo),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = read_envelope(out)["payload"]
    assert payload["format"] == "long-csv"
    assert payload["n_eprints"] == 7
    assert payload["retrieval_year"] == 2019
    assert payload["disciplines"] == {"astro-ph": 6, "hep": 1}
    assert payload["percentiles"]["astro-ph"][0]["p"] == 0.5
    # the echoed corpus is a faithful normalization of the input
    assert echo.read_bytes() == corpus_csv.read_bytes()


def test_ingest_sniffs_panel_format(tmp_path):
    panel_path = tmp_path / "panel.csv"
    corpus.write_panel_csv([make_panel(ASTRO, max_age=6)], panel_path)
    out = tmp_path / "r.json"
    assert run_command(["ingest", "--input", str(panel_path), "--out", str(out)]) == 0
    payload = read_envelope(out)["payload"]
    assert payload["format"] == "panel-csv"
    assert payload["panels"][0]["discipline"] == "synthetic"
    assert payload["panels"][0]["n_ages"] == 7


# Input format -> the command that reads a sample of it.
BOM_COMMANDS = {
    "long-csv": lambda path: ["ingest", "--input", path],
    "panel-csv": lambda path: ["ingest", "--input", path],
    "fit-json": lambda path: ["metrics", "--fit", path],
    "vol-json": lambda path: ["simulate", "--fit", str(SAMPLES / "params.json"), "--vol", path,
                              "--dt", "0.5", "--horizon", "2", "--paths", "4"],
}


@pytest.mark.parametrize("name, fmt", [("corpus.csv", "long-csv"), ("panel.csv", "panel-csv"),
                                       ("params.json", "fit-json"), ("vol.json", "vol-json")])
def test_inputs_may_start_with_a_bom(tmp_path, name, fmt):
    plain, bom = SAMPLES / name, tmp_path / name
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    if fmt.endswith("-csv"):
        assert corpus.load_corpus(bom, fmt) == corpus.load_corpus(plain, fmt)
    payloads = []
    for path in (plain, bom):
        out = tmp_path / "r.json"
        assert run_command([*BOM_COMMANDS[fmt](str(path)), "--out", str(out)]) == 0
        payloads.append(read_envelope(out)["payload"])
    if fmt.endswith("-csv"):
        assert payloads[0]["format"] == fmt
    assert payloads[1] == payloads[0]


def test_unrecognized_header_is_a_usage_error(tmp_path):
    weird = tmp_path / "data.csv"
    weird.write_text("alpha,beta\n1,2\n")
    assert run_command(["ingest", "--input", str(weird), "--out", str(tmp_path / "r.json")]) == 1


def reorder_columns(src, dest, first):
    """Copy a CSV with the column named `first` moved to the front."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    i = rows[0].index(first)
    with open(dest, "w", newline="") as fh:
        csv.writer(fh).writerows([row[i], *row[:i], *row[i + 1:]] for row in rows)


@pytest.mark.parametrize("fmt, first, argv", [
    ("long-csv", "discipline", ["ingest"]),
    ("long-csv", "discipline", ["fit-dist", "--discipline", "astro-ph"]),
    ("long-csv", "age", ["gamma", "--discipline", "astro-ph", "--fit", str(SAMPLES / "params.json")]),
    ("panel-csv", "age", ["ingest"]),
], ids=["ingest-long", "fit-dist-long", "gamma-long", "ingest-panel"])
def test_format_is_sniffed_from_the_header_column_set(tmp_path, fmt, first, argv):
    sample = SAMPLES / ("corpus.csv" if fmt == "long-csv" else "panel.csv")
    reordered = tmp_path / "reordered.csv"
    reorder_columns(sample, reordered, first)
    payloads = []
    for path in (sample, reordered):
        out = tmp_path / "r.json"
        assert run_command([argv[0], "--input", str(path), *argv[1:], "--out", str(out)]) == 0
        payloads.append(read_envelope(out)["payload"])
    assert payloads[1] == payloads[0]
    if argv == ["ingest"]:
        assert payloads[0]["format"] == fmt


@pytest.mark.parametrize("argv", [
    ["fit-dist"],
    ["trend", "--first-year", "2019", "--last-year", "2019"],
    ["gamma", "--fit", str(SAMPLES / "params.json")],
], ids=["fit-dist", "trend", "gamma"])
def test_long_csv_only_commands_take_no_format_flag(tmp_path, corpus_csv, capsys, argv):
    out = str(tmp_path / "r.json")
    common = [*argv, "--input", str(corpus_csv), "--discipline", "astro-ph", "--out", out]
    assert run_command(common) == 0
    assert run_command([*common, "--format", "long-csv"]) == 1
    assert "unrecognized arguments: --format long-csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", str(SAMPLES / "corpus.csv")],
    ["fit-history", "--input", str(SAMPLES / "panel_wide.csv"), "--discipline", "example"],
], ids=["ingest", "fit-history"])
def test_corpus_commands_take_no_format_flag(tmp_path, capsys, argv):
    common = [*argv, "--out", str(tmp_path / "r.json")]
    assert run_command(common) == 0
    assert run_command([*common, "--format", "panel-csv"]) == 1
    assert "unrecognized arguments: --format panel-csv" in capsys.readouterr().err


def test_ingest_rejects_a_panel_total_beyond_int64(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    total = "1" + "0" * 400
    panel.write_text(f"{','.join(corpus.PANEL_CSV_COLUMNS)}\nx,2019,0,2,{total}\n")
    assert run_command(["ingest", "--input", str(panel), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: row 2: column 'total_citations' does not fit in int64: {total!r}\n"


def test_library_warnings_reach_the_envelope(tmp_path):
    gapped = tmp_path / "gapped.csv"
    gapped.write_text(f"{','.join(corpus.LONG_CSV_COLUMNS)}\na,x,2015,0,1\na,x,2015,2,1\n")
    out = tmp_path / "r.json"
    assert run_command(["ingest", "--input", str(gapped), "--out", str(out)]) == 0
    assert read_envelope(out)["warnings"] == ["eprint a: ages [1] absent from file, zero-filled"]


def test_envelope_lists_warnings_in_the_order_logged(tmp_path):
    # The loader's zero-fill is logged before gamma's per-eprint skips.
    rows = ["a,x,2015,0,1", "a,x,2015,2,1", "b,x,2015,0,0", "b,x,2015,1,0", "b,x,2015,2,0",
            "c,x,2015,0,2", "c,x,2015,1,1", "c,x,2015,2,0", "d,x,2017,0,3"]
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("\n".join([",".join(corpus.LONG_CSV_COLUMNS), *rows]) + "\n")
    out = tmp_path / "r.json"
    assert run_command(["gamma", "--input", str(gapped), "--discipline", "x",
                        "--fit", str(SAMPLES / "params.json"), "--out", str(out)]) == 0
    env = read_envelope(out)
    assert (env["payload"]["n_scored"], env["payload"]["n_skipped"]) == (2, 2)
    assert env["warnings"] == [
        "eprint a: ages [1] absent from file, zero-filled",
        "b: no citations by 2017, skipped",
        "d: not yet 1 year old in 2017, skipped",
    ]


# --- fit-dist / fit-history -------------------------------------------------------


def test_fit_dist_lognormal(tmp_path, corpus_csv):
    out = tmp_path / "r.json"
    points = tmp_path / "points.csv"
    code = run_command(
        [
            "fit-dist",
            "--input",
            str(corpus_csv),
            "--discipline",
            "astro-ph",
            "--points",
            str(points),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = read_envelope(out)["payload"]
    assert payload["n_eprints"] == 6
    assert payload["lognormal"]["n"] == 6
    assert payload["power_law"] is None
    assert points.exists()


def test_fit_dist_rejects_a_year_past_the_retrieval_year(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["fit-dist", "--input", str(SAMPLES / "corpus.csv"), "--discipline", "astro-ph",
            "--dataset-year", "2100", "--out", str(out)]
    assert run_command(argv) == 2
    assert "dataset_year 2100 exceeds retrieval_year 2019" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_refuses_citations_after_an_explicit_retrieval_year(tmp_path, capsys):
    # astro/0001 was submitted in 2014 and has rows through age 5, in 2019.
    out = tmp_path / "r.json"
    argv = ["ingest", "--input", str(SAMPLES / "corpus.csv"), "--retrieval-year", "2016",
            "--percentiles", "0.5", "--out", str(out)]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert "eprint astro/0001: age 5 dates citations to 2019, past retrieval_year 2016" in err
    assert not out.exists()


def test_ingest_refuses_a_retrieval_year_for_panel_csv(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["ingest", "--input", str(SAMPLES / "panel_wide.csv"), "--retrieval-year", "1800",
            "--out", str(out)]
    assert run_command(argv) == 2
    assert "error: retrieval_year applies only to long-csv input\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("age", ["1000000000000", "30000000"])
def test_ingest_refuses_an_age_past_year_9999(tmp_path, capsys, age):
    path = tmp_path / "corpus.csv"
    path.write_text(f"{','.join(corpus.LONG_CSV_COLUMNS)}\na,x,2015,0,1\na,x,2015,{age},1\n",
                    encoding="utf-8")
    out = tmp_path / "r.json"
    assert run_command(["ingest", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"row 3: submit_year 2015 + age {age} passes year 9999" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--q-min", "-1", "q_min must lie in [0, 1), got -1.0"),
    ("--q-min", "nan", "q_min must lie in [0, 1), got nan"),
    ("--q-min", "1", "q_min must lie in [0, 1), got 1.0"),
    ("--theta", "inf", "shift parameter must be finite and positive, got inf"),
    ("--theta", "nan", "shift parameter must be finite and positive, got nan"),
    ("--theta", "0", "shift parameter must be finite and positive, got 0.0"),
], ids=["q-min-negative", "q-min-nan", "q-min-one", "theta-inf", "theta-nan", "theta-zero"])
def test_fit_dist_rejects_a_meaningless_power_law_flag(tmp_path, capsys, flag, value, message):
    mk = corpus.EprintRecord
    records = tuple(mk(f"p{i:02d}", frozenset({"astro-ph"}), 2018, (i * i,)) for i in range(1, 41))
    path = tmp_path / "corpus.csv"
    corpus.write_long_csv(corpus.CitationCorpus(records=records, retrieval_year=2019), path)
    out = tmp_path / "r.json"
    argv = ["fit-dist", "--input", str(path), "--discipline", "astro-ph",
            "--model", "power-law", "--out", str(out)]
    assert run_command(argv) == 0  # the corpus itself admits a power-law fit
    out.unlink()
    assert run_command([*argv, flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ingest_refuses_an_echo_of_panel_csv(tmp_path, capsys):
    # Only a long-csv corpus is echoed; the envelope would name a file never written.
    echo, out = tmp_path / "echo.csv", tmp_path / "r.json"
    argv = ["ingest", "--input", str(SAMPLES / "panel.csv"), "--echo", str(echo),
            "--out", str(out)]
    assert run_command(argv) == 1
    assert "error: --echo needs long-csv input, got panel-csv\n" in capsys.readouterr().err
    assert not echo.exists() and not out.exists()


def test_ingest_refuses_percentiles_of_panel_csv(tmp_path, capsys):
    # A panel-csv holds no per-eprint counts to take percentiles of.
    out = tmp_path / "r.json"
    argv = ["ingest", "--input", str(SAMPLES / "panel.csv"), "--percentiles", "0.5,0.9",
            "--out", str(out)]
    assert run_command(argv) == 1
    assert "error: --percentiles needs long-csv input, got panel-csv\n" in capsys.readouterr().err
    assert not out.exists()


def test_fit_history_from_panel_csv(tmp_path):
    panel_path = tmp_path / "panel.csv"
    corpus.write_panel_csv([make_panel(ASTRO)], panel_path)
    out = tmp_path / "r.json"
    curve = tmp_path / "curve.csv"
    code = run_command(
        [
            "fit-history",
            "--input",
            str(panel_path),
            "--discipline",
            "synthetic",
            "--curve",
            str(curve),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = read_envelope(out)["payload"]
    got = payload["params"]
    for key, want in (("A", ASTRO.A), ("mu", ASTRO.mu), ("sigma", ASTRO.sigma), ("B", ASTRO.B)):
        assert got[key] == pytest.approx(want, rel=0.01)
    assert got["lambda"] == pytest.approx(ASTRO.lam, rel=0.10)
    assert not got["lambda_capped"]
    assert payload["converged"]
    diagnostics = payload["diagnostics"]
    assert set(diagnostics) == {
        "starts", "abandoned", "joined", "failed", "best_start", "best_status", "nfev"
    }
    assert diagnostics["starts"] == (
        len(historyfit.MU_STARTS) * len(historyfit.SIGMA_STARTS) * len(historyfit.LAMBDA_STARTS)
    )
    assert diagnostics["abandoned"] == 0
    assert diagnostics["failed"] == []
    with open(curve, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "u_hat", "f_component", "g_component"]
    # the envelope, diagnostics included, feeds straight back into --fit
    metrics = tmp_path / "m.json"
    assert run_command(["metrics", "--fit", str(out), "--out", str(metrics)]) == 0
    assert read_envelope(metrics)["payload"]["params"] == got


@pytest.mark.parametrize("cap", ["5", "nan", "-1", "0"])
def test_fit_history_rejects_a_cap_outside_the_unit_interval_on_a_panel_csv(tmp_path, capsys, cap):
    out = tmp_path / "r.json"
    argv = ["fit-history", "--input", str(SAMPLES / "panel.csv"), "--discipline", "astro-ph",
            "--cap", cap, "--out", str(out)]
    assert run_command(argv) == 2
    assert f"percentile_cap must lie in (0, 1], got {float(cap)}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_history_selects_a_panel_csv_panel_by_dataset_year(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    corpus.write_panel_csv([make_panel(ASTRO, dataset_year=2018),
                            make_panel(params_for("comp-sci"), dataset_year=2019)], panel_path)
    out = tmp_path / "r.json"
    argv = ["fit-history", "--input", str(panel_path), "--discipline", "synthetic",
            "--out", str(out)]
    assert run_command([*argv, "--dataset-year", "2018"]) == 0
    payload = read_envelope(out)["payload"]
    assert payload["dataset_year"] == 2018
    assert payload["params"]["A"] == pytest.approx(ASTRO.A, rel=0.01)
    out.unlink()
    assert run_command([*argv, "--dataset-year", "2017"]) == 2
    assert "error: no panel for 'synthetic' at dataset year 2017\n" in capsys.readouterr().err
    assert not out.exists()


def test_fit_history_unknown_discipline_is_a_data_error(tmp_path):
    panel_path = tmp_path / "panel.csv"
    corpus.write_panel_csv([make_panel(ASTRO)], panel_path)
    code = run_command(
        [
            "fit-history",
            "--input",
            str(panel_path),
            "--discipline",
            "q-bio",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_fit_history_from_long_csv(tmp_path):
    from _reference import DRIFT_DISCIPLINE, drift_corpus

    path = tmp_path / "drift.csv"
    corpus.write_long_csv(drift_corpus(), path)
    out = tmp_path / "r.json"
    argv = ["fit-history", "--input", str(path), "--discipline", DRIFT_DISCIPLINE,
            "--out", str(out)]
    assert run_command(argv) == 0
    payload = read_envelope(out)["payload"]
    # Defaults: the retrieval year, the default cap and the default age span.
    corp = corpus.load_corpus(path, "long-csv")
    panel = corpus.build_age_panel(corp, DRIFT_DISCIPLINE, corp.retrieval_year,
                                   cli.DEFAULT_CAP, cli.DEFAULT_MAX_AGE)
    fit = historyfit.fit_history(panel)
    assert payload["dataset_year"] == corp.retrieval_year
    assert payload["percentile_cap"] == cli.DEFAULT_CAP
    assert payload["params"] == fit.params.to_dict()
    assert payload["converged"]


def test_fit_history_weighted_fits_the_population_weighted_regression(tmp_path):
    path, out = SAMPLES / "corpus.csv", tmp_path / "r.json"
    argv = ["fit-history", "--input", str(path), "--discipline", "astro-ph", "--weighted",
            "--out", str(out)]
    assert run_command(argv) == 0
    payload = read_envelope(out)["payload"]
    corp = corpus.load_corpus(path, "long-csv")
    panel = corpus.build_age_panel(corp, "astro-ph", corp.retrieval_year,
                                   cli.DEFAULT_CAP, cli.DEFAULT_MAX_AGE)
    weighted = historyfit.fit_history(panel, weighted=True)
    assert payload["params"] == weighted.params.to_dict()
    assert payload["params"] != historyfit.fit_history(panel).params.to_dict()


# --- metrics / reckoner --------------------------------------------------------------


def test_metrics_with_horizon_splits(tmp_path, params_json):
    out = tmp_path / "r.json"
    code = run_command(
        ["metrics", "--fit", str(params_json), "--horizons", "2,10", "--out", str(out)]
    )
    assert code == 0
    payload = read_envelope(out)["payload"]
    assert payload["metrics"]["t_peak"] == pytest.approx(ORACLE["astro_t_peak"], abs=1e-7)
    split = payload["splits"][0]
    assert split["T"] == 2.0
    assert split["F"] == pytest.approx(ORACLE["astro_F2"], rel=1e-12)
    assert split["H"] == pytest.approx(ORACLE["astro_H2"], rel=1e-12)
    assert payload["splits"][1]["H"] == pytest.approx(ORACLE["astro_H10"], rel=1e-12)


def test_metrics_accepts_fit_envelopes(tmp_path, params_json):
    wrapped = tmp_path / "fit.json"
    wrapped.write_text(json.dumps({"payload": {"params": ASTRO.to_dict()}}))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(["metrics", "--fit", str(params_json), "--out", str(out_a)]) == 0
    assert run_command(["metrics", "--fit", str(wrapped), "--out", str(out_b)]) == 0
    assert read_envelope(out_a)["payload"] == read_envelope(out_b)["payload"]


@pytest.mark.parametrize("change", [{"mu": math.nan}, {"A": math.inf},
                                    {"lambda_capped": "false"}, {"A": "2.19"}, {"B": True},
                                    {"sigma": None}, {"mu": 10**400}],
                         ids=["nan-mu", "inf-A", "str-flag", "str-A", "bool-B", "null-sigma",
                              "huge-mu"])
def test_metrics_rejects_unusable_fit_values(tmp_path, change):
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({**ASTRO.to_dict(), **change}))  # NaN and Infinity as JSON tokens
    assert run_command(["metrics", "--fit", str(fit), "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_metrics_rejects_a_non_finite_horizon(tmp_path, params_json, capsys, horizon):
    out = tmp_path / "r.json"
    argv = ["metrics", "--fit", str(params_json), "--horizons", f"2,{horizon}", "--out", str(out)]
    assert run_command(argv) == 2
    assert f"horizon must be finite and >= 1, got {horizon}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_json_beyond_the_integer_digit_limit_is_a_data_error(tmp_path, capsys):
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps(ASTRO.to_dict()).replace("2.19", "1" * 5000, 1))
    assert run_command(["metrics", "--fit", str(fit), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {fit}: not valid JSON (")


@pytest.mark.parametrize("text", ["[1, 2]", '"A"', "null"], ids=["list", "string", "null"])
def test_fit_json_that_is_not_an_object_is_a_data_error(tmp_path, capsys, text):
    fit, out = tmp_path / "fit.json", tmp_path / "r.json"
    fit.write_text(text)
    assert run_command(["metrics", "--fit", str(fit), "--out", str(out)]) == 2
    assert f"error: {fit}: expected a JSON object\n" in capsys.readouterr().err
    assert not out.exists()


def test_reckoner_matches_library_and_reference(tmp_path, params_json):
    out = tmp_path / "r.json"
    table_csv = tmp_path / "table.csv"
    code = run_command(
        [
            "reckoner",
            "--fit",
            str(params_json),
            "--citations",
            "5,10,50,100",
            "--ages",
            "2:10",
            "--discipline",
            "astro-ph",
            "--csv",
            str(table_csv),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = read_envelope(out)["payload"]
    reck = gamma.build_reckoner(ASTRO, [5, 10, 50, 100], range(2, 11), discipline="astro-ph")
    for row_p, row_lib in zip(payload["matrix"], reck.matrix):
        for got, want in zip(row_p, row_lib):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-12)
    # spot values against the quoted table
    assert payload["matrix"][0][0] == pytest.approx(RECKONER_TABLE["astro-ph"][5][0], abs=0.01)
    assert payload["matrix"][3][8] == pytest.approx(RECKONER_TABLE["astro-ph"][100][8], abs=0.01)
    with open(table_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["discipline", "c"] + [f"T={t}" for t in range(2, 11)]
    assert len(rows) == 5


@pytest.mark.parametrize("citations, ages, message", [
    ("5,nan", "2:4", "citation count must be finite and >= 1, got nan"),
    ("5,inf", "2:4", "citation count must be finite and >= 1, got inf"),
    ("5", "2,inf", "horizon must be finite and >= 1, got inf"),
], ids=["nan-citations", "inf-citations", "inf-ages"])
def test_reckoner_rejects_non_finite_levels(tmp_path, params_json, capsys, citations, ages,
                                            message):
    out = tmp_path / "r.json"
    argv = ["reckoner", "--fit", str(params_json), "--citations", citations, "--ages", ages,
            "--out", str(out)]
    assert run_command(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_reckoner_takes_its_label_from_a_fit_envelope(tmp_path, params_json):
    wrapped = tmp_path / "fit.json"
    wrapped.write_text(
        json.dumps({"payload": {"discipline": "astro-ph", "params": ASTRO.to_dict()}})
    )
    labels = []
    for fit in (wrapped, params_json):
        out, table_csv = tmp_path / "r.json", tmp_path / "table.csv"
        code = run_command(
            ["reckoner", "--fit", str(fit), "--citations", "5", "--ages", "2,3"]
            + ["--csv", str(table_csv), "--out", str(out)]
        )
        assert code == 0
        with open(table_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == read_envelope(out)["payload"]["discipline"]
        labels.append(rows[1][0])
    assert labels == ["astro-ph", ""]  # a bare parameter object carries no label


def test_reckoner_reads_its_fit_once(tmp_path, params_json, monkeypatch):
    calls = []
    load_json = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: calls.append(path) or load_json(path))
    code = run_command(["reckoner", "--fit", str(params_json), "--citations", "5", "--ages", "2",
                        "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert calls == [str(params_json)]


def test_reckoner_masks_render_as_null(tmp_path):
    fit = tmp_path / "comp.json"
    fit.write_text(json.dumps(params_for("comp-sci").to_dict()))
    out = tmp_path / "r.json"
    code = run_command(
        [
            "reckoner",
            "--fit",
            str(fit),
            "--citations",
            "5",
            "--ages",
            "2:10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    row = read_envelope(out)["payload"]["matrix"][0]
    assert row[0] is not None and row[1] is not None
    assert all(v is None for v in row[2:])  # c=5 goes negative from age 4 on


# --- gamma ------------------------------------------------------------------------------


def test_gamma_scores_with_skip_warnings(tmp_path, corpus_csv, params_json):
    out = tmp_path / "r.json"
    scores_csv = tmp_path / "scores.csv"
    code = run_command(
        [
            "gamma",
            "--input",
            str(corpus_csv),
            "--discipline",
            "astro-ph",
            "--fit",
            str(params_json),
            "--scores",
            str(scores_csv),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    env = read_envelope(out)
    payload = env["payload"]
    assert payload["n_scored"] == 4
    assert payload["n_skipped"] == 2
    assert len(env["warnings"]) == 2
    assert any("a5" in w for w in env["warnings"])
    assert any("a6" in w for w in env["warnings"])
    assert -1.0 <= payload["pearson_r"] <= 1.0
    with open(scores_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["eprint_id"] for r in rows} == {"a1", "a2", "a3", "a4"}


def test_gamma_of_a_single_scorable_eprint_has_no_correlation(tmp_path, corpus_csv, params_json):
    # hep holds one eprint, and a correlation needs at least two scores.
    out = tmp_path / "r.json"
    argv = ["gamma", "--input", str(corpus_csv), "--discipline", "hep", "--fit",
            str(params_json), "--out", str(out)]
    assert run_command(argv) == 0
    payload = read_envelope(out)["payload"]
    assert payload["n_scored"] == 1
    assert payload["pearson_r"] is None
    assert payload["gamma"]["sd"] == payload["gamma_star"]["sd"] == 0.0


def test_gamma_rejects_a_year_past_the_retrieval_year(tmp_path, corpus_csv, params_json, capsys):
    out = tmp_path / "r.json"
    argv = ["gamma", "--input", str(corpus_csv), "--discipline", "astro-ph", "--fit",
            str(params_json), "--dataset-year", "2100", "--out", str(out)]
    assert run_command(argv) == 2
    assert "dataset_year 2100 exceeds retrieval_year 2019" in capsys.readouterr().err
    assert not out.exists()


# --- simulate / verify ------------------------------------------------------------------


SIM_ARGS = ["--dt", "0.5", "--horizon", "2", "--paths", "64", "--seed", "7"]


def run_simulate(tmp_path, tag, extra=()):
    out = tmp_path / f"{tag}.json"
    ens = tmp_path / f"{tag}_ens.csv"
    params = tmp_path / "params.json"
    if not params.exists():
        params.write_text(json.dumps(ASTRO.to_dict()))
    argv = (
        ["simulate", "--fit", str(params), "--s1", "0.0281", "--s2", "0.2"]
        + SIM_ARGS
        + list(extra)
        + ["--ensemble", str(ens), "--out", str(out)]
    )
    assert run_command(argv) == 0
    return read_envelope(out), ens


def test_simulate_reproducible_byte_for_byte(tmp_path, monkeypatch):
    env_a, ens_a = run_simulate(tmp_path, "a")
    _, ens_b = run_simulate(tmp_path, "b")
    assert ens_a.read_bytes() == ens_b.read_bytes()
    # --threads is parsed but ignored, and CITEDYN_THREADS is not read.
    monkeypatch.setenv("CITEDYN_THREADS", "zero")
    env_c, ens_c = run_simulate(tmp_path, "c", extra=["--threads", "0"])
    assert ens_c.read_bytes() == ens_a.read_bytes()
    assert env_c["payload"] == {**env_a["payload"], "ensemble": ens_c.name}


# The sampler's output, pinned across versions (taken with numpy 2.4 on
# x86-64): the sha256 of a 300-path CSV dump per method, and the count
# summary of a 700-path run. Any kernel change that moves a path's bits,
# or a count, fails here.
PINNED_PATHS_SHA256 = {
    "exact": "593873efea437ec550f88a44214ab80e3884d0c73f68c885a43682a8596c5bf8",
    "euler": "cc93048f01d4375d88e0351f8b8c6bd7777cc70706649f00ce4b809edb61ab55",
}
PINNED_COUNT_SUMMARY = {"mean": 2.557142857142857, "sd": 3.5848022645189204,
                        "min": 0.0, "max": 40.0}


@pytest.mark.parametrize("method", ["exact", "euler"])
def test_sampler_bits_are_pinned(tmp_path, method):
    ens = tmp_path / "paths.csv"
    code = run_command(
        ["simulate", "--fit", str(SAMPLES / "params.json"), "--vol", str(SAMPLES / "vol.json"),
         "--dt", "0.25", "--horizon", "5", "--paths", "300", "--seed", "7",
         "--method", method, "--ensemble", str(ens), "--out", str(tmp_path / "r.json")]
    )
    assert code == 0
    assert hashlib.sha256(ens.read_bytes()).hexdigest() == PINNED_PATHS_SHA256[method]
    # The reported x0 is, bit for bit, where every dumped path starts.
    x0 = read_envelope(tmp_path / "r.json")["payload"]["x0"]
    with open(ens, newline="", encoding="utf-8") as fh:
        starts = {float(row["x"]) for row in csv.DictReader(fh) if float(row["t"]) == 0.0}
    assert starts == {x0}


def test_count_summary_is_pinned(tmp_path):
    out = tmp_path / "r.json"
    code = run_command(
        ["simulate", "--fit", str(SAMPLES / "params.json"), "--vol", str(SAMPLES / "vol.json"),
         "--dt", "0.1", "--horizon", "10", "--paths", "700", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    assert read_envelope(out)["payload"]["count_summary"] == PINNED_COUNT_SUMMARY


def test_simulate_payload_reports_the_run(tmp_path):
    env, _ = run_simulate(tmp_path, "p", extra=["--ensemble-mode", "summary"])
    payload = env["payload"]
    assert payload["x0"] == pytest.approx(ORACLE["astro_u0"], rel=1e-12)
    assert payload["config"]["n_paths"] == 64
    assert payload["count_summary"]["min"] >= 0.0


def test_vol_sources_are_mutually_exclusive(tmp_path, params_json):
    code = run_command(
        [
            "simulate",
            "--fit",
            str(params_json),
            "--s1",
            "0.1",
            "--s2",
            "0.2",
            "--vol-series",
            "whatever.csv",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 1


def test_simulate_accepts_vol_json(tmp_path, params_json):
    vol = tmp_path / "vol.json"
    vol.write_text(json.dumps({"s1": 0.0281, "s2": 0.2}))
    out = tmp_path / "r.json"
    code = run_command(
        ["simulate", "--fit", str(params_json), "--vol", str(vol)]
        + SIM_ARGS
        + ["--out", str(out)]
    )
    assert code == 0
    env = read_envelope(out)
    assert env["payload"]["vol"]["s1"] == 0.0281
    assert set(env["input_digest"]) == {"params.json", "vol.json"}


@pytest.mark.parametrize("vol", [{"s1": "0.0281", "s2": 0.2}, {"s1": 0.0281, "s2": True}],
                         ids=["str-s1", "bool-s2"])
def test_vol_json_takes_only_json_numbers(tmp_path, params_json, capsys, vol):
    path = tmp_path / "vol.json"
    path.write_text(json.dumps(vol))
    argv = ["simulate", "--fit", str(params_json), "--vol", str(path), *SIM_ARGS,
            "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 2
    assert "no usable volatility parameters" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["7", 2.9, True], ids=["str", "float", "bool"])
def test_vol_json_takes_only_a_json_integer_n(tmp_path, params_json, capsys, n):
    path = tmp_path / "vol.json"
    path.write_text(json.dumps({"s1": 0.0281, "s2": 0.2, "n": n}))
    argv = ["simulate", "--fit", str(params_json), "--vol", str(path), *SIM_ARGS,
            "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 2
    assert f"n must be a non-negative integer, got {n!r}" in capsys.readouterr().err


def test_vol_diagnostics_may_be_null_or_absent(tmp_path, params_json):
    # verify writes its --s1/--s2 volatility with null diagnostics.
    report = tmp_path / "verify.json"
    assert run_command(["verify", "--fit", str(params_json), "--s1", "0.0281", "--s2", "0.2",
                        *SIM_ARGS, "--out", str(report)]) == 0
    vol = read_envelope(report)["payload"]["vol"]
    assert [vol[k] for k in ("se_s1", "se_s2", "r2_adj")] == [None, None, None]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"s1": 0.0281, "s2": 0.2}))
    nulls = tmp_path / "nulls.json"
    nulls.write_text(json.dumps({"s1": 0.0281, "s2": 0.2, "se_s1": None, "n": None}))
    payloads = []
    for source in (report, bare, nulls):
        out = tmp_path / "r.json"
        assert run_command(["simulate", "--fit", str(params_json), "--vol", str(source),
                            *SIM_ARGS, "--out", str(out)]) == 0
        payloads.append(read_envelope(out)["payload"])
    assert payloads[0]["vol"] == vol
    assert payloads[1] == payloads[2] == payloads[0]


@pytest.mark.parametrize("vol", [{"s1": math.inf, "s2": 0.2}, {"s1": 0.0281, "s2": math.inf}],
                         ids=["inf-s1", "inf-s2"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_finite_volatility_is_a_data_error(tmp_path, params_json, capsys, command, vol):
    path = tmp_path / "vol.json"
    path.write_text(json.dumps(vol))  # Infinity as a JSON token
    argv = [command, "--fit", str(params_json), "--vol", str(path), *SIM_ARGS,
            "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 2
    assert "must be positive and finite, got inf" in capsys.readouterr().err


# Every check verify reports at horizon 10; each one reads the sample.
VERIFY_CHECKS = [
    "positivity",
    "mean_recovery_t1",
    "mean_recovery_t5",
    "mean_recovery_t10",
    "log_variance_horizon",
    "ks_t5",
    "lognormal_law_counts",
]


def test_verify_reports_overall_pass(tmp_path, params_json):
    out = tmp_path / "verify.json"
    code = run_command(
        [
            "verify",
            "--fit",
            str(params_json),
            "--s1",
            "0.0281",
            "--s2",
            "0.2",
            "--dt",
            "0.5",
            "--horizon",
            "10",
            "--paths",
            "10000",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = read_envelope(out)["payload"]
    assert payload["overall_pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == VERIFY_CHECKS
    assert all(c["pass"] for c in payload["checks"])


def test_verify_normalizes_a_narrow_marginal(tmp_path, params_json):
    # s2 = 1e-6 puts the t = 5 marginal's mass in a sliver. The sample
    # checks resolve it; the counts barely spread, so their law has no fit.
    # The closed-form density's own normalization is tested in
    # test_stochastic.py.
    vol = tmp_path / "vol.json"
    vol.write_text(json.dumps({"s1": 0.0281, "s2": 1e-6}))
    out = tmp_path / "verify.json"
    code = run_command(
        ["verify", "--fit", str(params_json), "--vol", str(vol), "--dt", "0.5",
         "--horizon", "10", "--paths", "10000", "--out", str(out)]
    )
    assert code == 0
    checks = {c["name"]: c for c in read_envelope(out)["payload"]["checks"]}
    assert list(checks) == VERIFY_CHECKS
    assert all(checks[name]["pass"] for name in VERIFY_CHECKS[:-1])
    assert checks["lognormal_law_counts"]["observed"] is None


def test_verify_failure_is_a_warning_in_the_envelope(tmp_path):
    # 20 paths are too few for ks_t5's fixed bound. Bounds derived from
    # --paths would need a config that still fails.
    out = tmp_path / "verify.json"
    assert run_command(["verify", "--fit", str(SAMPLES / "params.json"), "--vol",
                        str(SAMPLES / "vol.json"), "--paths", "20", "--dt", "0.5",
                        "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["payload"]["overall_pass"] is False
    assert not {c["name"]: c for c in env["payload"]["checks"]}["ks_t5"]["pass"]
    assert env["warnings"] == ["one or more verification checks failed"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--paths", "0"], "n_paths must be >= 1, got 0"),
        (["--dt", "2"], "dt must lie in (0, 1], got 2.0"),
        (["--dt", "0.01", "--horizon", "0.015"], "horizon 0.015 is not a whole number of dt=0.01 steps"),
        (["--horizon", "nan"], "horizon must be finite, got nan"),
        (["--horizon", "inf"], "horizon must be finite, got inf"),
        (["--seed", str(2**64)], "seed must be an integer in [0, 2**64), got 18446744073709551616"),
        (["--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_sde_config_refusal_is_a_usage_error(tmp_path, params_json, capsys, command, flags, message):
    # SdeConfig owns these checks; the CLI reports its message as a bad flag.
    out = tmp_path / "r.json"
    code = run_command(
        [command, "--fit", str(params_json), "--s1", "0.0281", "--s2", "0.2", *flags]
        + ["--out", str(out)]
    )
    assert code == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_yearly_count_off_the_year_grid_is_refused_before_any_output(tmp_path, params_json,
                                                                     capsys, command):
    out, ens = tmp_path / "r.json", tmp_path / "x.csv"
    argv = [command, "--fit", str(params_json), "--s1", "0.0281", "--s2", "0.2", "--dt", "0.3",
            "--horizon", "6", "--counting", "yearly-floor-sum", "--out", str(out)]
    if command == "simulate":
        argv += ["--ensemble", str(ens)]
    assert run_command(argv) == 1
    assert "error: yearly counting needs dt to divide one year evenly\n" in capsys.readouterr().err
    assert not out.exists() and not ens.exists()


def test_streamed_commands_never_hold_the_whole_ensemble(tmp_path, params_json, monkeypatch):
    shapes = []
    simulate_ensemble = stochastic.simulate_ensemble

    def record(*args, **kwargs):
        ensemble = simulate_ensemble(*args, **kwargs)
        shapes.append(ensemble.paths.shape)
        return ensemble

    monkeypatch.setattr(stochastic, "simulate_ensemble", record)
    n_paths = 2 * stochastic.BLOCK_PATHS + 88
    base = ["--fit", str(params_json), "--s1", "0.0281", "--s2", "0.2", "--dt", "0.5",
            "--horizon", "10", "--paths", str(n_paths), "--seed", "4"]
    payloads = {}
    for tag, argv in [
        ("verify", ["verify", *base]),
        ("counts", ["simulate", *base]),
        ("paths", ["simulate", *base, "--ensemble", str(tmp_path / "paths.csv")]),
        ("summary", ["simulate", *base, "--ensemble-mode", "summary",
                     "--ensemble", str(tmp_path / "summary.csv")]),
    ]:
        shapes.clear()
        out = tmp_path / f"{tag}.json"
        assert run_command(argv + ["--out", str(out)]) == 0
        payloads[tag] = read_envelope(out)["payload"]
        assert max(rows for rows, _ in shapes) <= stochastic.BLOCK_PATHS
        assert sum(rows for rows, _ in shapes) == n_paths
    with open(tmp_path / "paths.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 1 + n_paths * 21
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 1 + 21
    for tag in ("paths", "summary"):
        for key in ("count_summary", "x0", "config"):
            assert payloads["counts"][key] == payloads[tag][key]
    assert list(payloads["verify"]["config"]) == ["dt", "horizon", "n_paths", "seed", "counting_mode"]
    assert payloads["verify"]["config"] == payloads["counts"]["config"]


# --- trend ------------------------------------------------------------------------------


def test_trend_over_drifting_corpus(tmp_path):
    from _reference import DRIFT_MAX_AGE, drift_corpus

    path = tmp_path / "drift.csv"
    corpus.write_long_csv(drift_corpus(), path)
    out = tmp_path / "r.json"
    table = tmp_path / "trend.csv"
    code = run_command(
        [
            "trend",
            "--input",
            str(path),
            "--discipline",
            "synthetic",
            "--first-year",
            "2014",
            "--last-year",
            "2016",
            "--cap",
            "1.0",
            "--max-age",
            str(DRIFT_MAX_AGE),
            "--csv",
            str(table),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    points = read_envelope(out)["payload"]["points"]
    assert [p["dataset_year"] for p in points] == [2014, 2015, 2016]
    assert all(p["converged"] for p in points)
    s = [p["s_rate"] for p in points]
    assert s[0] < s[1] < s[2]
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["s_rate"]) == pytest.approx(s[0], rel=1e-15)


# --- exit codes -------------------------------------------------------------------------


def test_exit_code_for_usage_errors(tmp_path, corpus_csv, params_json):
    assert run_command(["no-such-command"]) == 1
    assert run_command(["ingest", "--input", str(corpus_csv)]) == 1  # --out missing
    # An unreadable input exits 1 and writes no envelope, whichever flag names it.
    missing, out = str(tmp_path / "missing.csv"), tmp_path / "r.json"
    for argv in (
        ["ingest", "--input", missing],
        ["metrics", "--fit", missing],
        ["simulate", "--fit", str(params_json), "--vol-series", missing, *SIM_ARGS],
        ["plot", "--data", missing, "--x", "t", "--y", "m", "--svg", str(tmp_path / "f.svg")],
    ):
        assert run_command(argv + ["--out", str(out)]) == 1, argv
        assert not out.exists()


def test_exit_code_for_data_errors(tmp_path, corpus_csv):
    code = run_command(
        [
            "fit-dist",
            "--input",
            str(corpus_csv),
            "--discipline",
            "q-bio",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_exit_code_for_convergence_failure(tmp_path, params_json):
    series = tmp_path / "vol_series.csv"
    series.write_text("t,m\n1,1.0\n2,0.7\n3,0.5\n4,0.4\n")
    code = run_command(
        ["simulate", "--fit", str(params_json), "--vol-series", str(series)]
        + SIM_ARGS
        + ["--out", str(tmp_path / "r.json")]
    )
    assert code == 3


def test_fit_history_out_of_evaluations_exits_3(tmp_path, capsys, monkeypatch):
    # One evaluation per start: no start converges, and the library's
    # ConvergenceError is the command's exit 3.
    monkeypatch.setattr(historyfit, "MAX_NFEV", 1)
    out, curve = tmp_path / "r.json", tmp_path / "curve.csv"
    argv = ["fit-history", "--input", str(SAMPLES / "panel_wide.csv"), "--discipline",
            "example", "--curve", str(curve), "--out", str(out)]
    assert run_command(argv) == 3
    assert re.search(r"^error: example/2019: no optimization start converged: best start \d+ "
                     r"stopped with status 0;", capsys.readouterr().err, re.MULTILINE)
    assert not out.exists() and not curve.exists()


def test_vol_series_repeated_column_reads_last(tmp_path, params_json):
    # A decoy m column before the sample's m is not read, as csv.DictReader does.
    rows = (SAMPLES / "vol_series.csv").read_text().splitlines()
    series = tmp_path / "decoy.csv"
    series.write_text("t,m,m\n" + "".join(f"{t},9.5,{m}\n" for t, m in
                                           (row.split(",") for row in rows[1:])))
    payloads = []
    for name, path in (("sample", SAMPLES / "vol_series.csv"), ("decoy", series)):
        out = tmp_path / f"{name}.json"
        argv = ["simulate", "--fit", str(params_json), "--vol-series", str(path), *SIM_ARGS,
                "--out", str(out)]
        assert run_command(argv) == 0
        payloads.append(read_envelope(out)["payload"]["vol"])
    assert payloads[1] == payloads[0]


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("rows, message", [
    ("1,0.5\n2,nan\n3,0.8\n", "spreads must be positive and finite"),
    ("1,0.5\n2,0.7\ninf,0.8\n", "spread series ages must be positive and finite"),
], ids=["nan-spread", "inf-age"])
def test_non_finite_vol_series_is_a_data_error(tmp_path, params_json, capsys, command, rows, message):
    series, out = tmp_path / "vol_series.csv", tmp_path / "r.json"
    series.write_text("t,m\n" + rows)
    code = run_command(
        [command, "--fit", str(params_json), "--vol-series", str(series)]
        + SIM_ARGS
        + ["--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("text, message", [
    ("t,x\n1,0.5\n", "expected columns t,m"),
    ("t,m\n1,0.5\n2,oops\n3,0.8\n", "row 3: column 'm' is not numeric"),
    ("t,m\n1,0.5\n2\n3,0.8\n", "row 3: column 'm' is not numeric"),
    ("", "empty file"),
], ids=["no-m-column", "text-cell", "short-row", "empty"])
def test_vol_series_must_be_a_numeric_t_m_table(tmp_path, params_json, capsys, command, text,
                                                message):
    series, out = tmp_path / "vol_series.csv", tmp_path / "r.json"
    series.write_text(text)
    argv = [command, "--fit", str(params_json), "--vol-series", str(series), *SIM_ARGS,
            "--out", str(out)]
    assert run_command(argv) == 2
    assert f"error: {series}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_mean_curve_that_underflows_is_a_data_error(tmp_path, capsys, command):
    # Positive A and B, but u(0) = A f(1) underflows to 0 when mu is far
    # from 0, and the sampler takes logs of u.
    fit, out = tmp_path / "fit.json", tmp_path / "r.json"
    fit.write_text(json.dumps({"A": 1, "mu": 40, "sigma": 0.5, "B": 1, "lambda": 1}))
    argv = [command, "--fit", str(fit), "--s1", "0.0281", "--s2", "0.2", *SIM_ARGS,
            "--out", str(out)]
    assert run_command(argv) == 2
    assert "error: mean curve is not positive everywhere on the grid\n" in capsys.readouterr().err
    assert not out.exists()


SAMPLE_ASTRO = ["--input", str(SAMPLES / "corpus.csv"), "--discipline", "astro-ph"]
LOCAL_ASTRO = ["--input", "c.csv", "--discipline", "astro-ph"]


def copy_local_inputs(directory):
    """The sample corpus, fit and volatility as c.csv, p.json and v.json."""
    for name, local in (("corpus.csv", "c.csv"), ("params.json", "p.json"), ("vol.json", "v.json")):
        (directory / local).write_bytes((SAMPLES / name).read_bytes())
SAMPLE_FIT = ["--fit", str(SAMPLES / "params.json")]
TREND_2019 = ["--first-year", "2019", "--last-year", "2019"]


@pytest.mark.parametrize("argv, code", [
    pytest.param(["gamma", *SAMPLE_ASTRO, *SAMPLE_FIT, "--dataset-year", str(2**63)], 2,
                 id="gamma-year-past-int64"),
    pytest.param(["gamma", *SAMPLE_ASTRO, *SAMPLE_FIT, "--dataset-year", str(-10**30)], 2,
                 id="gamma-year-before-1991"),
    pytest.param(["fit-dist", *SAMPLE_ASTRO, "--dataset-year", str(-10**30)], 2,
                 id="fit-dist-year-before-1991"),
    *(
        pytest.param([command, *SAMPLE_ASTRO, *extra, "--max-age", age], 2,
                     id=f"{command}-max-age-{age}")
        for command, extra in (("fit-history", []), ("trend", TREND_2019))
        for age in ("100000", "100000000000", "10000000000000000000")
    ),
    pytest.param(["plot", "--data", "summary.csv", "--x", "t", "--y", "mean",
                  "--svg", "summary.svg"], 1, id="plot-sibling-csv-over-its-data"),
    pytest.param(["plot", "--data", "summary.csv", "--x", "t", "--y", "mean",
                  "--svg", "summary.csv"], 1, id="plot-svg-over-its-data"),
    pytest.param(["plot", "--data", "trend.csv", "--x", "t", "--y", "mean",
                  "--svg", "fig.svg"], 2, id="plot-nan-y"),
    pytest.param(["plot", "--data", "trend.csv", "--x", "x", "--y", "t",
                  "--svg", "fig.svg"], 2, id="plot-inf-x"),
    pytest.param(["verify", *SAMPLE_FIT, "--vol", str(SAMPLES / "vol.json"), "--paths", "1"], 2,
                 id="verify-one-path"),
    pytest.param(["simulate", *SAMPLE_FIT, "--s1", "0.0281"], 1, id="simulate-s1-without-s2"),
    # An a:b range may not expand past the age domain's 8008 values.
    pytest.param(["reckoner", *SAMPLE_FIT, "--citations", "1", "--ages", "1:8009"], 1,
                 id="reckoner-ages-past-the-age-domain"),
    pytest.param(["metrics", *SAMPLE_FIT, "--horizons", "0:8008"], 1,
                 id="metrics-horizons-past-the-age-domain"),
    pytest.param(["plot", "--data", "summary.csv", "--x", "t", "--y", "mean,,t",
                  "--svg", "fig.svg"], 1, id="plot-empty-y-element"),
    # Commands that read eprints refuse a panel-csv aggregate.
    *(
        pytest.param([command, "--input", str(SAMPLES / "panel.csv"), "--discipline", "x",
                      *extra], 1, id=f"{command}-panel-csv")
        for command, extra in (("fit-dist", []), ("gamma", SAMPLE_FIT), ("trend", TREND_2019))
    ),
    # An output that names an input is refused whatever the command.
    pytest.param(["ingest", "--input", "c.csv", "--echo", "c.csv"], 1,
                 id="ingest-echo-over-input"),
    pytest.param(["fit-dist", *LOCAL_ASTRO, "--points", "c.csv"], 1,
                 id="fit-dist-points-over-input"),
    pytest.param(["fit-history", *LOCAL_ASTRO, "--curve", "c.csv"], 1,
                 id="fit-history-curve-over-input"),
    pytest.param(["gamma", *LOCAL_ASTRO, *SAMPLE_FIT, "--scores", "c.csv"], 1,
                 id="gamma-scores-over-input"),
    pytest.param(["reckoner", "--fit", "p.json", "--citations", "1,2", "--ages", "1,2",
                  "--csv", "p.json"], 1, id="reckoner-csv-over-fit"),
    pytest.param(["simulate", *SAMPLE_FIT, "--vol", "v.json", "--ensemble", "v.json"], 1,
                 id="simulate-ensemble-over-vol"),
])
def test_out_of_range_input_is_refused_before_any_output(tmp_path, monkeypatch, capsys, argv,
                                                         code):
    monkeypatch.chdir(tmp_path)
    copy_local_inputs(tmp_path)
    (tmp_path / "summary.csv").write_text("t,mean\n0,1.5\n1,2.5\n")
    (tmp_path / "trend.csv").write_text("t,mean,x\n0,1.5,0\n1,nan,inf\n2,2.5,2\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert run_command([*argv, "--out", "r.json"]) == code
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()
    # No file is written or changed; --data keeps its bytes.
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    pytest.param(["ingest", "--input", "c.csv"], id="ingest-input"),
    pytest.param(["metrics", "--fit", "p.json"], id="metrics-fit"),
])
def test_out_over_an_input_is_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    copy_local_inputs(tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert run_command([*argv, "--out", argv[-1]]) == 1
    assert f"error: --out {argv[-1]} would overwrite {argv[-2]} {argv[-1]}\n" in (
        capsys.readouterr().err)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv, message", [
    pytest.param(["ingest", "--input", "c.csv", "--echo", "r.json", "--out", "r.json"],
                 "--echo r.json would overwrite --out r.json", id="ingest-echo-over-out"),
    pytest.param(["simulate", "--fit", "p.json", "--vol", "v.json", "--dt", "0.5",
                  "--paths", "10", "--ensemble", "e.csv", "--out", "e.csv"],
                 "--ensemble e.csv would overwrite --out e.csv", id="simulate-ensemble-over-out"),
    pytest.param(["plot", "--data", "summary.csv", "--x", "t", "--y", "mean",
                  "--svg", "fig.svg", "--out", "fig.csv"],
                 "--svg fig.svg would overwrite --out fig.csv", id="plot-sibling-csv-over-out"),
    pytest.param(["plot", "--data", "summary.csv", "--x", "t", "--y", "mean",
                  "--svg", "fig.csv", "--out", "r.json"],
                 "--svg fig.csv would overwrite --svg fig.csv", id="plot-sibling-csv-over-svg"),
])
def test_two_outputs_on_one_file_are_refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    copy_local_inputs(tmp_path)
    (tmp_path / "summary.csv").write_text("t,mean\n0,1.5\n1,2.5\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert run_command(argv) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_two_inputs_with_one_basename_are_refused(tmp_path, monkeypatch, capsys):
    # input_digest is keyed by basename, so one of the two digests would be lost.
    monkeypatch.chdir(tmp_path)
    for name, local in (("params.json", "a/p.json"), ("vol.json", "b/p.json")):
        (tmp_path / local).parent.mkdir()
        (tmp_path / local).write_bytes((SAMPLES / name).read_bytes())
    before = sorted(tmp_path.rglob("*"))
    argv = ["verify", "--fit", "a/p.json", "--vol", "b/p.json", "--dt", "0.5", "--paths", "100",
            "--out", "r.json"]
    assert run_command(argv) == 1
    assert ("error: --vol b/p.json and --fit a/p.json are different files with one basename, "
            "which keys input_digest\n") in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_one_input_under_two_flags_is_digested_once(tmp_path, monkeypatch):
    # A verify envelope carries both the parameters and the volatility.
    monkeypatch.chdir(tmp_path)
    copy_local_inputs(tmp_path)
    sde = ["--dt", "0.5", "--paths", "100"]
    assert run_command(["verify", "--fit", "p.json", "--vol", "v.json", *sde,
                        "--out", "env.json"]) == 0
    assert run_command(["verify", "--fit", "env.json", "--vol", "./env.json", *sde,
                        "--out", "r.json"]) == 0
    digest = hashlib.sha256((tmp_path / "env.json").read_bytes()).hexdigest()
    assert read_envelope(tmp_path / "r.json")["input_digest"] == {"env.json": digest}


def test_every_option_is_classified():
    # A file flag's role (input or output) is stated only in cli's two
    # tables; every other option must be known not to name a file.
    non_file = {
        "help", "retrieval_year", "percentiles", "discipline", "dataset_year", "exclude_zero",
        "model", "q_min", "theta", "cap", "max_age", "weighted", "horizons", "first_year",
        "last_year", "citations", "ages", "s1", "s2", "dt", "horizon", "paths", "seed",
        "counting", "threads", "method", "ensemble_mode", "x", "y", "style",
    }
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {action.dest for parser in subparsers.choices.values()
               for action in parser._actions}
    file_flags = set(cli._INPUT_FLAGS) | set(cli._OUTPUT_FLAGS)
    assert not file_flags & non_file
    assert file_flags <= options
    assert options - file_flags == non_file


def test_help_and_version_exit_cleanly(capsys):
    assert run_command(["--help"]) == 0
    assert run_command(["--version"]) == 0
    capsys.readouterr()


def run_python(*args):
    """A fresh interpreter that imports citedyn from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_python_m_citedyn_runs_the_cli():
    proc = run_python("-m", "citedyn", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: citedyn")


IMPORT_FOOTPRINT = """
import json, sys
import citedyn, citedyn.cli
from citedyn.cli import run_command

HEAVY = ("scipy.optimize", "scipy.special", "scipy.integrate", "xml.sax")
samples, tmp = sys.argv[1:]
seen = {"import": [m for m in HEAVY if m in sys.modules]}
codes = [
    run_command(["ingest", "--input", f"{samples}/corpus.csv", "--out", f"{tmp}/i.json"]),
    run_command(["simulate", "--fit", f"{samples}/params.json", "--vol", f"{samples}/vol.json",
                 "--dt", "0.5", "--horizon", "2", "--paths", "16",
                 "--ensemble-mode", "summary", "--ensemble", f"{tmp}/e.csv",
                 "--out", f"{tmp}/s.json"]),
]
seen["ingest, simulate"] = [m for m in HEAVY if m in sys.modules]
codes.append(run_command(["fit-history", "--input", f"{samples}/panel_wide.csv",
                          "--discipline", "example", "--out", f"{tmp}/f.json"]))
seen["fit-history"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_scipy_loads_only_where_a_command_calls_it(tmp_path):
    # Every subcommand runs as its own process, so a module citedyn imports
    # at start-up is paid for by every step of the pipeline.
    proc = run_python("-c", IMPORT_FOOTPRINT, str(SAMPLES), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["seen"]["import"] == []
    assert got["seen"]["ingest, simulate"] == []
    # Deferred, not dropped: the fit still reaches scipy.optimize.
    assert "scipy.optimize" in got["seen"]["fit-history"]


# One command line per entry of README's "subcommands / scipy submodule
# loaded" table, on the sample inputs; {s} is docs/samples, {o} a scratch dir.
README_COMMAND_LINES = {
    "`fit-history`": "fit-history --input {s}/panel_wide.csv --discipline example",
    "`trend`": "trend --input {s}/corpus.csv --discipline astro-ph --first-year 2019 --last-year 2019",
    "`simulate --vol-series`": "simulate --fit {s}/params.json --vol-series {s}/vol_series.csv"
    " --dt 0.5 --horizon 2 --paths 16",
    "`fit-dist`": "fit-dist --input {s}/corpus.csv --discipline astro-ph",
    "`metrics --horizons`": "metrics --fit {s}/params.json --horizons 2,10",
    "`reckoner`": "reckoner --fit {s}/params.json --citations 5,10 --ages 2:4",
    "`gamma`": "gamma --input {s}/corpus.csv --discipline astro-ph --fit {s}/params.json",
    "`verify`": "verify --fit {s}/params.json --vol {s}/vol.json --dt 0.5 --horizon 10 --paths 1000",
    "`ingest`": "ingest --input {s}/corpus.csv",
    "`metrics` without `--horizons`": "metrics --fit {s}/params.json",
    "`simulate`": "simulate --fit {s}/params.json --vol {s}/vol.json --dt 0.5 --horizon 2 --paths 16",
    "`plot`": "plot --data {s}/vol_series.csv --x t --y m --svg {o}/fig.svg",
}

RUN_COMMAND_LINES = """
import json, sys
from citedyn.cli import run_command

codes = [run_command(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("scipy.optimize", "scipy.special", "scipy.integrate") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def readme_scipy_table():
    """(subcommand entries, scipy submodules) per row of README's table."""
    lines = (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommands | scipy submodule loaded |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        commands, loaded = (cell.strip() for cell in line.strip("|").split("|"))
        assert re.fullmatch(
            r"none|`scipy\.\w+`( \(which loads `scipy\.\w+`\))?", loaded
        ), f"unreadable scipy cell: {loaded!r}"
        rows.append((commands.split(", "), set(re.findall(r"`(scipy\.\w+)`", loaded))))
    return rows


def test_readme_scipy_table_matches_the_commands(tmp_path):
    rows = readme_scipy_table()
    subcommands = next(
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    named = {re.match(r"`([\w-]+)", entry)[1] for entries, _ in rows for entry in entries}
    assert named == set(subcommands)
    for entries, expected in rows:
        argvs = [
            README_COMMAND_LINES[entry].format(s=SAMPLES, o=tmp_path).split()
            + ["--out", str(tmp_path / "r.json")]
            for entry in entries
        ]
        proc = run_python("-c", RUN_COMMAND_LINES, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["codes"] == [0] * len(entries), entries
        assert set(got["loaded"]) == expected, entries


def test_console_script_is_installed(tmp_path, params_json):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-c", "from citedyn.cli import main; main()", "metrics",
         "--fit", str(params_json), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    # sys.argv[0] is the -c script; flags start at argv[1] as usual
    assert proc.returncode == 0, proc.stderr
    assert read_envelope(out)["payload"]["metrics"]["delta1"] == pytest.approx(
        ORACLE["astro_delta1"], rel=1e-12
    )


# --- plotting ---------------------------------------------------------------------------


def test_plot_line_and_scatter(tmp_path):
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "u", "v"])
        for t in range(5):
            writer.writerow([t, math.sin(t), math.cos(t)])
    svg = tmp_path / "fig.svg"
    out = tmp_path / "r.json"
    code = run_command(
        [
            "plot",
            "--data",
            str(data),
            "--x",
            "t",
            "--y",
            "u,v=scatter",
            "--svg",
            str(svg),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = svg.read_text()
    assert text.count("<polyline") == 1  # one line series
    assert text.count("<circle") == 5 + 1  # scatter points plus its legend marker
    payload = read_envelope(out)["payload"]
    assert payload["series"] == [
        {"label": "u", "style": "line", "n_points": 5},
        {"label": "v", "style": "scatter", "n_points": 5},
    ]
    sibling = svg.with_suffix(".csv")
    with open(sibling, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert rows[0] == {"series": "u", "x": "0.0", "y": "0.0"}


def test_plot_rejects_bad_columns_and_styles(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("t,u\n1,2\n2,oops\n")
    svg = str(tmp_path / "fig.svg")
    out = str(tmp_path / "r.json")
    assert run_command(["plot", "--data", str(data), "--x", "t", "--y", "w", "--svg", svg, "--out", out]) == 1
    assert run_command(["plot", "--data", str(data), "--x", "t", "--y", "u=wiggle", "--svg", svg, "--out", out]) == 1
    assert run_command(["plot", "--data", str(data), "--x", "t", "--y", "u", "--svg", svg, "--out", out]) == 2


def test_plot_repeated_column_reads_last(tmp_path):
    data, svg = tmp_path / "data.csv", tmp_path / "fig.svg"
    data.write_text("t,t,m\n1,10,5\n2,20,6\n")
    argv = ["plot", "--data", str(data), "--x", "t", "--y", "m", "--svg", str(svg),
            "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 0
    with open(svg.with_suffix(".csv"), newline="") as fh:
        assert [row["x"] for row in csv.DictReader(fh)] == ["10.0", "20.0"]


def test_plot_pads_a_constant_series_to_a_unit_range(tmp_path):
    data, svg = tmp_path / "data.csv", tmp_path / "fig.svg"
    data.write_text("t,u\n1,2\n1,2\n")
    argv = ["plot", "--data", str(data), "--x", "t", "--y", "u", "--svg", str(svg),
            "--out", str(tmp_path / "r.json")]
    assert run_command(argv) == 0
    text = svg.read_text()
    # x spans [0, 2] and y spans [1, 3], so the one point sits mid-plot.
    assert 'points="280.00,210.00 280.00,210.00"' in text
    assert ">0</text>" in text and ">2</text>" in text and ">3</text>" in text


def test_plot_refuses_an_empty_data_file(tmp_path, capsys):
    data, out = tmp_path / "data.csv", tmp_path / "r.json"
    data.write_text("")
    argv = ["plot", "--data", str(data), "--x", "t", "--y", "u", "--svg",
            str(tmp_path / "fig.svg"), "--out", str(out)]
    assert run_command(argv) == 2
    assert f"error: {data}: empty file\n" in capsys.readouterr().err
    assert not out.exists()


def test_emit_plot_validates_series(tmp_path):
    with pytest.raises(UsageError):
        emit_plot([PlotSeries("a", [1, 2], [1, 2])], style="pie", out=tmp_path / "x.svg")
    from citedyn.errors import DataError, InsufficientDataError

    with pytest.raises(DataError):
        emit_plot([], out=tmp_path / "x.svg")
    with pytest.raises(InsufficientDataError):
        emit_plot([PlotSeries("a", [1.0], [2.0])], out=tmp_path / "x.svg")
    with pytest.raises(DataError):
        emit_plot([PlotSeries("a", [1.0, 2.0], [2.0])], out=tmp_path / "x.svg")


@pytest.mark.parametrize("style", ["bar", ""])
def test_emit_plot_checks_each_series_style_as_the_default_style(tmp_path, style):
    svg = tmp_path / "x.svg"
    with pytest.raises(UsageError, match=f"^style must be 'line' or 'scatter', got {style!r}$"):
        emit_plot([PlotSeries("a", [1.0, 2.0], [1.0, 3.0], style=style)], out=svg)
    assert not svg.exists()


def test_plot_label_escapes_markup_but_not_quotes(tmp_path):
    svg = tmp_path / "x.svg"
    emit_plot([PlotSeries("""a & b < c > d " e ' f""", [1.0, 2.0], [1.0, 3.0])], out=svg)
    assert """>a &amp; b &lt; c &gt; d " e ' f</text>""" in svg.read_text()
