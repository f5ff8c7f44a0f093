"""End-to-end command-line checks, driven in process through run_command."""

import argparse
import csv
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


def test_unrecognized_header_needs_explicit_format(tmp_path):
    weird = tmp_path / "data.csv"
    weird.write_text("alpha,beta\n1,2\n")
    assert run_command(["ingest", "--input", str(weird), "--out", str(tmp_path / "r.json")]) == 1


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
    assert set(diagnostics) == {"starts", "abandoned", "failed", "best_start", "best_status", "nfev"}
    assert diagnostics["starts"] == 36
    assert diagnostics["abandoned"] == 0
    assert diagnostics["failed"] == []
    with open(curve, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "u_hat", "f_component", "g_component"]
    # the envelope, diagnostics included, feeds straight back into --fit
    metrics = tmp_path / "m.json"
    assert run_command(["metrics", "--fit", str(out), "--out", str(metrics)]) == 0
    assert read_envelope(metrics)["payload"]["params"] == got


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
    _, ens_a = run_simulate(tmp_path, "a")
    _, ens_b = run_simulate(tmp_path, "b")
    assert ens_a.read_bytes() == ens_b.read_bytes()
    monkeypatch.setenv("CITEDYN_THREADS", "5")
    _, ens_c = run_simulate(tmp_path, "c")
    assert ens_c.read_bytes() == ens_a.read_bytes()
    monkeypatch.delenv("CITEDYN_THREADS")
    _, ens_d = run_simulate(tmp_path, "d", extra=["--threads", "2"])
    assert ens_d.read_bytes() == ens_a.read_bytes()


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
    names = {c["name"] for c in payload["checks"]}
    assert {"positivity", "density_normalization", "ks_t5", "lognormal_law_counts"} <= names
    assert all(c["pass"] for c in payload["checks"])


def test_verify_normalizes_a_narrow_marginal(tmp_path, params_json):
    # s2 = 1e-6 puts the t = 5 marginal's mass in a sliver quad over
    # (0, inf) never samples.
    vol = tmp_path / "vol.json"
    vol.write_text(json.dumps({"s1": 0.0281, "s2": 1e-6}))
    out = tmp_path / "verify.json"
    code = run_command(
        ["verify", "--fit", str(params_json), "--vol", str(vol), "--dt", "0.5",
         "--horizon", "10", "--paths", "300", "--out", str(out)]
    )
    assert code == 0
    checks = {c["name"]: c for c in read_envelope(out)["payload"]["checks"]}
    assert checks["density_normalization"]["pass"] is True
    assert abs(checks["density_normalization"]["observed"] - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", str(2**64), "seed must lie in [0, 2**64), got 18446744073709551616"),
        ("--seed", "-1", "seed must lie in [0, 2**64), got -1"),
        ("--threads", "0", "threads must be >= 1, got 0"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_sde_flag_out_of_range_is_a_usage_error(tmp_path, params_json, capsys, command, flag, value, message):
    out = tmp_path / "r.json"
    code = run_command(
        [command, "--fit", str(params_json), "--s1", "0.0281", "--s2", "0.2", flag, value]
        + ["--out", str(out)]
    )
    assert code == 1
    assert f"error: argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--paths", "0"], "n_paths must be >= 1, got 0"),
        (["--dt", "2"], "dt must lie in (0, 1], got 2.0"),
        (["--dt", "0.01", "--horizon", "0.015"], "horizon 0.015 is not a whole number of dt=0.01 steps"),
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
def test_thread_env_is_validated_when_streaming(tmp_path, params_json, capsys, monkeypatch, command):
    monkeypatch.setenv("CITEDYN_THREADS", "zero")
    code = run_command(
        [command, "--fit", str(params_json), "--s1", "0.0281", "--s2", "0.2"]
        + SIM_ARGS
        + ["--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "error: CITEDYN_THREADS must be an integer, got 'zero'" in capsys.readouterr().err


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
        ("streamed", ["simulate", *base]),
        ("full", ["simulate", *base, "--ensemble", str(tmp_path / "paths.csv")]),
    ]:
        shapes.clear()
        out = tmp_path / f"{tag}.json"
        assert run_command(argv + ["--out", str(out)]) == 0
        payloads[tag] = read_envelope(out)["payload"]
        if tag == "full":
            assert shapes == [(n_paths, 21)]
        else:
            assert max(rows for rows, _ in shapes) <= stochastic.BLOCK_PATHS
            assert sum(rows for rows, _ in shapes) == n_paths
    with open(tmp_path / "paths.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 1 + n_paths * 21
    for key in ("count_summary", "x0", "config"):
        assert payloads["streamed"][key] == payloads["full"][key]
    assert list(payloads["verify"]["config"]) == ["dt", "horizon", "n_paths", "seed", "counting_mode"]
    assert payloads["verify"]["config"] == payloads["full"]["config"]


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


def test_plot_label_escapes_markup_but_not_quotes(tmp_path):
    svg = tmp_path / "x.svg"
    emit_plot([PlotSeries("""a & b < c > d " e ' f""", [1.0, 2.0], [1.0, 3.0])], out=svg)
    assert """>a &amp; b &lt; c &gt; d " e ' f</text>""" in svg.read_text()
