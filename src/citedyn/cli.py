"""Command-line surface tying the pipeline together.

Subcommands: ingest, fit-dist, fit-history, metrics, trend, gamma,
reckoner, simulate, verify, plot. Every subcommand writes a JSON result
envelope to --out carrying the tool version, a UTC timestamp, sha256
digests of its input files, the subcommand name, a payload of results,
and any warnings raised along the way. Bulk numeric artifacts (score
tables, ensembles, figures) go to separate files named by dedicated
flags; all CSV numbers use full round-trip precision.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import sys
from datetime import datetime, timezone
from html import escape
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__, corpus, distfit, gamma, historyfit, stochastic
from ._csv import open_csv, write_csv
from .errors import (
    CitedynError,
    ConvergenceError,
    DataError,
    DomainError,
    InsufficientDataError,
    UsageError,
)

__all__ = ["build_parser", "run_command", "main", "emit_plot", "PlotSeries"]

DEFAULT_CAP = 0.99
DEFAULT_MAX_AGE = 20

_PLOT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


# --- small shared helpers ---------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_safe(obj):
    """Recursively coerce payloads to valid JSON (NaN/Inf become null)."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _write_envelope(args, payload: dict, inputs: Sequence, warnings: list[str]) -> None:
    envelope = {
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "input_digest": {Path(p).name: _sha256(p) for p in inputs},
        "subcommand": args.subcommand,
        "payload": payload,
        "warnings": warnings,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(envelope), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_number_list(text: str, flag: str) -> list[float]:
    """Comma lists with inclusive a:b ranges, e.g. '5,10,50' or '2:10'."""
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"{flag}: empty element in {text!r}")
        if ":" in token:
            lo_s, hi_s = token.split(":", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise UsageError(f"{flag}: range bounds must be integers in {token!r}")
            if lo > hi:
                raise UsageError(f"{flag}: empty range {token!r}")
            out.extend(float(v) for v in range(lo, hi + 1))
        else:
            try:
                out.append(float(token))
            except ValueError:
                raise UsageError(f"{flag}: not a number: {token!r}")
    if not out:
        raise UsageError(f"{flag}: no values given")
    return out


def _sniff_format(path) -> str:
    with open_csv(path) as fh:
        header = fh.readline()
    first = header.split(",")[0].strip().lower()
    if first == "eprint_id":
        return "long-csv"
    if first == "discipline":
        return "panel-csv"
    raise UsageError(
        f"{path}: cannot infer format from header; pass --format long-csv|panel-csv"
    )


def _load_corpus(args) -> corpus.CitationCorpus:
    fmt = args.format or _sniff_format(args.input)
    if fmt != "long-csv":
        raise UsageError(f"this subcommand needs long-csv input, got {fmt}")
    return corpus.load_corpus(
        args.input, "long-csv", retrieval_year=getattr(args, "retrieval_year", None)
    )


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    return data


def _payload(data: dict) -> dict:
    """A result envelope's payload object, or data itself when it is bare."""
    payload = data.get("payload")
    return payload if isinstance(payload, dict) else data


def _load_fit(path) -> tuple[historyfit.HistoryParams, dict]:
    """History parameters from a fit envelope or a bare parameter object,
    and the payload they were read from."""
    payload = _payload(_load_json(path))
    candidate = payload["params"] if isinstance(payload.get("params"), dict) else payload
    try:
        return historyfit.HistoryParams.from_dict(candidate), payload
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: no usable history parameters ({exc})")


def _load_vol(args) -> tuple[stochastic.VolatilityFit, list]:
    """Volatility from --vol JSON, --vol-series CSV, or --s1/--s2."""
    sources = [args.vol is not None, args.vol_series is not None,
               args.s1 is not None or args.s2 is not None]
    if sum(sources) != 1:
        raise UsageError("give exactly one of --vol, --vol-series, or --s1/--s2")
    if args.vol is not None:
        candidate = _payload(_load_json(args.vol))
        if isinstance(candidate.get("vol"), dict):
            candidate = candidate["vol"]
        try:
            return stochastic.VolatilityFit.from_dict(candidate), [args.vol]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.vol}: no usable volatility parameters ({exc})")
    if args.vol_series is not None:
        pairs = _read_vol_series(args.vol_series)
        return stochastic.fit_volatility(pairs), [args.vol_series]
    if args.s1 is None or args.s2 is None:
        raise UsageError("--s1 and --s2 must be given together")
    return stochastic.volatility(args.s1, args.s2), []


def _read_vol_series(path) -> list[tuple[float, float]]:
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"t", "m"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns t,m")
        pairs = []
        for row_no, row in enumerate(reader, start=2):
            try:
                pairs.append((float(row["t"]), float(row["m"])))
            except (TypeError, ValueError):
                raise DataError(f"{path}: row {row_no}: non-numeric t or m")
    return pairs


class _WarningCollector(logging.Handler):
    """Collects library log warnings for the result envelope."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _fit_payload(fit: historyfit.HistoryFit) -> dict:
    return {
        "discipline": fit.discipline,
        "dataset_year": fit.dataset_year,
        "percentile_cap": fit.percentile_cap,
        "n_ages": len(fit.residuals),
        "params": fit.params.to_dict(),
        "se": {
            "A": fit.se_A,
            "mu": fit.se_mu,
            "sigma": fit.se_sigma,
            "B": fit.se_B,
            "lambda": fit.se_lambda,
        },
        "r2_adj": fit.r2_adj,
        "converged": fit.converged,
        "diagnostics": fit.diagnostics.to_dict(),
    }


def _sde_config(args) -> stochastic.SdeConfig:
    # SdeConfig owns the checks; a value it refuses is a bad flag.
    try:
        return stochastic.SdeConfig(
            dt=args.dt,
            horizon=args.horizon,
            n_paths=args.paths,
            seed=args.seed,
            counting_mode=args.counting,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


# --- subcommand handlers ----------------------------------------------------
# Each returns (payload, input_paths, warnings).


def _cmd_ingest(args):
    fmt = args.format or _sniff_format(args.input)
    if fmt == "panel-csv":
        panels = corpus.load_corpus(args.input, "panel-csv")
        payload = {
            "format": fmt,
            "panels": [
                {
                    "discipline": p.discipline,
                    "dataset_year": p.dataset_year,
                    "n_ages": len(p.entries),
                    "population": p.population,
                    "missing_ages": list(p.missing_ages),
                }
                for p in panels
            ],
        }
        return payload, [args.input], []

    corp = corpus.load_corpus(args.input, "long-csv", retrieval_year=args.retrieval_year)
    disciplines = corp.discipline_names
    sizes = np.bincount(corp.member_disciplines, minlength=len(disciplines)).tolist()
    payload = {
        "format": fmt,
        "n_eprints": len(corp),
        "retrieval_year": corp.retrieval_year,
        "disciplines": dict(zip(disciplines, sizes)),
    }
    if args.percentiles:
        levels = _parse_number_list(args.percentiles, "--percentiles")
        payload["percentiles"] = {
            d: [dataclasses.asdict(corpus.percentile_summary(corp, d, p)) for p in levels]
            for d in disciplines
        }
    if args.echo:
        corpus.write_long_csv(corp, args.echo)
        payload["echo"] = Path(args.echo).name
    return payload, [args.input], []


def _cmd_fit_dist(args):
    corp = _load_corpus(args)
    members = corp.members(args.discipline)
    if not members.size:
        raise DataError(f"no eprints in discipline {args.discipline!r}")
    counts = corp.citation_totals(members, through=args.dataset_year)
    series = distfit.make_quantile_series(counts, exclude_zero=args.exclude_zero)
    payload = {
        "discipline": args.discipline,
        "dataset_year": args.dataset_year,
        "n_eprints": len(members),
        "n_points": len(series),
        "zero_excluded": series.zero_excluded,
        "lognormal": None,
        "power_law": None,
    }
    if args.model in ("lognormal", "both"):
        fit = distfit.fit_lognormal_quantile(series)
        payload["lognormal"] = dataclasses.asdict(fit)
    if args.model in ("power-law", "both"):
        fit = distfit.fit_power_law_quantile(series, args.q_min, theta=args.theta)
        payload["power_law"] = dataclasses.asdict(fit)
    if args.points:
        distfit.write_quantile_csv(series, args.points)
        payload["points"] = Path(args.points).name
    return payload, [args.input], []


def _select_panel(panels, discipline, dataset_year):
    matched = [p for p in panels if p.discipline == discipline]
    if not matched:
        raise DataError(f"no panel for discipline {discipline!r} in input")
    if dataset_year is None:
        return max(matched, key=lambda p: p.dataset_year)
    for p in matched:
        if p.dataset_year == dataset_year:
            return p
    raise DataError(f"no panel for {discipline!r} at dataset year {dataset_year}")


def _truncate_panel(panel, max_age, cap):
    entries = tuple(e for e in panel.entries if e.t <= max_age)
    missing = tuple(a for a in panel.missing_ages if a <= max_age)
    return corpus.AgePanel(
        discipline=panel.discipline,
        dataset_year=panel.dataset_year,
        percentile_cap=cap,
        entries=entries,
        missing_ages=missing,
    )


def _cmd_fit_history(args):
    fmt = args.format or _sniff_format(args.input)
    if fmt == "panel-csv":
        panels = corpus.load_corpus(args.input, "panel-csv")
        panel = _select_panel(panels, args.discipline, args.dataset_year)
        # The aggregate format cannot be re-capped; --cap only annotates
        # how the panel was built upstream.
        panel = _truncate_panel(panel, args.max_age, args.cap)
    else:
        corp = _load_corpus(args)
        year = args.dataset_year if args.dataset_year is not None else corp.retrieval_year
        cap = args.cap if args.cap is not None else DEFAULT_CAP
        panel = corpus.build_age_panel(corp, args.discipline, year, cap, args.max_age)
    options = historyfit.FitOptions(weight_by_population=args.weighted)
    fit = historyfit.fit_history(panel, options)
    if not fit.converged:
        raise ConvergenceError(f"history fit for {args.discipline!r} did not converge")
    payload = _fit_payload(fit)
    if args.curve:
        historyfit.write_curve_csv(fit.params, args.curve, t_max=float(max(panel.ages)))
        payload["curve"] = Path(args.curve).name
    return payload, [args.input], []


def _cmd_metrics(args):
    params, _ = _load_fit(args.fit)
    metrics = historyfit.derive_metrics(params)
    payload = {
        "params": params.to_dict(),
        "metrics": dataclasses.asdict(metrics),
        "splits": [],
    }
    if args.horizons:
        for T in _parse_number_list(args.horizons, "--horizons"):
            payload["splits"].append(dataclasses.asdict(historyfit.cumulative_split(params, T)))
    return payload, [args.fit], []


def _cmd_trend(args):
    corp = _load_corpus(args)
    panels = corpus.build_trend_subsets(
        corp,
        args.discipline,
        args.first_year,
        args.last_year,
        args.cap if args.cap is not None else DEFAULT_CAP,
        max_age=args.max_age,
    )
    points = historyfit.trend_metrics(panels)
    payload = {
        "discipline": args.discipline,
        "percentile_cap": args.cap if args.cap is not None else DEFAULT_CAP,
        "points": [p._asdict() for p in points],
    }
    if args.csv:
        write_csv(args.csv, historyfit.TrendPoint._fields, points)
        payload["csv"] = Path(args.csv).name
    return payload, [args.input], []


def _summary_stats(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def _cmd_gamma(args):
    corp = _load_corpus(args)
    params, _ = _load_fit(args.fit)
    year = args.dataset_year if args.dataset_year is not None else corp.retrieval_year
    scores, stars, warnings = gamma.score_eprints(corp, args.discipline, params, year)
    try:
        r = gamma.pearson_r([s.gamma for s in scores], [s.gamma_star for s in stars])
    except DataError:
        r = None  # fewer than 2 scores, or a constant score vector
    payload = {
        "discipline": args.discipline,
        "dataset_year": year,
        "n_scored": len(scores),
        "n_skipped": len(warnings),
        "gamma": _summary_stats([s.gamma for s in scores]),
        "gamma_star": _summary_stats([s.gamma_star for s in stars]),
        "pearson_r": r,
    }
    if args.scores:
        gamma.write_scores_csv(scores, stars, args.scores)
        payload["scores"] = Path(args.scores).name
    return payload, [args.input, args.fit], warnings


def _cmd_reckoner(args):
    params, fit = _load_fit(args.fit)
    c_levels = _parse_number_list(args.citations, "--citations")
    ages = _parse_number_list(args.ages, "--ages")
    label = args.discipline
    if label is None:
        # Fall back to the discipline recorded in the fit envelope, if any.
        label = str(fit.get("discipline", "") or "")
    reck = gamma.build_reckoner(params, c_levels, ages, discipline=label)
    payload = {
        "discipline": reck.discipline,
        "c_levels": list(reck.c_levels),
        "ages": list(reck.ages),
        "matrix": [[v for v in row] for row in reck.matrix],
    }
    if args.csv:
        gamma.write_reckoner_csv(reck, args.csv)
        payload["csv"] = Path(args.csv).name
    return payload, [args.fit], []


def _cmd_simulate(args):
    params, _ = _load_fit(args.fit)
    vol, vol_inputs = _load_vol(args)
    config = _sde_config(args)
    if args.ensemble:
        # Both CSV layouts need the whole matrix.
        ensemble = stochastic.simulate_ensemble(params, vol, config, method=args.method)
        counts = stochastic.count_citations(ensemble)
        x0 = float(ensemble.paths[0, 0])
    else:
        # Only the per-path counts are needed: stream the ensemble in blocks.
        counts = []
        for block in stochastic.ensemble_blocks(params, vol, config, args.method):
            counts.append(stochastic.count_citations(block))
        counts = np.concatenate(counts)
        x0 = float(block.paths[0, 0])  # every path starts at u(0)
    payload = {
        "params": params.to_dict(),
        "vol": dataclasses.asdict(vol),
        "config": dataclasses.asdict(config),
        "method": args.method,
        "x0": x0,
        "count_summary": _summary_stats(counts),
    }
    if args.ensemble:
        stochastic.write_ensemble_csv(ensemble, args.ensemble, mode=args.ensemble_mode)
        payload["ensemble"] = Path(args.ensemble).name
    return payload, [args.fit] + vol_inputs, []


def _cmd_verify(args):
    params, _ = _load_fit(args.fit)
    vol, vol_inputs = _load_vol(args)
    config = _sde_config(args)
    checks = stochastic.verify_ensemble(params, vol, config)
    payload = {
        "params": params.to_dict(),
        "vol": dataclasses.asdict(vol),
        "config": dataclasses.asdict(config),
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
    }
    warnings = [] if payload["overall_pass"] else ["one or more verification checks failed"]
    return payload, [args.fit] + vol_inputs, warnings


# --- plotting ---------------------------------------------------------------


class PlotSeries(NamedTuple):
    label: str
    x: Sequence[float]
    y: Sequence[float]
    style: str | None = None  # None inherits emit_plot's default


def _plot_extent(values, lo=None, hi=None):
    lo = min(values) if lo is None else min(lo, min(values))
    hi = max(values) if hi is None else max(hi, max(values))
    return lo, hi


def emit_plot(series: Sequence[PlotSeries], style: str = "line", out=None):
    """Render series to a minimal standalone SVG plus a sibling data CSV.

    Each series is a (label, x, y, style) tuple; per-series style falls
    back to the style argument ("line" or "scatter"). The sibling CSV
    (same stem, .csv suffix) holds the plotted points in long form so any
    external plotter can reproduce the figure.
    """
    if style not in ("line", "scatter"):
        raise UsageError(f"style must be 'line' or 'scatter', got {style!r}")
    if out is None:
        raise UsageError("emit_plot needs an output path")
    series = list(series)
    if not series:
        raise DataError("nothing to plot")
    for s in series:
        if len(s.x) != len(s.y):
            raise DataError(f"series {s.label!r}: x/y length mismatch")
        if len(s.x) < 2:
            raise InsufficientDataError(f"series {s.label!r} has fewer than 2 points")
        if s.style not in (None, "line", "scatter"):
            raise UsageError(f"series {s.label!r}: unknown style {s.style!r}")

    x_lo = x_hi = y_lo = y_hi = None
    for s in series:
        x_lo, x_hi = _plot_extent(s.x, x_lo, x_hi)
        y_lo, y_hi = _plot_extent(s.y, y_lo, y_hi)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    width, height = 640, 440
    left, right, top, bottom = 70, 150, 30, 50
    pw, ph = width - left - right, height - top - bottom

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return top + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        # axes
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        xp, yp = sx(xv), sy(yv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{top + ph}" x2="{xp:.1f}" y2="{top + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xp:.1f}" y="{top + ph + 18}" text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{yp:.1f}" x2="{left}" y2="{yp:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{yp + 4:.1f}" text-anchor="end">{yv:.4g}</text>'
        )

    for idx, s in enumerate(series):
        color = _PLOT_COLORS[idx % len(_PLOT_COLORS)]
        mode = s.style or style
        if mode == "line":
            points = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(s.x, s.y))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
            )
        else:
            for xi, yi in zip(s.x, s.y):
                parts.append(
                    f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="3" fill="{color}"/>'
                )
        ly = top + 15 + idx * 18
        lx = left + pw + 10
        if mode == "line":
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            parts.append(f'<circle cx="{lx + 10}" cy="{ly - 4}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{lx + 26}" y="{ly}">{escape(s.label, quote=False)}</text>')
    parts.append("</svg>")

    out = Path(out)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    sibling = out.with_suffix(".csv")
    write_csv(sibling, ["series", "x", "y"], (
        (s.label, float(xi), float(yi)) for s in series for xi, yi in zip(s.x, s.y)
    ))
    return out, sibling


def _cmd_plot(args):
    with open_csv(args.data) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{args.data}: empty file")
        columns = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in reader.fieldnames:
                columns[name].append(row[name])

    def numeric(col: str) -> list[float]:
        if col not in columns:
            raise UsageError(f"--data has no column {col!r}")
        out = []
        for i, raw in enumerate(columns[col], start=2):
            try:
                out.append(float(raw))
            except (TypeError, ValueError):
                raise DataError(f"{args.data}: row {i}: column {col!r} is not numeric")
        return out

    x = numeric(args.x)
    series = []
    for token in args.y.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"--y: empty element in {args.y!r}")
        if "=" in token:
            col, s_style = token.split("=", 1)
            if s_style not in ("line", "scatter"):
                raise UsageError(f"--y: unknown style {s_style!r} for {col!r}")
        else:
            col, s_style = token, None
        series.append(PlotSeries(label=col, x=x, y=numeric(col), style=s_style))

    svg_path, csv_path = emit_plot(series, style=args.style, out=args.svg)
    payload = {
        "svg": Path(svg_path).name,
        "csv": Path(csv_path).name,
        "x": args.x,
        "series": [
            {"label": s.label, "style": s.style or args.style, "n_points": len(s.x)}
            for s in series
        ],
    }
    return payload, [args.data], []


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would sys.exit(2); route through the shared exit-code map.
        raise UsageError(message)


def _add_vol_flags(p):
    p.add_argument("--vol", help="volatility JSON (bare {s1,s2} or a verify/fit envelope)")
    p.add_argument("--vol-series", help="CSV of (t,m) log-spread observations to fit")
    p.add_argument("--s1", type=float, help="volatility time offset (with --s2)")
    p.add_argument("--s2", type=float, help="volatility scale (with --s1)")


def _seed(text: str) -> int:
    # Each path's Philox key holds the seed as one uint64 word.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**64), got {value}")
    return value


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threads must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"threads must be >= 1, got {value}")
    return value


def _add_sde_flags(p):
    p.add_argument("--dt", type=float, default=0.01, help="grid step in years (default 0.01)")
    p.add_argument("--horizon", type=float, default=10.0, help="simulation horizon in years (default 10)")
    p.add_argument("--paths", type=int, default=1000, help="number of paths (default 1000)")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed in [0, 2**64) (default 0)")
    p.add_argument(
        "--counting",
        choices=stochastic.COUNTING_MODES,
        default="integral-floor",
        help="citation counting convention (default integral-floor)",
    )
    p.add_argument(
        "--threads",
        type=_threads,
        help="validated for compatibility (>= 1, as is CITEDYN_THREADS); the simulation "
        "runs on one thread and no longer depends on it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citedyn",
        description="Citation-history modeling pipeline: ingest data, fit "
        "distribution and history models, score eprints, simulate paths.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    p = sub.add_parser("ingest", parents=[], help="validate a corpus file and summarize it")
    p.add_argument("--input", required=True, help="corpus CSV")
    p.add_argument("--format", choices=("long-csv", "panel-csv"), help="input format (default: sniffed from header)")
    p.add_argument("--retrieval-year", type=int, help="override the derived retrieval year (long-csv)")
    p.add_argument("--percentiles", help="comma list of percentile levels to report, e.g. 0.5,0.9,0.99")
    p.add_argument("--echo", help="write the normalized corpus back out as long-csv")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("fit-dist", help="fit citation-count distribution models on the quantile scale")
    p.add_argument("--input", required=True, help="long-csv corpus")
    p.add_argument("--format", choices=("long-csv",), help=argparse.SUPPRESS)
    p.add_argument("--discipline", required=True)
    p.add_argument("--dataset-year", type=int, help="count citations through this year (default: lifetime)")
    p.add_argument("--exclude-zero", action="store_true", help="drop zero-citation eprints before ranking")
    p.add_argument("--model", choices=("lognormal", "power-law", "both"), default="lognormal")
    p.add_argument("--q-min", type=float, default=0.5, help="lower quantile bound for the power-law tail fit (default 0.5)")
    p.add_argument("--theta", type=float, default=None, help="power-law shift parameter (default 1)")
    p.add_argument("--points", help="write the quantile series CSV here")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_fit_dist)

    p = sub.add_parser("fit-history", help="fit the yearly-rate history model to an age panel")
    p.add_argument("--input", required=True, help="long-csv corpus or panel-csv aggregate")
    p.add_argument("--format", choices=("long-csv", "panel-csv"), help="input format (default: sniffed)")
    p.add_argument("--discipline", required=True)
    p.add_argument("--dataset-year", type=int, help="cut year (default: latest available)")
    p.add_argument("--cap", type=float, help=f"percentile cap in (0,1] (default {DEFAULT_CAP} when building from long-csv)")
    p.add_argument("--max-age", type=int, default=DEFAULT_MAX_AGE, help=f"largest age to fit (default {DEFAULT_MAX_AGE})")
    p.add_argument("--weighted", action="store_true", help="weight ages by sqrt(population)")
    p.add_argument("--curve", help="write the fitted curve samples CSV here")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_fit_history)

    p = sub.add_parser("metrics", help="closed-form metrics from a fitted history curve")
    p.add_argument("--fit", required=True, help="fit envelope or bare parameter JSON")
    p.add_argument("--horizons", help="comma list / a:b range of horizons for cumulative splits")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("trend", help="refit a discipline year by year and track its metrics")
    p.add_argument("--input", required=True, help="long-csv corpus")
    p.add_argument("--format", choices=("long-csv",), help=argparse.SUPPRESS)
    p.add_argument("--discipline", required=True)
    p.add_argument("--first-year", type=int, required=True)
    p.add_argument("--last-year", type=int, required=True)
    p.add_argument("--cap", type=float, help=f"percentile cap (default {DEFAULT_CAP})")
    p.add_argument("--max-age", type=int, help="fixed age span per panel (default: full window)")
    p.add_argument("--csv", help="write the trend table CSV here")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_trend)

    p = sub.add_parser("gamma", help="score eprints against their discipline's fitted curve")
    p.add_argument("--input", required=True, help="long-csv corpus")
    p.add_argument("--format", choices=("long-csv",), help=argparse.SUPPRESS)
    p.add_argument("--discipline", required=True)
    p.add_argument("--fit", required=True, help="fit envelope or bare parameter JSON")
    p.add_argument("--dataset-year", type=int, help="evaluation year (default: retrieval year)")
    p.add_argument("--scores", help="write per-eprint scores CSV here")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("reckoner", help="tabulate the index over a citations x ages grid")
    p.add_argument("--fit", required=True, help="fit envelope or bare parameter JSON")
    p.add_argument("--citations", required=True, help="comma list / a:b range of citation levels")
    p.add_argument("--ages", required=True, help="comma list / a:b range of ages")
    p.add_argument("--discipline", help="row label (default: taken from the fit envelope)")
    p.add_argument("--csv", help="write the reckoner table CSV here")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_reckoner)

    p = sub.add_parser("simulate", help="simulate stochastic rate paths around a fitted curve")
    p.add_argument("--fit", required=True, help="fit envelope or bare parameter JSON")
    _add_vol_flags(p)
    _add_sde_flags(p)
    p.add_argument("--method", choices=("exact", "euler"), default="exact")
    p.add_argument("--ensemble", help="write the ensemble CSV here")
    p.add_argument(
        "--ensemble-mode",
        choices=("paths", "summary"),
        default="paths",
        help="ensemble CSV layout (default paths)",
    )
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the stochastic-model property checks")
    p.add_argument("--fit", required=True, help="fit envelope or bare parameter JSON")
    _add_vol_flags(p)
    _add_sde_flags(p)
    p.add_argument("--out", required=True, help="verification report envelope JSON")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot", help="render CSV columns to a standalone SVG figure")
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--x", required=True, help="column for the horizontal axis")
    p.add_argument("--y", required=True, help="comma list of columns, each optionally col=line|scatter")
    p.add_argument("--style", choices=("line", "scatter"), default="line", help="default series style")
    p.add_argument("--svg", required=True, help="output SVG path (sibling CSV written next to it)")
    p.add_argument("--out", required=True, help="result envelope JSON")
    p.set_defaults(handler=_cmd_plot)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, write the envelope; returns the exit code."""
    parser = build_parser()
    collector = _WarningCollector()
    root = logging.getLogger("citedyn")
    root.addHandler(collector)
    try:
        args = parser.parse_args(argv)
        payload, inputs, warnings = args.handler(args)
        _write_envelope(args, payload, inputs, warnings + collector.messages)
        return 0
    except UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except CitedynError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        # Unreadable input or unwritable output path.
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    finally:
        root.removeHandler(collector)


def main() -> None:
    sys.exit(run_command())
