"""Command-line surface tying the pipeline together.

Subcommands: ingest, fit-dist, fit-history, metrics, trend, gamma,
reckoner, simulate, verify, plot. Every subcommand writes a JSON result
envelope to --out carrying the tool version, a UTC timestamp, sha256
digests of its input files, the subcommand name, a payload of results,
and every warning the library logged along the way. Bulk numeric
artifacts (score tables, ensembles, figures) go to separate files named
by dedicated flags; all CSV numbers use full round-trip precision.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence
failure.
"""

from __future__ import annotations

import argparse
import collections
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
    DataError,
    DomainError,
    InsufficientDataError,
    UsageError,
)

__all__ = ["build_parser", "run_command", "main", "emit_plot", "PlotSeries"]

DEFAULT_CAP = 0.99
DEFAULT_MAX_AGE = 20
# Values one a:b range may expand to: the age domain, which is also
# build_age_panel's bound on max_age.
_MAX_RANGE = corpus.MAX_YEAR - corpus.MIN_SUBMIT_YEAR

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


def _write_envelope(args, payload: dict, warnings: list[str]) -> None:
    # Every input flag given is digested, and every artifact flag given
    # (each output but --out) is named in the payload by its basename.
    for name, path in _given(args, _OUTPUT_FLAGS):
        if name != "out":
            payload[name] = Path(path).name
    envelope = {
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "input_digest": {Path(p).name: _sha256(p) for _, p in _given(args, _INPUT_FLAGS)},
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
            if hi - lo >= _MAX_RANGE:
                raise UsageError(f"{flag}: range {token!r} holds more than {_MAX_RANGE} values")
            out.extend(float(v) for v in range(lo, hi + 1))
        else:
            try:
                out.append(float(token))
            except ValueError:
                raise UsageError(f"{flag}: not a number: {token!r}")
    return out


def _sniff_format(path) -> str:
    """The format whose every column the header names, in any order."""
    with open_csv(path) as fh:
        header = set(next(csv.reader(fh), ()))
    if header.issuperset(corpus.LONG_CSV_COLUMNS):
        return "long-csv"
    if header.issuperset(corpus.PANEL_CSV_COLUMNS):
        return "panel-csv"
    raise UsageError(
        f"{path}: cannot infer format: the header holds neither every long-csv column "
        f"{list(corpus.LONG_CSV_COLUMNS)} nor every panel-csv column "
        f"{list(corpus.PANEL_CSV_COLUMNS)}"
    )


def _load_corpus(args) -> corpus.CitationCorpus:
    fmt = _sniff_format(args.input)
    if fmt != "long-csv":
        raise UsageError(f"this subcommand needs long-csv input, got {fmt}")
    return corpus.load_corpus(args.input, "long-csv")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise DataError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    return data


def _inner(data: dict, key: str) -> dict:
    """data[key] when it is a nested object, or data itself when it is bare."""
    inner = data.get(key)
    return inner if isinstance(inner, dict) else data


def _load_fit(path) -> tuple[historyfit.HistoryParams, dict]:
    """History parameters from a fit envelope or a bare parameter object,
    and the payload they were read from."""
    payload = _inner(_load_json(path), "payload")
    try:
        return historyfit.HistoryParams.from_dict(_inner(payload, "params")), payload
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: no usable history parameters ({exc})")


def _load_vol(args) -> stochastic.VolatilityFit:
    """Volatility from --vol JSON, --vol-series CSV, or --s1/--s2."""
    sources = [args.vol is not None, args.vol_series is not None,
               args.s1 is not None or args.s2 is not None]
    if sum(sources) != 1:
        raise UsageError("give exactly one of --vol, --vol-series, or --s1/--s2")
    if args.vol is not None:
        candidate = _inner(_inner(_load_json(args.vol), "payload"), "vol")
        try:
            return stochastic.VolatilityFit.from_dict(candidate)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.vol}: no usable volatility parameters ({exc})")
    if args.vol_series is not None:
        columns = _float_columns(args.vol_series, ("t", "m"),
                                 lambda _: DataError(f"{args.vol_series}: expected columns t,m"))
        return stochastic.fit_volatility(zip(columns["t"], columns["m"]))
    if args.s1 is None or args.s2 is None:
        raise UsageError("--s1 and --s2 must be given together")
    return stochastic.volatility(args.s1, args.s2)


def _float_columns(path, names, missing) -> dict[str, list[float]]:
    """The named columns of a CSV with a header row, as floats; missing(name)
    is the error raised for a column the header lacks."""
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        columns = {name: [] for name in names}
        for name in columns:
            if name not in reader.fieldnames:
                raise missing(name)
        for row_no, row in enumerate(reader, start=2):
            for name, column in columns.items():
                try:
                    column.append(float(row[name]))
                except (TypeError, ValueError):
                    raise DataError(f"{path}: row {row_no}: column {name!r} is not numeric")
    return columns


class _WarningCollector(logging.Handler):
    """Collects the citedyn.* loggers' warnings, in the order logged, for
    the result envelope."""

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
        "se": {k: getattr(fit, f"se_{k}") for k in ("A", "mu", "sigma", "B", "lambda")},
        "r2_adj": fit.r2_adj,
        "converged": fit.converged,
        "diagnostics": fit.diagnostics.to_dict(),
    }


def _sde_setup(args):
    """simulate's and verify's (params, vol, config) and the payload head reporting them."""
    params, _ = _load_fit(args.fit)
    vol = _load_vol(args)
    # SdeConfig owns the checks; a value it refuses is a bad flag.
    try:
        config = stochastic.SdeConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                                      seed=args.seed, counting_mode=args.counting)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "params": params.to_dict(),
        "vol": dataclasses.asdict(vol),
        "config": dataclasses.asdict(config),
    }
    return params, vol, config, payload


# --- subcommand handlers ----------------------------------------------------
# Each returns its payload; warnings reach the envelope through the
# citedyn.* loggers.


def _cmd_ingest(args):
    fmt = _sniff_format(args.input)
    if fmt == "panel-csv":
        for name in ("echo", "percentiles"):
            if getattr(args, name):
                raise UsageError(f"--{name} needs long-csv input, got panel-csv")
        panels = corpus.load_corpus(args.input, "panel-csv", retrieval_year=args.retrieval_year)
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
        return payload

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
    return payload


def _cmd_fit_dist(args):
    corp = _load_corpus(args)
    members = corp.members(args.discipline)
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
    return payload


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
    return dataclasses.replace(
        panel,
        percentile_cap=cap,
        entries=tuple(e for e in panel.entries if e.t <= max_age),
        missing_ages=tuple(a for a in panel.missing_ages if a <= max_age),
    )


def _cmd_fit_history(args):
    if _sniff_format(args.input) == "panel-csv":
        panels = corpus.load_corpus(args.input, "panel-csv")
        panel = _select_panel(panels, args.discipline, args.dataset_year)
        # The aggregate format cannot be re-capped; --cap only annotates
        # how the panel was built upstream.
        panel = _truncate_panel(panel, args.max_age, args.cap)
    else:
        corp = corpus.load_corpus(args.input, "long-csv")
        year = args.dataset_year if args.dataset_year is not None else corp.retrieval_year
        cap = args.cap if args.cap is not None else DEFAULT_CAP
        panel = corpus.build_age_panel(corp, args.discipline, year, cap, args.max_age)
    fit = historyfit.fit_history(panel, weighted=args.weighted)
    payload = _fit_payload(fit)
    if args.curve:
        historyfit.write_curve_csv(fit.params, args.curve, t_max=float(max(panel.ages)))
    return payload


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
    return payload


def _cmd_trend(args):
    corp = _load_corpus(args)
    panels = corpus.build_trend_subsets(
        corp,
        args.discipline,
        args.first_year,
        args.last_year,
        args.cap,
        max_age=args.max_age,
    )
    points = historyfit.trend_metrics(panels)
    payload = {
        "discipline": args.discipline,
        "percentile_cap": args.cap,
        "points": [p._asdict() for p in points],
    }
    if args.csv:
        write_csv(args.csv, historyfit.TrendPoint._fields, points)
    return payload


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
    scores, stars = gamma.score_eprints(corp, args.discipline, params, year)
    try:
        r = gamma.pearson_r([s.gamma for s in scores], [s.gamma_star for s in stars])
    except DataError:
        r = None  # fewer than 2 scores, or a constant score vector
    payload = {
        "discipline": args.discipline,
        "dataset_year": year,
        "n_scored": len(scores),
        "n_skipped": len(corp.members(args.discipline)) - len(scores),
        "gamma": _summary_stats([s.gamma for s in scores]),
        "gamma_star": _summary_stats([s.gamma_star for s in stars]),
        "pearson_r": r,
    }
    if args.scores:
        gamma.write_scores_csv(scores, stars, args.scores)
    return payload


def _cmd_reckoner(args):
    params, fit = _load_fit(args.fit)
    c_levels = _parse_number_list(args.citations, "--citations")
    ages = _parse_number_list(args.ages, "--ages")
    label = args.discipline
    if label is None:
        # Fall back to the discipline recorded in the fit envelope, if any.
        label = str(fit.get("discipline", "") or "")
    reck = gamma.build_reckoner(params, c_levels, ages, discipline=label)
    payload = dataclasses.asdict(reck)
    if args.csv:
        gamma.write_reckoner_csv(reck, args.csv)
    return payload


def _cmd_simulate(args):
    params, vol, config, payload = _sde_setup(args)
    counts = []

    def counted_blocks():
        # The per-path counts are taken from each block as the CSV writer
        # (or, without --ensemble, the deque below) consumes it, so the
        # ensemble is simulated once.
        for block in stochastic.ensemble_blocks(params, vol, config, args.method):
            counts.append(stochastic.count_citations(block))
            yield block
            del block  # freed before the next block is simulated

    if args.ensemble:
        stochastic.write_ensemble_csv(counted_blocks(), args.ensemble, mode=args.ensemble_mode)
    else:
        collections.deque(counted_blocks(), maxlen=0)  # consume, keeping no block
    payload["method"] = args.method
    payload["x0"] = historyfit.eval_history(params, 0.0)  # every path starts at u(0)
    payload["count_summary"] = _summary_stats(np.concatenate(counts))
    return payload


def _cmd_verify(args):
    params, vol, config, payload = _sde_setup(args)
    payload["checks"] = stochastic.verify_ensemble(params, vol, config)
    payload["overall_pass"] = all(c["pass"] for c in payload["checks"])
    return payload


# --- plotting ---------------------------------------------------------------


_PLOT_STYLES = ("line", "scatter")


def _check_style(style) -> None:
    if style not in _PLOT_STYLES:
        raise UsageError(f"style must be {' or '.join(map(repr, _PLOT_STYLES))}, got {style!r}")


class PlotSeries(NamedTuple):
    label: str
    x: Sequence[float]
    y: Sequence[float]
    style: str | None = None  # None inherits emit_plot's default


def emit_plot(series: Sequence[PlotSeries], style: str = "line", *, out):
    """Render series to a minimal standalone SVG at out plus a sibling data CSV.

    Each series is a (label, x, y, style) tuple; per-series style falls
    back to the style argument ("line" or "scatter"). The sibling CSV
    (same stem, .csv suffix) holds the plotted points in long form so any
    external plotter can reproduce the figure. out is required. A series
    with a NaN or infinite coordinate, which SVG cannot place, raises
    DataError.
    """
    _check_style(style)
    series = list(series)
    if not series:
        raise DataError("nothing to plot")
    for s in series:
        if len(s.x) != len(s.y):
            raise DataError(f"series {s.label!r}: x/y length mismatch")
        if len(s.x) < 2:
            raise InsufficientDataError(f"series {s.label!r} has fewer than 2 points")
        if not all(map(math.isfinite, [*s.x, *s.y])):
            raise DataError(f"series {s.label!r} has a non-finite point")
        if s.style is not None:
            _check_style(s.style)

    x_lo, x_hi = min(min(s.x) for s in series), max(max(s.x) for s in series)
    y_lo, y_hi = min(min(s.y) for s in series), max(max(s.y) for s in series)
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
    # Every --y spec is parsed before --data is read, so a bad spec (exit 1)
    # is reported ahead of a bad cell (exit 2).
    specs = []
    for token in args.y.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"--y: empty element in {args.y!r}")
        col, sep, s_style = token.partition("=")
        if sep:
            _check_style(s_style)
        specs.append((col, s_style or None))
    columns = _float_columns(args.data, [args.x, *(col for col, _ in specs)],
                             lambda col: UsageError(f"--data has no column {col!r}"))
    series = [PlotSeries(label=col, x=columns[args.x], y=columns[col], style=s_style)
              for col, s_style in specs]

    _, csv_path = emit_plot(series, style=args.style, out=args.svg)
    payload = {
        "csv": Path(csv_path).name,
        "x": args.x,
        "series": [
            {"label": s.label, "style": s.style or args.style, "n_points": len(s.x)}
            for s in series
        ],
    }
    return payload


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


def _add_sde_flags(p):
    p.add_argument("--dt", type=float, default=0.01, help="grid step in years (default 0.01)")
    p.add_argument("--horizon", type=float, default=10.0, help="simulation horizon in years (default 10)")
    p.add_argument("--paths", type=int, default=1000, help="number of paths (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2**64) (default 0)")
    p.add_argument(
        "--counting",
        choices=stochastic.COUNTING_MODES,
        default="integral-floor",
        help="citation counting convention (default integral-floor)",
    )
    # Still parsed because perfbench's ensemble workload passes --threads 1
    # (ROADMAP item 4).
    p.add_argument("--threads", type=int, help="ignored: the simulation runs on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citedyn",
        description="Citation-history modeling pipeline: ingest data, fit "
        "distribution and history models, score eprints, simulate paths.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="result envelope JSON")
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--fit", required=True, help="fit envelope or bare parameter JSON")

    p = sub.add_parser("ingest", parents=[out], help="validate a corpus file and summarize it")
    p.add_argument("--input", required=True, help="corpus CSV")
    p.add_argument("--retrieval-year", type=int, help="override the derived retrieval year (long-csv)")
    p.add_argument("--percentiles", help="comma list of percentile levels to report, e.g. 0.5,0.9,0.99")
    p.add_argument("--echo", help="write the normalized corpus back out as long-csv")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("fit-dist", parents=[out], help="fit citation-count distribution models on the quantile scale")
    p.add_argument("--input", required=True, help="long-csv corpus")
    p.add_argument("--discipline", required=True)
    p.add_argument("--dataset-year", type=int, help="count citations through this year (default: lifetime)")
    p.add_argument("--exclude-zero", action="store_true", help="drop zero-citation eprints before ranking")
    p.add_argument("--model", choices=("lognormal", "power-law", "both"), default="lognormal")
    p.add_argument("--q-min", type=float, default=0.5, help="lower quantile bound for the power-law tail fit (default 0.5)")
    p.add_argument("--theta", type=float, default=None, help="power-law shift parameter (default 1)")
    p.add_argument("--points", help="write the quantile series CSV here")
    p.set_defaults(handler=_cmd_fit_dist)

    p = sub.add_parser("fit-history", parents=[out], help="fit the yearly-rate history model to an age panel")
    p.add_argument("--input", required=True, help="long-csv corpus or panel-csv aggregate")
    p.add_argument("--discipline", required=True)
    p.add_argument("--dataset-year", type=int, help="cut year (default: latest available)")
    p.add_argument("--cap", type=float, help=f"percentile cap in (0,1] (default {DEFAULT_CAP} when building from long-csv)")
    p.add_argument("--max-age", type=int, default=DEFAULT_MAX_AGE, help=f"largest age to fit (default {DEFAULT_MAX_AGE})")
    p.add_argument("--weighted", action="store_true", help="weight ages by sqrt(population)")
    p.add_argument("--curve", help="write the fitted curve samples CSV here")
    p.set_defaults(handler=_cmd_fit_history)

    p = sub.add_parser("metrics", parents=[fit, out], help="closed-form metrics from a fitted history curve")
    p.add_argument("--horizons", help="comma list / a:b range of horizons for cumulative splits")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("trend", parents=[out], help="refit a discipline year by year and track its metrics")
    p.add_argument("--input", required=True, help="long-csv corpus")
    p.add_argument("--discipline", required=True)
    p.add_argument("--first-year", type=int, required=True)
    p.add_argument("--last-year", type=int, required=True)
    p.add_argument("--cap", type=float, default=DEFAULT_CAP, help=f"percentile cap (default {DEFAULT_CAP})")
    p.add_argument("--max-age", type=int, help="fixed age span per panel (default: full window)")
    p.add_argument("--csv", help="write the trend table CSV here")
    p.set_defaults(handler=_cmd_trend)

    p = sub.add_parser("gamma", parents=[fit, out], help="score eprints against their discipline's fitted curve")
    p.add_argument("--input", required=True, help="long-csv corpus")
    p.add_argument("--discipline", required=True)
    p.add_argument("--dataset-year", type=int, help="evaluation year (default: retrieval year)")
    p.add_argument("--scores", help="write per-eprint scores CSV here")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("reckoner", parents=[fit, out], help="tabulate the index over a citations x ages grid")
    p.add_argument("--citations", required=True, help="comma list / a:b range of citation levels")
    p.add_argument("--ages", required=True, help="comma list / a:b range of ages")
    p.add_argument("--discipline", help="row label (default: taken from the fit envelope)")
    p.add_argument("--csv", help="write the reckoner table CSV here")
    p.set_defaults(handler=_cmd_reckoner)

    p = sub.add_parser("simulate", parents=[fit, out], help="simulate stochastic rate paths around a fitted curve")
    _add_vol_flags(p)
    _add_sde_flags(p)
    p.add_argument("--method", choices=stochastic.METHODS, default="exact")
    p.add_argument("--ensemble", help="write the ensemble CSV here")
    p.add_argument(
        "--ensemble-mode",
        choices=stochastic.ENSEMBLE_MODES,
        default="paths",
        help="ensemble CSV layout (default paths)",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", parents=[fit, out], help="run the stochastic-model property checks")
    _add_vol_flags(p)
    _add_sde_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot", parents=[out], help="render CSV columns to a standalone SVG figure")
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--x", required=True, help="column for the horizontal axis")
    p.add_argument("--y", required=True, help="comma list of columns, each optionally col=line|scatter")
    p.add_argument("--style", choices=_PLOT_STYLES, default="line", help="default series style")
    p.add_argument("--svg", required=True, help="output SVG path (sibling CSV written next to it)")
    p.set_defaults(handler=_cmd_plot)

    return parser


# Each file flag's role, stated only here: inputs are digested, outputs refused on a clash.
_INPUT_FLAGS = ("input", "fit", "vol", "vol_series", "data")
_OUTPUT_FLAGS = ("out", "echo", "points", "curve", "csv", "scores", "ensemble", "svg")


def _given(args, names) -> list:
    """(flag, value) for each of names that args holds a value for."""
    return [(name, value) for name in names if (value := getattr(args, name, None))]


def _flag(args, name) -> str:
    return f"--{name.replace('_', '-')} {getattr(args, name)}"


def _refuse_overwrite(args) -> None:
    # Before anything is read or written: two different inputs may not
    # share the basename that keys their digest, and no output may replace
    # an input or another output. Path.resolve follows symlinks only; hard
    # links are not detected.
    taken, keyed = {}, {}
    for name, value in _given(args, _INPUT_FLAGS):
        path = Path(value).resolve()
        taken[path] = name
        first = keyed.setdefault(Path(value).name, name)
        if Path(getattr(args, first)).resolve() != path:
            raise UsageError(f"{_flag(args, name)} and {_flag(args, first)} are "
                             f"different files with one basename, which keys input_digest")
    outputs = _given(args, _OUTPUT_FLAGS)
    if getattr(args, "svg", None):
        outputs.append(("svg", Path(args.svg).with_suffix(".csv")))  # plot's sibling CSV
    for name, value in outputs:
        path = Path(value).resolve()
        if path in taken:
            raise UsageError(f"{_flag(args, name)} would overwrite {_flag(args, taken[path])}")
        taken[path] = name


def run_command(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, write the envelope; returns the exit code."""
    parser = build_parser()
    collector = _WarningCollector()
    root = logging.getLogger("citedyn")
    root.addHandler(collector)
    try:
        args = parser.parse_args(argv)
        _refuse_overwrite(args)
        _write_envelope(args, args.handler(args), collector.messages)
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
