"""In-memory spans around citedyn's coarse public entry points.

A Tracer replaces module attributes such as `corpus.load_corpus` with
wrappers that record a span (name, start, end, parent) per call. Library
code that calls a sibling through the module global, as `trend_metrics`
calls `fit_history`, goes through the wrapper too, so nesting is kept.
Per-element helpers (`gamma_index`, `eval_history`) are left alone.

`least_squares` as `citedyn.historyfit` sees it is wrapped as a counter,
not a span: each optimizer start is recorded on the enclosing
`fit_history` span.

Spans stay in memory; `layer_metrics` folds them into the per-layer
metrics and `dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter

from citedyn import cli, corpus, distfit, gamma, historyfit, stochastic

ROOT = Path(__file__).resolve().parent.parent
FIT = "historyfit.fit_history"
# least_squares status 0: the start stopped at max_nfev.
STATUS_MAXED = 0
USEFUL_RTOL = 1e-9


# Every per-layer metric a traced run emits, with its unit, as BENCHMARK.json
# names them. layer_metrics fails on a span whose metric is not listed there.
PER_LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# Before-call hooks record what a call was given; after-call hooks record
# what a returning call did.


def _panel_discipline(span, args, kwargs):
    span.attrs["discipline"] = _arg(args, kwargs, 0, "panel").discipline


def _rows_read(span, args, kwargs, result):
    if isinstance(result, corpus.CitationCorpus):
        span.attrs["rows"] = sum(
            len(r.disciplines) * len(r.yearly_citations) for r in result.records
        )
    else:  # panel-csv: a list of panels
        span.attrs["rows"] = sum(len(p.entries) for p in result)


def _bytes_written(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _scored(span, args, kwargs, result):
    span.attrs["eprints"] = len(result[0])


def _simulated(span, args, kwargs, result):
    n_paths, width = result.paths.shape
    span.attrs["path_steps"] = n_paths * (width - 1)
    span.attrs["bytes"] = n_paths * width * 8
    # The pool size simulate_ensemble chooses: never more threads than paths.
    threads = stochastic._resolve_threads(_arg(args, kwargs, 4, "threads"))
    span.attrs["threads"] = min(threads, n_paths)


class Tracer:
    """Records spans while enabled; patches are undone by `close`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    # --- patching ----------------------------------------------------------

    def _patch(self, module, attr, name_of, after=None, before=None):
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            span = Span(name_of(args, kwargs), self._stack[-1] if self._stack else None)
            if before is not None:
                before(span, args, kwargs)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def _patch_fixed(self, module, attr, after=None, before=None):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        self._patch(module, attr, lambda a, k: name, after, before)

    def _count_starts(self):
        orig = historyfit.least_squares

        def wrapper(*args, **kwargs):
            fit = next((s for s in reversed(self._stack) if s.name == FIT), None)
            if not self.enabled or fit is None:
                return orig(*args, **kwargs)
            starts = fit.attrs.setdefault("starts", [])
            try:
                res = orig(*args, **kwargs)
            except Exception:
                starts.append(None)
                raise
            starts.append((int(res.status), int(res.nfev), float(res.cost)))
            return res

        historyfit.least_squares = wrapper
        self._patched.append((historyfit, "least_squares", orig))

    def install(self) -> "Tracer":
        self._patch_fixed(corpus, "load_corpus", _rows_read)
        self._patch_fixed(corpus, "build_age_panel")
        self._patch_fixed(corpus, "build_trend_subsets")
        self._patch_fixed(corpus, "percentile_summary")
        self._patch_fixed(corpus, "write_long_csv", _bytes_written)
        for name in ("make_quantile_series", "fit_lognormal_quantile",
                     "fit_power_law_quantile", "write_quantile_csv"):
            self._patch_fixed(distfit, name)
        self._patch_fixed(historyfit, "fit_history", before=_panel_discipline)
        for name in ("trend_metrics", "derive_metrics", "write_curve_csv"):
            self._patch_fixed(historyfit, name)
        self._count_starts()
        self._patch_fixed(gamma, "score_eprints", _scored)
        for name in ("build_reckoner", "write_scores_csv", "write_reckoner_csv"):
            self._patch_fixed(gamma, name)
        self._patch(stochastic, "simulate_ensemble",
                    lambda a, k: f"stochastic.simulate_ensemble.{_arg(a, k, 3, 'method', 'exact')}",
                    _simulated)
        self._patch_fixed(stochastic, "count_citations")
        self._patch(stochastic, "write_ensemble_csv",
                    lambda a, k: f"stochastic.write_ensemble_csv.{_arg(a, k, 2, 'mode', 'paths')}",
                    _bytes_written)
        self._patch(cli, "run_command", lambda a, k: f"cli.{a[0][0]}")
        return self

    def close(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # --- reading -----------------------------------------------------------

    def spans_between(self, start: float, end: float) -> list[Span]:
        return [s for s in self.spans if s.start >= start and s.end <= end]

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                **s.attrs,
            }
            for s in self.spans
        ]


def _nearest_rank(sorted_values, p: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def layer_metrics(spans: list[Span], flat_discipline: str) -> dict[str, float]:
    """Fold one traced repetition's spans into the per-layer metrics.

    Every metric in PER_LAYER_UNITS, with 0 for the two `trace.*` ones and
    `stochastic.simulate_ensemble.exact_t1.s`, which the caller measures.
    A layer the workload never calls reports 0. `flat_s` is the time of
    the fits of panels labelled flat_discipline, whether they return or raise.
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    fits = []
    for s in spans:
        layer = s.name.split(".", 1)[0]
        m[f"{layer}.self_s"] += s.self_s
        if layer == "cli":
            m[f"{s.name}.s"] += s.duration
            m[f"{s.name}.self_s"] += s.self_s
            continue
        m[f"{s.name}.s"] += s.duration
        if s.name == "corpus.load_corpus":
            m["corpus.load_corpus.calls"] += 1
            m["corpus.load_corpus.rows"] += s.attrs["rows"]
        elif s.name == "corpus.write_long_csv":
            m["corpus.write_long_csv.bytes"] += s.attrs["bytes"]
        elif s.name == "gamma.score_eprints":
            m["gamma.score_eprints.eprints"] += s.attrs["eprints"]
        elif s.name.startswith("stochastic.simulate_ensemble."):
            m["stochastic.simulate_ensemble.path_steps"] += s.attrs["path_steps"]
            m["stochastic.simulate_ensemble.bytes"] += s.attrs["bytes"]
            m["stochastic.simulate_ensemble.threads"] = max(
                m["stochastic.simulate_ensemble.threads"], s.attrs["threads"]
            )
        elif s.name == "stochastic.write_ensemble_csv.paths":
            m["stochastic.write_ensemble_csv.paths.bytes"] += s.attrs["bytes"]
        elif s.name == FIT:
            fits.append(s)

    starts = useful = 0
    for fit in fits:
        tried = fit.attrs.get("starts", [])
        costs = [t[2] for t in tried if t is not None]
        best = min(costs, default=math.inf)
        starts += len(tried)
        useful += sum(c <= best * (1.0 + USEFUL_RTOL) for c in costs)
        m["historyfit.nfev"] += sum(t[1] for t in tried if t is not None)
        m["historyfit.starts_maxed"] += sum(t is not None and t[0] == STATUS_MAXED
                                            for t in tried)
        m["historyfit.starts_raised"] += sum(t is None for t in tried)
    m["historyfit.starts"] = starts
    m["historyfit.starts_useful_frac"] = useful / starts if starts else 0.0
    durations = sorted(f.duration * 1e3 for f in fits)
    m["historyfit.fit_history.calls"] = len(fits)
    m["historyfit.fit_history.p50_ms"] = statistics.median(durations) if durations else 0.0
    # p85: the highest percentile leaving at least ten of refit's 71 fits above it.
    m["historyfit.fit_history.p85_ms"] = _nearest_rank(durations, 0.85)
    m["historyfit.fit_history.flat_s"] = sum(
        f.duration for f in fits if f.attrs.get("discipline") == flat_discipline)
    return m
