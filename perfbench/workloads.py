"""The benchmark's three workloads: inputs, the timed chain, and its checks.

Each workload is driven by worker.py in the same order:

    setup(work)              generate the inputs and write them all to work
                             (in set-up processes of their own)
    load(work)               read back what the chain needs (in the chain's process)
    chain(rep)               the timed repetition; returns its operations
    check(rep, ops, first)   verify the repetition's outputs
    finish(rep, ops)         untimed work after the last repetition, given its
                             operations; returns any operations it adds
    notes(ops)               facts about the last repetition for the details line

An operation is one CLI call or one checked library call. A check that
fails marks its operation failed with the reason, and any failed
operation makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import _reference as ref
import inputs
from citedyn import cli, corpus, historyfit
from citedyn.errors import CitedynError, ConvergenceError


@dataclass
class Op:
    name: str
    failures: list[str] = field(default_factory=list)
    result: object = None  # a CLI call's envelope payload, or a library call's return

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    @property
    def ok(self) -> bool:
        return not self.failures


def cli_op(argv: list[str], rep: Path, out: str) -> Op:
    """Run one subcommand through cli.run_command, envelope into rep/out."""
    op = Op(f"cli.{argv[0]}")
    rc = cli.run_command(argv + ["--out", str(rep / out)])
    if rc != 0:
        op.fail(f"exit code {rc}")
    return op


def read_payloads(ops: list[Op], rep: Path, outs: list[str]) -> None:
    for op, out in zip(ops, outs):
        if op.ok:
            op.result = json.loads((rep / out).read_text(encoding="utf-8"))["payload"]


def rel_err(got: float, want: float) -> float:
    return abs(got / want - 1.0)


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is the benchmark; TINY exists for the smoke test."""

    n_eprints: int
    summary_paths: int
    dump_paths: int
    verify_paths: int
    ensemble_paths: int
    euler_paths: int
    dt: float
    reference_rows: int | None  # None: all 30 reference rows
    flat_eprints: int


FULL = Scale(n_eprints=20_000, summary_paths=2_000, dump_paths=1_000, verify_paths=10_000,
             ensemble_paths=20_000, euler_paths=1_000, dt=0.01, reference_rows=None,
             flat_eprints=inputs.FLAT_EPRINTS)
# dt=0.5 keeps the verify checks at 10k paths cheap: the exact sampler's
# marginals at the grid nodes do not depend on the step.
TINY = Scale(n_eprints=600, summary_paths=50, dump_paths=20, verify_paths=10_000,
             ensemble_paths=500, euler_paths=50, dt=0.5, reference_rows=2,
             flat_eprints=2_100)
SCALES = {"full": FULL, "tiny": TINY}

# Simulation seed of every simulate/verify call. The exact sampler's X(t)/u(t)
# depends only on the volatility, the grid and this seed, so with it fixed
# the statistical checks of `verify` read the same on every workload seed
# instead of failing at their designed 3-sigma rate on a few of them.
SDE_SEED = 0


def _sde_flags(scale: Scale, paths: int) -> list[str]:
    return ["--dt", repr(scale.dt), "--horizon", "10", "--paths", str(paths),
            "--seed", str(SDE_SEED)]


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.work: Path | None = None

    def setup(self, work: Path) -> dict[str, str]:
        raise NotImplementedError

    def load(self, work: Path) -> None:
        self.work = work
        self.first_digests: dict[str, str] = {}

    def chain(self, rep: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, rep: Path, ops: list[Op], first: bool) -> None:
        raise NotImplementedError

    def finish(self, rep: Path, ops: list[Op]) -> list[Op]:
        return []

    def notes(self, ops: list[Op]) -> dict:
        return {}


# --- pipeline -----------------------------------------------------------------


class Pipeline(Workload):
    """The north-star CLI chain on a seeded cohort corpus."""

    name = "pipeline"
    discipline = inputs.COHORT_DISCIPLINES[0]
    # Output file -> index of the operation that writes it.
    artifacts = {"echo.csv": 0, "points.csv": 1, "curve.csv": 2, "reckoner.csv": 4,
                 "scores.csv": 5, "summary.csv": 6, "paths.csv": 7}

    def setup(self, work: Path) -> dict[str, str]:
        corp = inputs.cohort_corpus(self.seed, self.scale.n_eprints)
        inputs.write_cohort_csv(corp, work / "corpus.csv")
        inputs.write_json(inputs.VOLATILITY, work / "vol.json")
        return {f: inputs.sha256(work / f) for f in ("corpus.csv", "vol.json")}

    def chain(self, rep: Path) -> list[Op]:
        w, d, s = self.work, self.discipline, self.scale
        data, fit, vol = str(w / "corpus.csv"), str(rep / "fit.json"), str(w / "vol.json")
        steps = [
            (["ingest", "--input", data, "--percentiles", "0.5,0.9,0.99",
              "--echo", str(rep / "echo.csv")], "ingest.json"),
            (["fit-dist", "--input", data, "--discipline", d, "--model", "both",
              "--points", str(rep / "points.csv")], "fit-dist.json"),
            (["fit-history", "--input", data, "--discipline", d,
              "--curve", str(rep / "curve.csv")], "fit.json"),
            (["metrics", "--fit", fit, "--horizons", "2,5,10"], "metrics.json"),
            (["reckoner", "--fit", fit, "--citations", "5,10,50,100", "--ages", "2:10",
              "--csv", str(rep / "reckoner.csv")], "reckoner.json"),
            (["gamma", "--input", data, "--discipline", d, "--fit", fit,
              "--scores", str(rep / "scores.csv")], "gamma.json"),
            (["simulate", "--fit", fit, "--vol", vol, *_sde_flags(s, s.summary_paths),
              "--ensemble-mode", "summary", "--ensemble", str(rep / "summary.csv")],
             "simulate-summary.json"),
            (["simulate", "--fit", fit, "--vol", vol, *_sde_flags(s, s.dump_paths),
              "--ensemble", str(rep / "paths.csv")], "simulate-paths.json"),
            (["verify", "--fit", fit, "--vol", vol, *_sde_flags(s, s.verify_paths)],
             "verify.json"),
        ]
        self.outs = [out for _, out in steps]
        return [cli_op(argv, rep, out) for argv, out in steps]

    def check(self, rep: Path, ops: list[Op], first: bool) -> None:
        read_payloads(ops, rep, self.outs)
        _, _, fit, _, _, gam, _, _, verify = ops
        if fit.ok:
            fit.expect(fit.result["converged"] is True, "fit did not converge")
        if gam.ok:
            star = gam.result["gamma_star"]
            gam.expect(abs(star["mean"]) <= 0.05, f"gamma* mean {star['mean']}")
            gam.expect(abs(star["sd"] - 1.0) <= 0.05, f"gamma* sd {star['sd']}")
        if verify.ok:
            verify.expect(verify.result["overall_pass"] is True, "verify failed")
        _check_repeatable(self, rep, ops, first)

    def finish(self, rep: Path, ops: list[Op]) -> list[Op]:
        """The --echo round trip, on the last repetition (every repetition's
        echo.csv matches the first's). The corpus is generated again here,
        after the chain's peak RSS is read, so it never adds to that peak."""
        ingest = ops[0]
        if ingest.ok:
            expected = inputs.cohort_corpus(self.seed, self.scale.n_eprints)
            echoed = corpus.load_corpus(rep / "echo.csv", "long-csv")
            ingest.expect(inputs.same_corpus(expected, echoed),
                          "echoed corpus differs from the input")
        return []


def _check_repeatable(workload: Workload, rep: Path, ops: list[Op], first: bool) -> None:
    # Same inputs, same bytes: every repetition's artifacts match the first's.
    for name, index in workload.artifacts.items():
        op = ops[index]
        if not op.ok:
            continue
        digest = inputs.sha256(rep / name)
        if first:
            workload.first_digests[name] = digest
        else:
            op.expect(workload.first_digests.get(name) == digest,
                      f"{name} differs between repetitions")


# --- refit --------------------------------------------------------------------


class Refit(Workload):
    """History fitting: the gate's reference panels, a drift trend, a flat panel."""

    name = "refit"
    artifacts = {"trend.csv": -2}
    trend_years = (2010, 2019)

    def setup(self, work: Path) -> dict[str, str]:
        rows = ref.all_reference_rows()[: self.scale.reference_rows]
        panels = inputs.reference_panels(rows)
        flat = inputs.flat_panel(self.scale.flat_eprints)
        inputs.write_drift_csv(work / "drift.csv")
        (work / "panels.pickle").write_bytes(pickle.dumps((panels, flat)))
        return {
            "drift.csv": inputs.sha256(work / "drift.csv"),
            "reference_panels": inputs.panel_digest(p for _, _, p, _ in panels),
            "flat_panel": inputs.panel_digest([flat]),
        }

    def load(self, work: Path) -> None:
        super().load(work)
        self.panels, self.flat = pickle.loads((work / "panels.pickle").read_bytes())

    def chain(self, rep: Path) -> list[Op]:
        ops = [
            _fit_op(f"fit_history {label}{' noisy' if noisy else ''}", panel)
            for label, _, panel, noisy in self.panels
        ]
        first, last = self.trend_years
        ops.append(cli_op(
            ["trend", "--input", str(self.work / "drift.csv"),
             "--discipline", ref.DRIFT_DISCIPLINE, "--first-year", str(first),
             "--last-year", str(last), "--cap", "1.0", "--max-age", str(ref.DRIFT_MAX_AGE),
             "--csv", str(rep / "trend.csv")],
            rep, "trend.json"))
        ops.append(_fit_op("fit_history flat", self.flat, refusal_ok=True))
        return ops

    def check(self, rep: Path, ops: list[Op], first: bool) -> None:
        for op, (_, truth, panel, noisy) in zip(ops, self.panels):
            if op.ok:
                _check_reference_fit(op, op.result, truth, panel, noisy)
        trend, flat = ops[-2], ops[-1]
        read_payloads([trend], rep, ["trend.json"])
        if trend.ok:
            points = trend.result["points"]
            s = [p["s_rate"] for p in points]
            r = [p["r_rate"] for p in points]
            trend.expect(len(points) == self.trend_years[1] - self.trend_years[0] + 1,
                         f"{len(points)} trend points")
            trend.expect(all(p["converged"] for p in points), "a trend year did not converge")
            trend.expect(all(a < b for a, b in zip(s, s[1:])), "S not increasing")
            trend.expect(all(a > b for a, b in zip(r, r[1:])), "R not decreasing")
        if flat.ok and flat.result is not None and flat.result.converged:
            p = flat.result.params
            peak = max(e.u for e in self.flat.entries)
            flat.expect(not (p.mu < -10 or p.A > 1e6 * peak),
                        f"converged=True with runaway parameters A={p.A:.3g} mu={p.mu:.3g}")
        _check_repeatable(self, rep, ops, first)

    def notes(self, ops: list[Op]) -> dict:
        """What the flat fit answered: its winner, or that it refused."""
        flat = ops[-1]
        if flat.result is None:
            return {"flat_fit": "ConvergenceError" if flat.ok else flat.failures}
        p = flat.result.params
        return {"flat_fit": {
            "converged": flat.result.converged, "A": p.A, "mu": p.mu, "sigma": p.sigma,
            "B": p.B, "panel_peak_u": max(e.u for e in self.flat.entries)}}


def _fit_op(name: str, panel, refusal_ok: bool = False) -> Op:
    """fit_history as one operation; with refusal_ok a ConvergenceError is an
    honest answer (result None), not a failure."""
    op = Op(name)
    try:
        op.result = historyfit.fit_history(panel)
    except ConvergenceError as exc:
        if not refusal_ok:
            op.fail(f"ConvergenceError: {exc}")
    except CitedynError as exc:
        op.fail(f"{type(exc).__name__}: {exc}")
    return op


def _check_reference_fit(op: Op, fit, truth, panel, noisy: bool) -> None:
    """Criterion c04's tolerances, plus: a noisy fit ends at or below the
    cost of the parameters that generated its panel."""
    op.expect(fit.converged, "did not converge")
    tol = 0.10 if noisy else 0.01
    for attr in ("A", "mu", "sigma", "B"):
        err = rel_err(getattr(fit.params, attr), getattr(truth, attr))
        op.expect(err <= tol, f"{attr} off by {err:.3g}")
    if noisy:
        t = [e.t for e in panel.entries]
        u = [e.u for e in panel.entries]

        def cost(params):
            return 0.5 * math.fsum((m - v) ** 2 for m, v in
                                   zip(historyfit.eval_history(params, t), u))

        op.expect(cost(fit.params) <= cost(truth) * (1.0 + 1e-9),
                  "fit ends above the generating parameters' cost")
    elif truth.lambda_capped:
        op.expect(fit.params.lambda_capped, "lambda not capped")
    else:
        op.expect(not fit.params.lambda_capped, "lambda capped")
        err = rel_err(fit.params.lam, truth.lam)
        op.expect(err <= 0.10, f"lambda off by {err:.3g}")


# --- ensemble -----------------------------------------------------------------


class Ensemble(Workload):
    """Stochastic reductions at scale with default threads; no corpus at all."""

    name = "ensemble"

    def setup(self, work: Path) -> dict[str, str]:
        inputs.write_json(inputs.ensemble_params(self.seed).to_dict(), work / "params.json")
        inputs.write_json(inputs.VOLATILITY, work / "vol.json")
        return {f: inputs.sha256(work / f) for f in ("params.json", "vol.json")}

    def load(self, work: Path) -> None:
        super().load(work)
        self.base = ["--fit", str(work / "params.json"), "--vol", str(work / "vol.json")]
        self.first_summary = None

    def chain(self, rep: Path) -> list[Op]:
        s, base = self.scale, self.base
        steps = [
            (["simulate", *base, *_sde_flags(s, s.ensemble_paths)], "simulate.json"),
            (["simulate", *base, *_sde_flags(s, s.euler_paths), "--method", "euler"],
             "euler.json"),
            (["verify", *base, *_sde_flags(s, s.verify_paths)], "verify.json"),
        ]
        self.outs = [out for _, out in steps]
        return [cli_op(argv, rep, out) for argv, out in steps]

    def check(self, rep: Path, ops: list[Op], first: bool) -> None:
        read_payloads(ops, rep, self.outs)
        exact, _, verify = ops
        if verify.ok:
            verify.expect(verify.result["overall_pass"] is True, "verify failed")
        if exact.ok:
            summary = exact.result["count_summary"]
            if first:
                self.first_summary = summary
            exact.expect(summary == self.first_summary,
                         "count summary differs between repetitions")

    def finish(self, rep: Path, ops: list[Op]) -> list[Op]:
        """The default-thread exact problem again on one thread: both count
        summaries come from the same CLI code, so they must match bit for bit."""
        s = self.scale
        op = cli_op(["simulate", *self.base, *_sde_flags(s, s.ensemble_paths), "--threads", "1"],
                    rep, "simulate-t1.json")
        read_payloads([op], rep, ["simulate-t1.json"])
        if op.ok:
            op.expect(self.first_summary is not None
                      and op.result["count_summary"] == self.first_summary,
                      "threads=1 count summary differs from the default-thread run")
        return [op]


WORKLOADS = {w.name: w for w in (Pipeline, Refit, Ensemble)}
