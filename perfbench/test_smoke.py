"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python -m pytest perfbench/test_smoke.py

Checks that every workload runs in both modes, passes its own checks and
emits exactly the metrics BENCHMARK.json names, with their units; that
every per-layer metric is measured by some workload; that the tracer
times a fit that raises; and that the benchmark refuses to run without
the sources next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts of optimizer starts that the tiny inputs never produce.
ZERO_AT_TINY_SCALE = {"historyfit.starts_maxed", "historyfit.starts_raised"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = (json.loads(proc.stdout.strip().splitlines()[-1]),
                                    proc.stderr)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_named_metric(results, workload, trace):
    result, stderr = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_every_layer_metric_is_measured_somewhere(results):
    unmeasured = {m["name"] for m in SPEC["per_layer"]} - ZERO_AT_TINY_SCALE
    for workload in WORKLOADS:
        metrics = results[workload, 1][0]["metrics"]
        unmeasured -= {name for name, v in metrics.items() if v["value"] != 0}
    assert not unmeasured


def test_flat_time_counts_a_fit_that_raises(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import tracing
    from citedyn import historyfit
    from citedyn.errors import ConvergenceError

    def refuse(panel, options=None):
        raise ConvergenceError("no start converged")

    monkeypatch.setattr(historyfit, "fit_history", refuse)
    tracer = tracing.Tracer().install()
    try:
        tracer.enabled = True
        with pytest.raises(ConvergenceError):
            historyfit.fit_history(SimpleNamespace(discipline="flat"))
    finally:
        tracer.close()
    metrics = tracing.layer_metrics(tracer.spans, flat_discipline="flat")
    assert metrics["historyfit.fit_history.calls"] == 1
    assert metrics["historyfit.fit_history.flat_s"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
