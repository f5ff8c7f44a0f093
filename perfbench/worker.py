"""The stages of one benchmark run, each run by run.py in a fresh interpreter.

    python3 perfbench/worker.py setup WORKLOAD SEED SCALE INPUTS
    python3 perfbench/worker.py chain WORKLOAD SEED SCALE INPUTS SCRATCH SECONDS TRACE

`setup` imports citedyn, generates the workload's inputs from the seed and
writes them under INPUTS; run.py times the whole process. `chain` loads
those inputs, repeats the timed chain for about SECONDS in repetition
directories under SCRATCH, checks every repetition, and reads this
process's peak RSS before the untimed `finish` step. The generators never
run in the chain's process, so that peak is the chain's own.

Each stage prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import citedyn.cli  # noqa: E402  (imports every module of the package)
import numpy  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from citedyn import stochastic  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
# Two repetitions at least: a traced run needs an untraced and a traced one,
# and two halve the chance that one burst of host noise sets the median.
MIN_REPEATS = 2
MIN_COVERAGE = 0.95


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # The pool simulate_ensemble uses when no --threads is given.
        "threads": stochastic._resolve_threads(None),
        "seed": seed,
    }


def make_workload(name: str, seed: str, scale: str) -> workloads.Workload:
    return workloads.WORKLOADS[name](int(seed), workloads.SCALES[scale])


def setup(name: str, seed: str, scale: str, target: str) -> dict:
    target = Path(target)
    target.mkdir(parents=True)
    return make_workload(name, seed, scale).setup(target)


def chain(name, seed, scale, inputs_dir, scratch, seconds, trace) -> dict:
    wl = make_workload(name, seed, scale)
    wl.load(Path(inputs_dir))
    scratch, seconds = Path(scratch), float(seconds)
    tracer = tracing.Tracer().install() if trace == "1" else None
    problems: list[str] = []
    reps: list[dict] = []
    ops_all = []
    layer_runs: list[dict] = []
    start = time.perf_counter()
    rep = None
    while True:
        k = len(reps)
        traced = tracer is not None and k % 2 == 1
        if rep is not None:
            shutil.rmtree(rep)
        rep = scratch / f"rep{k}"
        rep.mkdir(parents=True)
        if traced:
            tracer.enabled = True
        c0, w0 = time.process_time(), time.perf_counter()
        ops = wl.chain(rep)
        w1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.enabled = False
        wl.check(rep, ops, first=(k == 0))
        ops_all += ops
        reps.append({"wall_s": w1 - w0, "cpu_s": c1 - c0, "traced": traced})
        if traced:
            spans = tracer.spans_between(w0, w1)
            layer = tracing.layer_metrics(spans, flat_discipline=inputs.FLAT_DISCIPLINE)
            layer["trace.coverage"] = sum(
                s.duration for s in spans if s.parent is None) / (w1 - w0)
            if layer["trace.coverage"] < MIN_COVERAGE:
                problems.append(f"top-level spans cover {layer['trace.coverage']:.3f} "
                                f"of traced repetition {k}")
            layer_runs.append(layer)
        done = len(reps) >= MIN_REPEATS
        typical = statistics.median(r["wall_s"] for r in reps)
        if done and time.perf_counter() - start + typical > seconds:
            break
    # The high-water mark of the chain and its checks, before `finish` runs
    # anything that is not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.enabled = True
    f0 = time.perf_counter()
    ops_all += wl.finish(rep, ops)
    finish_spans = tracer.spans_between(f0, time.perf_counter()) if tracer else []
    if tracer is not None:
        tracer.enabled = False
        tracer.close()

    plain = [r for r in reps if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    failed_ops = [op for op in ops_all if not op.ok]
    out = {
        "environment": environment(int(seed)),
        "repetitions": reps,
        "wall_s": wall_s,
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops_all),
        "failed": len(failed_ops),
        "failures": {op.name: op.failures for op in failed_ops},
        "problems": problems,
        "notes": wl.notes(ops),
        "layer": None,
    }
    if tracer is not None:
        values = {metric: statistics.median(run[metric] for run in layer_runs)
                  for metric in layer_runs[0]}
        values["stochastic.simulate_ensemble.exact_t1.s"] = sum(
            s.duration for s in finish_spans if s.name == "stochastic.simulate_ensemble.exact")
        traced_wall = statistics.median(r["wall_s"] for r in reps if r["traced"])
        values["trace.overhead_s"] = traced_wall - wall_s
        out["layer"] = values
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps({"run": out, "spans": tracer.dump()}) + "\n",
                              encoding="utf-8")
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    for op in failed_ops:
        print(f"FAILED {op.name}: {'; '.join(op.failures)}", file=sys.stderr)
    return out


STAGES = {"setup": setup, "chain": chain}

if __name__ == "__main__":
    print(json.dumps(STAGES[sys.argv[1]](*sys.argv[2:])))
