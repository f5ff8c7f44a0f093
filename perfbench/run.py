"""citedyn benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pipeline|refit|ensemble \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a source checkout; the program is imported from
./src and the reference builders from ./tests. A run has two stages, each
in fresh interpreters started from worker.py:

1. Set-up, SETUP_REPEATS times: import citedyn, generate the inputs from
   the seed and write them. `setup_s` is the median wall time of these
   processes; their input digests must agree.
2. The chain, in one process that holds nothing but the first set-up's
   inputs: it repeats the workload's timed chain for about S seconds and
   checks every repetition's outputs. `peak_rss_mb` is that process's peak.

It prints two JSON lines: a details record (environment, input digests,
per-repetition timings, failures), then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with the
tracer absent. With --trace 1 repetitions alternate untraced and traced,
and the metrics are the per-layer ones from the traced repetitions; the
spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
STAGE_TIMEOUT_S = 170
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "refit", "ensemble"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes, not comparable with full")
    return p.parse_args(argv)


def missing_sources() -> list[str]:
    needed = [ROOT / "src" / "citedyn" / "__init__.py", ROOT / "tests" / "_reference.py"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def git_commit() -> str:
    # The ceiling keeps git from taking up a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stage(*argv) -> dict:
    """Run one worker stage in a fresh interpreter and return its JSON line."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, argv)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=STAGE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker stage {argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_sources()
    if missing:
        print(f"run.py: not a citedyn source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    problems: list[str] = []
    common = (args.workload, args.seed, args.scale)
    setup_s, digests = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        digests.append(stage("setup", *common, work / f"setup{k}"))
        setup_s.append(time.perf_counter() - t0)
    if any(d != digests[0] for d in digests):
        problems.append("the same seed generated different inputs")

    run = stage("chain", *common, work / "setup0", work / "reps", args.seconds, args.trace)
    problems += run["problems"]
    end_to_end = {
        "wall_s": run["wall_s"],
        "setup_s": statistics.median(setup_s),
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {
        "workload": args.workload,
        "scale": args.scale,
        "environment": {**run["environment"], "git_commit": git_commit()},
        "inputs_sha256": digests[0],
        "setup_repeats_s": setup_s,
        "repetitions": run["repetitions"],
        "end_to_end": end_to_end,
        "failed_frac": run["failed"] / run["attempted"],
        "failures": run["failures"],
        "problems": problems,
        **run["notes"],
    }
    if args.trace:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        details["spans_file"] = run["spans_file"]
        if set(run["layer"]) != set(units):
            problems.append("the traced run's metrics differ from BENCHMARK.json's per_layer: "
                            f"{sorted(set(run['layer']) ^ set(units))}")
        metrics = {name: {"value": run["layer"].get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in units.items()}

    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": run["failed"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
