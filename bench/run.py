"""Benchmark of tlschwarz: setup, preconditioner reuse and Krylov solves.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each run starts a fresh Python process (``bench/worker.py``) with the BLAS
thread count pinned to one before numpy loads, so reductions happen in a
fixed order, iteration counts repeat exactly and one workload's peak memory
never shows in another's figure.  Import time is outside every metric.

With ``--trace 0`` the run reports the end-to-end metrics (setup_s, solve_s,
total_s, iter_ms, iterations, peak_rss_mb), timed with tracing off, as
medians over repeated setups and solves; with ``--trace 1`` it alternates
untraced and traced repetitions and reports per-layer self times and counts
from the traced ones, whose spans go to
``.bench_out/<workload>-seed<N>-spans.json``.  ``--workload all`` runs every
benchmark workload both ways.  Every solve is checked: the solver must report convergence and the
true relative residual must be at most the tolerance.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 0 only when every solve passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
BENCH_WORKLOADS = ("poisson2d-m200-N256", "poisson3d-m16-N16", "advection2d-m80-N16-reuse32")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 175


def child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def run_all(seed, seconds):
    """Every benchmark workload, untraced then traced; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in BENCH_WORKLOADS:
        for trace in (0, 1):
            code, out = run_worker(workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            if code != 0 and not lines:
                return code
            status = status or code
            result = json.loads(lines[-1])
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, m in sorted(result["metrics"].items()):
                print(f"{workload:28s} {name:32s} {m['value']:.6g} {m['unit']}")
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description="tlschwarz benchmark")
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tlschwarz" / "__init__.py").is_file():
        print(f"bench: no tlschwarz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, out = run_worker(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
