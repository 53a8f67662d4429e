"""One benchmark run of one workload, in a process of its own.

Started by ``bench/run.py``, which pins the BLAS thread count in the
environment before this process loads numpy and puts the checkout's ``src``
on ``PYTHONPATH``.  Prints a metric table, one ``record`` line (environment,
per-repetition samples) and, last, the result object.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tlschwarz
from tlschwarz import krylov

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TOL = 1e-8
MAXIT = 500
# At least two setups per run, so setup_s is a median; on poisson2d-m200-N256
# one setup takes about 25 s, so two of them already fill a run.
MIN_REPS = 2
# Never start another repetition past this point, so a run ends well within
# three minutes even when one repetition is slow.
HARD_STOP_S = 120.0


@dataclass(frozen=True)
class Workload:
    kind: str
    m: int
    n_subdomains: int
    solver: str
    n_rhs: int


# Why each workload: poisson2d-m200-N256 stresses partition, the Galerkin
# product and the coarse apply (many subdomains, large coarse space);
# poisson3d-m16-N16 has few large subdomains with wide boundary rings, so the
# dense local work and the harmonic pencil dominate; the advection workload
# takes the nonsymmetric path (RAS, deflated combination, SVD modes, LU,
# GMRES) and reuses one preconditioner for many right-hand sides, bypassing
# the pencil and CG.  It names GMRES explicitly, because the library's CLI
# default would run CG on the nonsymmetric operator.  The selftest workloads
# are tiny versions of the symmetric and nonsymmetric paths for
# bench/test_bench.py.
WORKLOADS = {
    "poisson2d-m200-N256": Workload("poisson2d", 200, 256, "cg", 1),
    "poisson3d-m16-N16": Workload("poisson3d", 16, 16, "cg", 1),
    "advection2d-m80-N16-reuse32": Workload("advection2d", 80, 16, "gmres", 32),
    "selftest-poisson2d": Workload("poisson2d", 12, 4, "cg", 1),
    "selftest-advection2d": Workload("advection2d", 12, 4, "gmres", 3),
}

# Self-time spans that make up setup and solve.  Each group's self times sum
# to the traced setup (resp. solve) time.
SETUP_SPANS = {
    "sparsemat.graph": "sparsemat.graph_s",
    "partition.partition": "partition.partition_s",
    "partition.overlap": "partition.overlap_s",
    "partition.coloring": "partition.coloring_s",
    "subdomain.extract": "subdomain.extract_s",
    "subdomain.factor": "subdomain.factor_s",
    "subdomain.harmonic": "subdomain.harmonic_s",
    "spectral.gevp": "spectral.modes_s",
    "spectral.svd": "spectral.modes_s",
    "coarse.columns": "coarse.columns_s",
    "coarse.assemble": "coarse.assemble_s",
    "coarse.rank_filter": "coarse.rank_filter_s",
    "coarse.galerkin": "coarse.galerkin_s",
    "precond.setup": "precond.setup_self_s",
}
SOLVE_SPANS = {
    "precond.apply": "precond.apply_self_s",
    "precond.one_level": "precond.one_level_s",
    "precond.coarse_apply": "precond.coarse_apply_s",
    "sparsemat.matvec": "sparsemat.matvec_s",
    "krylov.solve": "krylov.self_s",
}
SPANS = {**SETUP_SPANS, **SOLVE_SPANS}
CALL_SPANS = [name for name in SPANS if name != "precond.setup"]

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "total_s": "s",
    "iter_ms": "ms", "iterations": "count", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SPANS.values()},
    "harness.generate_s": "s",
    "trace.setup_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_frac": "1",
    **{f"{name}_calls": "count" for name in CALL_SPANS},
    "spectral.modes_selected": "count",
    "spectral.values_computed": "count",
    "spectral.kept_ratio": "1",
    "coarse.n_coarse": "count",
    "coarse.kept_ratio": "1",
    "coarse.nnz_a00": "count",
    "partition.k_c": "count",
    "partition.n_local_max": "count",
    "subdomain.local_mb": "MB",
    "krylov.true_relres_max": "1",
}


def make_inputs(wl, seed):
    """Matrix and right-hand sides b = A x* with x* drawn from the seed.

    x* is uniform on [0, 1): its smooth mean keeps every iteration count
    independent of the seed (standard normal x* moves poisson2d-m200-N256
    between 20 and 21 CG iterations).
    """
    matrix, _ = tlschwarz.generate(tlschwarz.ProblemSpec(wl.kind, wl.m))
    rng = np.random.default_rng(seed)
    a = matrix.scipy()
    rhs = [a @ rng.random(matrix.nrows) for _ in range(wl.n_rhs)]
    return matrix, rhs


def run_rep(wl, matrix, rhs, tracer):
    """One setup, then one solve per right-hand side; returns a sample dict."""
    solve = krylov.pcg if wl.solver == "cg" else krylov.gmres
    t0 = time.perf_counter()
    with tracer.span("precond.setup"):
        precond = tlschwarz.setup(matrix, wl.n_subdomains)
    setup_s = time.perf_counter() - t0
    solve_s = 0.0
    iterations = 0
    failed = 0
    worst = 0.0
    a = matrix.scipy()
    for b in rhs:
        t0 = time.perf_counter()
        with tracer.span("krylov.solve"):
            x, report = solve(matrix, precond, b, tol=TOL, maxit=MAXIT)
        solve_s += time.perf_counter() - t0
        iterations += report.iterations
        relres = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
        worst = max(worst, relres)
        if not (report.converged and relres <= TOL):
            failed += 1
    maps = getattr(precond, "maps", [])
    return {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "iterations": iterations,
        "attempted": len(rhs),
        "failed": failed,
        "true_relres_max": worst,
        "n_coarse": precond.report.n_coarse,
        "nnz_a00": precond.report.nnz_coarse,
        "k_c": precond.report.k_c,
        "n_local_max": max((s.n_local for s in maps), default=0),
        # computed from the block sizes (dense float64), not measured
        "local_mb": sum(8 * s.n_local ** 2 for s in maps) / 1e6,
    }


def repeat(wl, matrix, rhs, seconds, tracers):
    """Cycle through ``tracers`` one repetition each until ``seconds`` pass.

    Runs at least ``MIN_REPS`` repetitions and at least one per tracer.
    Returns the samples of each tracer position.
    """
    samples = [[] for _ in tracers]
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = k >= max(MIN_REPS, len(tracers)) and k % len(tracers) == 0
        if enough and (elapsed >= seconds or elapsed >= HARD_STOP_S):
            break
        slot = k % len(tracers)
        tracer = tracers[slot]
        if isinstance(tracer, NullTracer):
            sample = run_rep(wl, matrix, rhs, tracer)
        else:
            tracer.reset()
            tracer.install()
            try:
                sample = run_rep(wl, matrix, rhs, tracer)
            finally:
                tracer.uninstall()
            sample["layers"] = layer_metrics(tracer, sample)
        samples[slot].append(sample)
        k += 1
    return samples


def layer_metrics(tracer, sample):
    """Per-layer metrics of one traced repetition."""
    times = tracer.self_times()
    out = {metric: 0.0 for metric in SPANS.values()}
    for name, metric in SPANS.items():
        out[metric] += times.get(name, (0.0, 0))[0]
    for name in CALL_SPANS:
        out[f"{name}_calls"] = times.get(name, (0.0, 0))[1]
    out["trace.setup_s"] = sum(tracer.durations("precond.setup"))
    out["trace.solve_s"] = sum(tracer.durations("krylov.solve"))
    c = tracer.counts
    out["spectral.modes_selected"] = c["spectral.modes_selected"]
    out["spectral.values_computed"] = c["spectral.values_computed"]
    out["spectral.kept_ratio"] = _ratio(c["spectral.modes_selected"], c["spectral.values_computed"])
    out["coarse.kept_ratio"] = _ratio(c["coarse.columns_kept"], c["coarse.columns_offered"])
    out["coarse.n_coarse"] = sample["n_coarse"]
    out["coarse.nnz_a00"] = sample["nnz_a00"]
    out["partition.k_c"] = sample["k_c"]
    out["partition.n_local_max"] = sample["n_local_max"]
    out["subdomain.local_mb"] = sample["local_mb"]
    out["krylov.true_relres_max"] = sample["true_relres_max"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": git_commit(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    gen_tracer = Tracer()
    with gen_tracer.span("harness.generate"):
        matrix, rhs = make_inputs(wl, args.seed)
    generate_s = gen_tracer.durations("harness.generate")[0]

    if args.trace:
        tracer = Tracer()
        untraced, traced = repeat(wl, matrix, rhs, args.seconds, [NullTracer(), tracer])
    else:
        (untraced,) = repeat(wl, matrix, rhs, args.seconds, [NullTracer()])
        traced = []
    samples = untraced + traced

    setup_s = statistics.median(s["setup_s"] for s in untraced)
    solve_s = statistics.median(s["solve_s"] for s in untraced)
    iterations = statistics.median(s["iterations"] for s in untraced)
    if args.trace:
        metrics = {name: statistics.median(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["harness.generate_s"] = generate_s
        traced_total = statistics.median(s["setup_s"] + s["solve_s"] for s in traced)
        metrics["trace.overhead_frac"] = traced_total / (setup_s + solve_s)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "solve_s": solve_s,
            "total_s": setup_s + solve_s,
            "iter_ms": 1000.0 * solve_s / iterations,
            "iterations": iterations,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)

    record = {
        **environment(args),
        "generate_s": generate_s,
        "reps": len(untraced),
        "traced_reps": len(traced),
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"record": record, "spans": tracer.records()}))
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
