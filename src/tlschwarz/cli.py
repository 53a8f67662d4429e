"""Command-line entry point: build a preconditioner, solve, report."""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentConfig, run_experiment


def build_parser():
    p = argparse.ArgumentParser(
        prog="tlschwarz",
        description="Two-level algebraic Schwarz preconditioned solve.",
    )
    src = p.add_argument_group("problem source")
    src.add_argument("--matrix", help="Matrix Market file with the system matrix")
    src.add_argument("--rhs", help="right-hand side file (Matrix Market array or one value per line)")
    src.add_argument("--kind", choices=["poisson2d", "poisson3d", "hetero2d", "advection2d"],
                     help="generate a model problem instead of reading files")
    src.add_argument("--m", type=int, default=20, help="grid size for generated problems")

    cfg = p.add_argument_group("preconditioner")
    cfg.add_argument("--N", type=int, default=4, help="number of subdomains")
    cfg.add_argument("--delta", type=int, default=2, help="overlap layers")
    cfg.add_argument("--tau", type=float, default=0.1,
                     help="harmonic singular-value threshold (smaller keeps more modes)")
    cfg.add_argument("--nu", type=float, default=None,
                     help="partition-of-unity eigenvalue threshold (off by default)")
    cfg.add_argument("--coarse", choices=["none", "full", "gevp", "svd", "auto"], default="auto")
    cfg.add_argument("--one-level", choices=["asm", "ras"], default=None, dest="one_level")
    cfg.add_argument("--combine", choices=["additive", "deflated"], default=None)

    slv = p.add_argument_group("solver")
    slv.add_argument("--solver", choices=["cg", "gmres"], default=None,
                     help="default: cg for a symmetric preconditioner, gmres otherwise")
    slv.add_argument("--tol", type=float, default=1e-8)
    slv.add_argument("--maxit", type=int, default=500)
    slv.add_argument("--report", help="write the report here (+ .history for residuals)")
    slv.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if not args.matrix and not args.kind:
        print("error_type = usage\nmessage = need --matrix or --kind", file=sys.stderr)
        return 2
    config = ExperimentConfig(
        matrix_path=args.matrix,
        rhs_path=args.rhs,
        kind=args.kind,
        m=args.m,
        n_subdomains=args.N,
        overlap=args.delta,
        tau=args.tau,
        nu=args.nu,
        coarse=args.coarse,
        one_level=args.one_level,
        combine=args.combine,
        solver=args.solver,
        tol=args.tol,
        maxit=args.maxit,
        report_path=args.report,
        seed=args.seed,
    )
    try:
        result = run_experiment(config)
    except Exception as exc:  # surface a structured record, not a traceback
        print(f"error_type = {type(exc).__name__}\nmessage = {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(result.report_text)
    if not result.solve_report.converged:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
