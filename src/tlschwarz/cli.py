"""Command-line entry point: build a preconditioner, solve, report."""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentConfig, run_experiment
from .precond import COARSE_KINDS, COMBINE_KINDS, ONE_LEVEL_KINDS


def build_parser():
    """Argument parser whose destinations are ``ExperimentConfig`` fields.

    Absent flags stay out of the namespace, so every default is the config's.
    """
    p = argparse.ArgumentParser(
        prog="tlschwarz",
        description="Two-level algebraic Schwarz preconditioned solve.",
        argument_default=argparse.SUPPRESS,
    )
    src = p.add_argument_group("problem source")
    src.add_argument("--matrix", dest="matrix_path",
                     help="Matrix Market file with the system matrix")
    src.add_argument("--rhs", dest="rhs_path",
                     help="right-hand side file (Matrix Market array or one value per line)")
    src.add_argument("--kind", choices=["poisson2d", "poisson3d", "hetero2d", "advection2d"],
                     help="generate a model problem instead of reading files")
    src.add_argument("--m", type=int, help="grid size for generated problems")

    cfg = p.add_argument_group("preconditioner")
    cfg.add_argument("--N", type=int, dest="n_subdomains", help="number of subdomains")
    cfg.add_argument("--delta", type=int, dest="overlap", help="overlap layers")
    cfg.add_argument("--tau", type=float,
                     help="harmonic singular-value threshold (smaller keeps more modes)")
    cfg.add_argument("--nu", type=float,
                     help="partition-of-unity eigenvalue threshold (off by default)")
    cfg.add_argument("--coarse", choices=COARSE_KINDS)
    cfg.add_argument("--one-level", choices=ONE_LEVEL_KINDS)
    cfg.add_argument("--combine", choices=COMBINE_KINDS)

    slv = p.add_argument_group("solver")
    slv.add_argument("--solver", choices=["cg", "gmres"],
                     help="default: cg for a symmetric preconditioner, gmres otherwise")
    slv.add_argument("--tol", type=float)
    slv.add_argument("--maxit", type=int)
    slv.add_argument("--report", dest="report_path",
                     help="write the report here (+ .history for residuals)")
    slv.add_argument("--seed", type=int)
    return p


def main(argv=None):
    config = ExperimentConfig(**vars(build_parser().parse_args(argv)))
    if not config.matrix_path and not config.kind:
        print("error_type = usage\nmessage = need --matrix or --kind", file=sys.stderr)
        return 2
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
