"""Test problems, theoretical condition bounds, and the experiment driver.

The generators build the usual finite-difference model problems on the unit
square/cube with homogeneous Dirichlet boundaries eliminated, scaled by
1/h^2, and a manufactured right-hand side b = A * ones so every solve has
the all-ones exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from . import krylov
from .precond import setup, Preconditioner
from .sparsemat import SparseMat, load_matrix_market, load_vector
from .spectral import select_pou_modes
from .subdomain import extract_local_blocks

PROBLEM_KINDS = ("poisson2d", "poisson3d", "hetero-diffusion2d", "advection2d")


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of a generated test problem."""

    kind: str
    m: int
    contrast: float = 1.0e4
    channel_seed: int = 0
    velocity: tuple = (1.0, 0.0)
    eps: float = 1.0e-2

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.m < 3:
            raise ValueError("grid size m must be at least 3")


def generate(spec):
    """Build (matrix, rhs) for a problem spec; rhs is always A * ones."""
    builders = {
        "poisson2d": lambda spec: _laplacian(spec.m, 2),
        "poisson3d": lambda spec: _laplacian(spec.m, 3),
        "hetero-diffusion2d": _hetero2d,
        "advection2d": _advection2d,
    }
    matrix = builders[spec.kind](spec)
    return matrix, matrix.matvec(np.ones(matrix.nrows))


def _stencil_matrix(m, dim, centre, neighbours):
    """Matrix of a (2*dim+1)-point stencil on the m^dim grid.

    Grid point (i, j, ...) is unknown i + j*m + ...  ``centre`` is the
    diagonal and ``neighbours`` maps (axis, step) to the coupling with the
    point one step (+1 or -1) along that axis; each value is a scalar or an
    array over the grid.  Couplings that leave the grid are dropped: that
    eliminates the homogeneous Dirichlet boundary.
    """
    grid = np.arange(m ** dim).reshape((m,) * dim, order="F")
    rows, cols, vals = [grid.ravel()], [grid.ravel()], [np.broadcast_to(centre, grid.shape).ravel()]
    for (axis, step), coupling in neighbours.items():
        position = np.indices(grid.shape)[axis] + step
        inside = (position >= 0) & (position < m)
        rows.append(grid[inside])
        cols.append(np.roll(grid, -step, axis)[inside])
        vals.append(np.broadcast_to(coupling, grid.shape)[inside])
    return SparseMat.from_coo(grid.size, grid.size, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def _laplacian(m, dim):
    """Five-point (2-D) or seven-point (3-D) Laplacian scaled by 1/h^2."""
    h2 = (m + 1) ** 2
    neighbours = {(axis, step): -1.0 * h2 for axis in range(dim) for step in (-1, 1)}
    return _stencil_matrix(m, dim, 2.0 * dim * h2, neighbours)


def _hetero2d(spec):
    """Diffusion with channelized coefficient jumps, harmonic-mean edges.

    A few grid rows (seeded choice) carry coefficient ``contrast`` while the
    background is one; edge coefficients are the harmonic mean of the two
    endpoint coefficients, giving the standard five-point flux stencil.
    """
    m = spec.m
    h2 = (m + 1) ** 2
    rng = np.random.default_rng(spec.channel_seed)
    n_channels = max(1, m // 5)
    channels = rng.choice(m, size=n_channels, replace=False)
    kappa = np.ones((m, m))
    kappa[:, channels] = spec.contrast  # horizontal channels: constant along i

    padded = np.pad(kappa, 1, constant_values=np.nan)  # nan marks the boundary
    near = {(0, -1): padded[:-2, 1:-1], (0, 1): padded[2:, 1:-1],
            (1, -1): padded[1:-1, :-2], (1, 1): padded[1:-1, 2:]}
    diag = np.zeros((m, m))
    neighbours = {}
    for (axis, step), other in near.items():
        c = 2.0 * kappa * other / (kappa + other)
        # an edge to the Dirichlet boundary carries the point's own coefficient
        diag += np.where(np.isnan(c), kappa, c)
        neighbours[axis, step] = -c * h2
    return _stencil_matrix(m, 2, diag * h2, neighbours)


def _advection2d(spec):
    """First-order upwind advection plus eps-scaled diffusion (nonsymmetric)."""
    m = spec.m
    h = 1.0 / (m + 1)
    h2 = (m + 1) ** 2
    vx, vy = spec.velocity
    eps = spec.eps
    diag = 4.0 * eps * h2 + (abs(vx) + abs(vy)) / h
    neighbours = {
        (0, -1): -eps * h2 - (vx / h if vx > 0 else 0.0),
        (0, 1): -eps * h2 + (vx / h if vx < 0 else 0.0),
        (1, -1): -eps * h2 - (vy / h if vy > 0 else 0.0),
        (1, 1): -eps * h2 + (vy / h if vy < 0 else 0.0),
    }
    return _stencil_matrix(m, 2, diag, neighbours)


# -- theory-side quantities --------------------------------------------------


def lambda_star(matrix, maps):
    """Largest eigenvalue of sum_i R_i^T A_ii R_i u = lambda A u.

    One call to ARPACK's Lanczos method (``eigsh`` with M = A, which solves
    with a sparse LU of A) from a seeded random start, converged to machine
    precision, at every size.  A single subdomain gives exactly one, since
    its stacked operator is A itself.  Always at least one (up to round-off)
    because the subdomains cover every unknown.
    """
    n = matrix.nrows
    if not matrix.symmetric:
        raise ValueError("lambda_star is defined for symmetric matrices")
    if len(maps) == 1:
        return 1.0
    gather = np.concatenate([s.indices for s in maps])
    local = sp.block_diag([extract_local_blocks(matrix, s, True).a for s in maps], format="coo")
    stacked = sp.csr_matrix((local.data, (gather[local.row], gather[local.col])), shape=(n, n))
    v0 = np.random.default_rng(12345).standard_normal(n)
    vals = eigsh(stacked, k=1, M=matrix.scipy(), which="LA", v0=v0, return_eigenvectors=False)
    return max(float(vals[0]), 1.0)


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the two-level condition bound.

    ``nu`` and ``tau`` are the sharp data-derived thresholds (largest value
    left out of the coarse space in each pencil), not the user's knobs, so a
    bound check certifies exactly what was built.
    """

    k_c: int
    nu: float
    tau: float = 0.0
    lam_star: float = 1.0

    def __post_init__(self):
        if not self.k_c >= 1:
            raise ValueError("coloring constant must be at least 1")
        if not self.nu >= 1.0:
            raise ValueError("nu must be at least 1")
        if not self.tau >= 0.0:
            raise ValueError("tau must be nonnegative")
        if not self.lam_star >= 1.0 - 1e-12:
            raise ValueError("lambda_star must be at least 1")


def theoretical_bound(inputs):
    """Certified condition bound for the symmetric additive two-level method:

        (k_c + 1) * (2 + (2 k_c + 1) * nu * (k_c + lam_star * (2 tau + tau^2)))

    At tau = 0, as for the full coarse space, it is
    (k_c + 1) * (2 + (2 k_c + 1) * k_c * nu).
    """
    kc, nu, tau, lam = inputs.k_c, inputs.nu, inputs.tau, inputs.lam_star
    return (kc + 1) * (2.0 + (2 * kc + 1) * nu * (kc + lam * (2 * tau + tau * tau)))


def _bound_covers(precond):
    """Whether the bound covers ``precond``: a symmetric matrix and a coarse
    space of every harmonic extension ("full") or of the harmonic pencil's
    modes ("gevp")."""
    return (precond.matrix.symmetric and precond.coarse is not None
            and precond.report.coarse_kind in ("full", "gevp"))


def derive_bound_inputs(precond):
    """Sharp bound constants from a built preconditioner the bound covers.

    ``nu`` is the largest partition-of-unity eigenvalue not represented in
    the coarse space (all of them when those modes are disabled), clamped to
    one, recomputed block by block (each densified in turn) at the threshold
    the setup report records; ``tau`` is the largest harmonic singular value
    left unselected, as recorded in the report (0 for the full coarse
    space, which selects every mode).  Raises ``ValueError`` for a
    nonsymmetric matrix and for a run without a "full" or "gevp" coarse
    space (``coarse="svd"`` or ``"none"``), which the bound does not cover.
    """
    if not _bound_covers(precond):
        raise ValueError("the condition bound covers a symmetric matrix with a built "
                         "'full' or 'gevp' coarse space")
    report = precond.report
    threshold = np.inf if report.nu is None else report.nu
    nu = max([1.0] + [select_pou_modes(extract_local_blocks(precond.matrix, s, True),
                                       threshold).largest_unselected for s in precond.maps])
    tau = max(report.largest_unselected)
    lam = lambda_star(precond.matrix, precond.maps)
    return BoundInputs(k_c=report.k_c, nu=nu, tau=tau, lam_star=lam)


# -- experiment driver -------------------------------------------------------


@dataclass
class ExperimentConfig:
    matrix_path: str | None = None
    rhs_path: str | None = None
    kind: str | None = None
    m: int | None = None  # grid size of a generated problem: 20 when None
    n_subdomains: int = 4
    overlap: int = 2
    tau: float = 0.1
    nu: float | None = None
    coarse: str = "auto"
    one_level: str | None = None
    combine: str | None = None
    solver: str | None = None  # None: "cg" for a symmetric preconditioner, else "gmres"
    tol: float = 1e-8
    maxit: int = 500
    report_path: str | None = None
    seed: int | None = None  # channel seed of a generated problem: 0 when None


@dataclass
class ExperimentResult:
    matrix: SparseMat
    rhs: np.ndarray
    x: np.ndarray
    precond: Preconditioner
    solve_report: krylov.SolveReport
    bound_check: dict | None
    report_text: str


def _load_problem(config):
    if config.matrix_path and config.kind:
        raise ValueError("give a matrix file or a problem kind, not both")
    if config.rhs_path and not config.matrix_path:
        raise ValueError("a right-hand side file needs a matrix file")
    if config.matrix_path and (config.m, config.seed) != (None, None):
        raise ValueError("a grid size or seed shapes a generated problem, not a matrix file")
    if config.matrix_path:
        matrix = load_matrix_market(config.matrix_path)
        if config.rhs_path:
            rhs = load_vector(config.rhs_path)
            if rhs.size != matrix.nrows:
                raise ValueError("right-hand side length does not match the matrix")
        else:
            rhs = matrix.matvec(np.ones(matrix.nrows))
        return matrix, rhs
    if not config.kind:
        raise ValueError("either a matrix file or a problem kind is required")
    kind = {"hetero2d": "hetero-diffusion2d"}.get(config.kind, config.kind)
    spec = ProblemSpec(kind, 20 if config.m is None else config.m, channel_seed=config.seed or 0)
    return generate(spec)


def run_experiment(config):
    """Set up, solve, optionally check the condition bound, write reports."""
    if config.solver not in (None, "cg", "gmres"):
        raise ValueError(f"unknown solver {config.solver!r}")
    matrix, rhs = _load_problem(config)
    precond = setup(
        matrix,
        config.n_subdomains,
        overlap=config.overlap,
        tau=config.tau,
        nu=config.nu,
        coarse=config.coarse,
        one_level=config.one_level,
        combine=config.combine,
    )
    solver = config.solver or ("cg" if precond.is_symmetric else "gmres")
    if solver == "cg":
        if not precond.is_symmetric:
            raise ValueError("solver 'cg' needs a symmetric preconditioner; "
                             "use 'gmres' or a symmetric setup (asm, additive)")
        x, solve_report = krylov.pcg(matrix, precond, rhs, tol=config.tol, maxit=config.maxit)
    else:
        x, solve_report = krylov.gmres(matrix, precond, rhs, tol=config.tol,
                                       maxit=config.maxit)

    bound_check = None
    if _bound_covers(precond) and matrix.nrows <= krylov.DENSE_CUTOFF:
        bound_check = _bound_verdict(matrix, precond)

    lines = [precond.report.to_text(), solve_report.to_text()]
    if bound_check is not None:
        lines.append(
            f"measured_condition = {bound_check['measured']:.6e}\n"
            f"theoretical_bound = {bound_check['bound']:.6e}\n"
            f"bound_holds = {bound_check['holds']}\n"
        )
    report_text = "".join(lines)
    if config.report_path:
        with open(config.report_path, "w") as fh:
            fh.write(report_text)
        hist_path = config.report_path + ".history"
        with open(hist_path, "w") as fh:
            for k, res in enumerate(solve_report.residuals):
                fh.write(f"{k} {res:.17g}\n")
    return ExperimentResult(matrix, rhs, x, precond, solve_report, bound_check, report_text)


def _bound_verdict(matrix, precond):
    """Check the bound on the symmetric (asm, additive) operator the theory
    covers: the built preconditioner's maps, local factor and coarse space,
    applied as asm + additive whatever the run itself applies."""
    theory_pc = replace(precond, one_level="asm", combine="additive")
    measured = krylov.estimate_condition(matrix, theory_pc)
    inputs = derive_bound_inputs(theory_pc)
    bound = theoretical_bound(inputs)
    return {
        "measured": measured,
        "bound": bound,
        "holds": bool(measured <= bound),
        "inputs": inputs,
    }
