"""Preconditioned Krylov solvers and condition-number estimation.

Both solvers start from the zero vector, stop on the unpreconditioned
relative residual, and report the full residual history; at every exit a
solve is converged iff the true residual ||b - A x|| / ||b|| meets the
tolerance.  GMRES builds one unrestarted basis with modified Gram-Schmidt
plus a conditional second orthogonalization pass; to keep that basis from
exhausting memory the iteration cap is a hard 1000.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal, solve_triangular

GMRES_MAXIT_CAP = 1000
REORTH_TOL = 1e-8
# Largest system whose condition number and bound constants are computed
# densely; read at call time, so larger systems take the iterative path.
DENSE_CUTOFF = 400


class BreakdownError(RuntimeError):
    """Conjugate-gradient breakdown: matrix or preconditioner not positive definite."""

    def __init__(self, iteration, message):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    residuals: np.ndarray  # relative residual norms, one per iteration plus the start
    wall_time: float
    true_residual: float  # ||b - A x|| / ||b|| of the returned iterate
    cond_estimate: float | None = None

    def to_text(self):
        lines = [
            f"iterations = {self.iterations}",
            f"converged = {self.converged}",
            f"final_relative_residual = {self.residuals[-1]:.6e}",
            f"true_relative_residual = {self.true_residual:.6e}",
            f"wall_time_s = {self.wall_time:.6f}",
        ]
        if self.cond_estimate is not None:
            lines.append(f"condition_estimate = {self.cond_estimate:.6e}")
        return "\n".join(lines) + "\n"


def _apply_precond(precond, r):
    if precond is None:
        return r.copy()
    return precond.apply(r)


def pcg(matrix, precond, b, tol=1e-8, maxit=500, track_tridiagonal=False):
    """Preconditioned conjugate gradients from the zero start.

    Stops when the recursive residual reaches tol * ||b||; it is replaced by
    the true residual every 25 iterations to guard against drift.  Raises
    BreakdownError when p'Ap <= 0 or r'z <= 0 (matrix or preconditioner not SPD).  With
    ``track_tridiagonal`` the report carries a condition estimate of the
    preconditioned operator from the underlying three-term recurrence.
    """
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolveReport(0, True, np.zeros(1), time.perf_counter() - t0, 0.0)
    r = b.copy()
    p = np.zeros_like(b)
    history = [1.0]
    alphas, betas = [], []
    rz, it = 0.0, 0
    for it in range(1, maxit + 1):
        z = _apply_precond(precond, r)
        rz_next = float(r @ z)
        if rz_next <= 0.0:
            raise BreakdownError(it, f"non-positive r'z {rz_next:.3e}; preconditioner is not SPD")
        beta = rz_next / rz if it > 1 else 0.0
        if it > 1:
            betas.append(beta)
        p = z + beta * p
        rz = rz_next
        ap = matrix.matvec(p)
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise BreakdownError(it, f"non-positive curvature {curvature:.3e}; matrix is not SPD")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        if it % 25 == 0:
            r = b - matrix.matvec(x)
        history.append(float(np.linalg.norm(r)) / bnorm)
        alphas.append(alpha)
        if history[-1] <= tol:
            break
    true_res = float(np.linalg.norm(b - matrix.matvec(x))) / bnorm
    cond = None
    if track_tridiagonal and alphas:
        cond = _cond_from_recurrence(alphas, betas)
    report = SolveReport(it, true_res <= tol, np.asarray(history), time.perf_counter() - t0,
                         true_res, cond)
    return x, report


def _cond_from_recurrence(alphas, betas):
    """Extreme generalized Ritz values from the CG coefficients."""
    k = len(alphas)
    diag = np.empty(k)
    off = np.empty(max(k - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for j in range(1, k):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        off[j - 1] = np.sqrt(max(betas[j - 1], 0.0)) / alphas[j - 1]
    if k == 1:
        return 1.0
    ritz = eigvalsh_tridiagonal(diag, off)
    if ritz[0] <= 0:
        return float("inf")
    return float(ritz[-1] / ritz[0])


def gmres(matrix, precond, b, tol=1e-8, maxit=500):
    """Right-preconditioned GMRES, no restarts.

    The Arnoldi recurrence runs on A M^{-1}, so the least-squares residual it
    minimizes is the plain unpreconditioned residual and the stopping test
    needs no extra matvec.  The returned iterate is mapped back through the
    preconditioner at the end, which is exact only for a fixed linear one.
    """
    t0 = time.perf_counter()
    if maxit > GMRES_MAXIT_CAP:
        raise ValueError(f"maxit {maxit} exceeds the hard cap {GMRES_MAXIT_CAP}")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, True, np.zeros(1), time.perf_counter() - t0, 0.0)
    m = min(maxit, n)
    basis = np.zeros((n, m + 1))
    hess = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = bnorm
    basis[:, 0] = b / bnorm
    history = [1.0]
    k = 0
    for j in range(m):
        w = matrix.matvec(_apply_precond(precond, basis[:, j]))
        norm_before = float(np.linalg.norm(w))
        for i in range(j + 1):
            hij = float(basis[:, i] @ w)
            hess[i, j] = hij
            w -= hij * basis[:, i]
        # one extra Gram-Schmidt sweep if orthogonality degraded
        correction = basis[:, : j + 1].T @ w
        if float(np.linalg.norm(correction)) > REORTH_TOL * max(norm_before, 1e-300):
            w -= basis[:, : j + 1] @ correction
            hess[: j + 1, j] += correction
        hnext = float(np.linalg.norm(w))
        hess[j + 1, j] = hnext
        # apply stored rotations, then create the new one
        for i in range(j):
            t = cs[i] * hess[i, j] + sn[i] * hess[i + 1, j]
            hess[i + 1, j] = -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j]
            hess[i, j] = t
        denom = np.hypot(hess[j, j], hess[j + 1, j])
        cs[j] = hess[j, j] / denom if denom else 1.0
        sn[j] = hess[j + 1, j] / denom if denom else 0.0
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        k = j + 1
        history.append(abs(g[j + 1]) / bnorm)
        if history[-1] <= tol or hnext <= 1e-14 * bnorm:  # met tol, or the space is invariant
            break
        basis[:, j + 1] = w / hnext
    y = solve_triangular(hess[:k, :k], g[:k])
    inner = basis[:, :k] @ y
    x = _apply_precond(precond, inner)
    true_res = float(np.linalg.norm(b - matrix.matvec(x))) / bnorm
    report = SolveReport(k, true_res <= tol, np.asarray(history), time.perf_counter() - t0,
                         true_res)
    return x, report


def estimate_condition(matrix, precond=None):
    """Condition number of the preconditioned operator (symmetric case).

    Up to ``DENSE_CUTOFF`` rows this is the exact extreme-eigenvalue ratio of
    C^{1/2} A C^{1/2} with C the assembled dense preconditioner (similar to
    C A).  Beyond it, the Lanczos estimate harvested from a conjugate-gradient
    run (tolerance 1e-12, at most 400 iterations) on a random right-hand side
    of seed 0.
    """
    if not matrix.symmetric:
        raise ValueError("condition estimation is defined for symmetric matrices")
    if precond is not None and not getattr(precond, "is_symmetric", False):
        raise ValueError("condition estimation needs a symmetric preconditioner")
    n = matrix.nrows
    if n <= DENSE_CUTOFF:
        dense_a = matrix.to_dense()
        c = np.empty((n, n))
        eye = np.eye(n)
        for j in range(n):
            c[:, j] = _apply_precond(precond, eye[:, j])
        c = 0.5 * (c + c.T)
        mu, u = eigh(c)
        if mu[0] <= 0:
            raise ValueError("preconditioner is not positive definite")
        root = u * np.sqrt(mu)
        sym = root.T @ dense_a @ root
        lam = eigh(0.5 * (sym + sym.T), eigvals_only=True)
        if lam[0] <= 0:
            raise ValueError("preconditioned operator is not positive definite")
        return float(lam[-1] / lam[0])
    b = np.random.default_rng(0).standard_normal(n)
    _, report = pcg(matrix, precond, b, tol=1e-12, maxit=min(n, 400), track_tridiagonal=True)
    return report.cond_estimate
