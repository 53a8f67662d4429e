"""Preconditioned Krylov solvers and condition-number estimation.

PCG starts from zero, GMRES from the iterate a preconditioner's ``start(b)``
returns (x0 = Q b for the deflated combination).  Both stop on the
unpreconditioned relative residual and report the full residual history; at
every exit a solve is converged iff the true residual ||b - A x|| / ||b||
meets the tolerance; the report also names the exit taken.  GMRES builds one
unrestarted basis, stored by rows, and orthogonalizes each new vector by
classical Gram-Schmidt run twice.  It keeps the preconditioned basis vectors
too (flexible form), so it applies the preconditioner once per iteration and
its iterate is exact for any preconditioner.  Both stores start at 16 rows
and double when full, never past maxit: after k iterations they hold 2(k+1)
vectors of length n, and only as k nears maxit do they reach twice the size
of one basis sized by maxit (while a doubling copies, the old arrays are
alive too).  The iteration cap is a hard 1000 to bound that memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigvalsh, eigvalsh_tridiagonal, solve_triangular

GMRES_MAXIT_CAP = 1000
GMRES_START_CAPACITY = 16  # rows of the first basis; doubled when full
# Largest system whose exact condition number estimate_condition computes and
# whose bound run_experiment checks; a larger one has only PCG's lower estimate.
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
    residuals: np.ndarray  # ||r_j|| / ||b||, j = 0..iterations; the first can exceed 1
    wall_time: float
    true_residual: float  # ||b - A x|| / ||b|| of the returned iterate
    stop_reason: str  # "tol", "maxit" or, for GMRES, "invariant" (the Krylov space closed)
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
        lines.append(f"stop_reason = {self.stop_reason}")
        return "\n".join(lines) + "\n"


def _apply_precond(precond, r):
    if precond is None:
        return r.copy()
    return precond.apply(r)


def _check_stopping(tol, maxit):
    if not tol > 0:  # also refuses NaN
        raise ValueError(f"tol must be positive, got {tol}")
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")


def pcg(matrix, precond, b, tol=1e-8, maxit=500):
    """Preconditioned conjugate gradients from the zero start.

    Stops when the recursive residual reaches tol * ||b||; it is replaced by
    the true residual every 25 iterations to guard against drift.  Raises
    BreakdownError when p'Ap <= 0 or r'z <= 0 (matrix or preconditioner not SPD).
    The report's ``cond_estimate`` is the condition estimate of the
    preconditioned operator from the underlying three-term recurrence; it is
    None only when no iteration ran (b = 0) or a coefficient is not finite.
    A tol that is not positive or a maxit below 1 raises ValueError.
    """
    t0 = time.perf_counter()
    _check_stopping(tol, maxit)
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolveReport(0, True, np.zeros(1), time.perf_counter() - t0, 0.0, "tol")
    r = b.copy()
    p = np.zeros_like(b)
    history = [1.0]
    alphas, betas = [], []
    rz, it = 0.0, 0
    stop = "maxit"
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
            stop = "tol"
            break
    true_res = float(np.linalg.norm(b - matrix.matvec(x))) / bnorm
    cond = _cond_from_recurrence(alphas, betas) if alphas else None
    report = SolveReport(it, true_res <= tol, np.asarray(history), time.perf_counter() - t0,
                         true_res, stop, cond)
    return x, report


def _cond_from_recurrence(alphas, betas):
    """Extreme generalized Ritz values from the CG coefficients; None when
    the tridiagonal matrix they make is not finite."""
    alphas, betas = np.asarray(alphas), np.asarray(betas)
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(np.maximum(betas, 0.0)) / alphas[:-1]
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        return None
    ritz = eigvalsh_tridiagonal(diag, off)
    if ritz[0] <= 0:
        return float("inf")
    return float(ritz[-1] / ritz[0])


def gmres(matrix, precond, b, tol=1e-8, maxit=500):
    """Right-preconditioned GMRES, no restarts, in flexible form.

    ``precond.start(b)``, where it exists, gives x0 and M^{-1}; else x0 = 0.
    The Arnoldi recurrence runs on A M^{-1} from r0 = b - A x0, so the
    least-squares residual it minimizes is the plain unpreconditioned residual
    and the stopping test needs no extra matvec; a start that meets tol is
    returned as it is.  Each iteration applies the preconditioner once and
    keeps z_j = M^{-1} v_j; the iterate x = x0 + Z_k y is the least-squares
    minimizer for any preconditioner, also one that changes between calls.
    After k iterations it stores 2(k+1) vectors of length n, grown by
    doubling (see the module docstring for the memory bound).  A tol that is
    not positive or a maxit outside 1..GMRES_MAXIT_CAP raises ValueError.
    """
    t0 = time.perf_counter()
    _check_stopping(tol, maxit)
    if maxit > GMRES_MAXIT_CAP:
        raise ValueError(f"maxit {maxit} exceeds the hard cap {GMRES_MAXIT_CAP}")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if hasattr(precond, "start"):
        x0, apply = precond.start(b)
    else:
        x0, apply = np.zeros(n), lambda v: _apply_precond(precond, v)
    r = b - matrix.matvec(x0)
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol * bnorm:  # r is the true residual of x0; this exit also takes b = 0
        rel = rnorm / bnorm if bnorm else 0.0
        return x0, SolveReport(0, rel <= tol, np.array([rel]), time.perf_counter() - t0, rel,
                               "tol")
    history = [rnorm / bnorm]
    m = min(maxit, n)
    cap = min(m, GMRES_START_CAPACITY)
    basis = np.empty((cap + 1, n))  # by rows: a new vector touches only its own pages
    pre = np.empty((cap, n))  # pre[j] = M^{-1} basis[j]
    hess = np.zeros((cap + 1, cap))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = rnorm
    basis[0] = r / rnorm
    k = 0
    stop = "maxit"
    for j in range(m):
        if j == cap:
            cap = min(2 * cap, m)
            basis = _grown(basis, cap + 1, n, np.empty)
            pre = _grown(pre, cap, n, np.empty)
            hess = _grown(hess, cap + 1, cap, np.zeros)
        pre[j] = apply(basis[j])
        w = matrix.matvec(pre[j])
        for _ in range(2):  # classical Gram-Schmidt; the second pass restores orthogonality
            c = basis[: j + 1] @ w
            w -= c @ basis[: j + 1]
            hess[: j + 1, j] += c
        hnext = float(np.linalg.norm(w))
        hess[j + 1, j] = hnext
        # invariant when hnext is negligible beside ||A M^{-1} v_j||, the unrotated column's norm
        invariant = hnext <= 1e-14 * np.linalg.norm(hess[: j + 2, j])
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
        if history[-1] <= tol:
            stop = "tol"
            break
        if invariant:
            stop = "invariant"
            break
        basis[j + 1] = w / hnext
    y = solve_triangular(hess[:k, :k], g[:k])
    x = x0 + y @ pre[:k]
    true_res = float(np.linalg.norm(b - matrix.matvec(x))) / bnorm
    report = SolveReport(k, true_res <= tol, np.asarray(history), time.perf_counter() - t0,
                         true_res, stop)
    return x, report


def _grown(a, rows, cols, alloc):
    """``a`` copied into the top-left corner of a new ``alloc((rows, cols))`` array."""
    out = alloc((rows, cols))
    out[: a.shape[0], : a.shape[1]] = a
    return out


def estimate_condition(matrix, precond=None):
    """Exact condition number of the preconditioned operator (symmetric case).

    The extreme-eigenvalue ratio of L^T A L, where L is the lower Cholesky
    factor of the assembled dense preconditioner C = L L^T (L^T A L is similar
    to C A); the factorization reads only C's lower triangle.  Above
    ``DENSE_CUTOFF`` rows it raises ``ValueError``: there a PCG report's
    ``cond_estimate`` is the condition number on offer, a lower estimate.
    """
    if not matrix.symmetric:
        raise ValueError("condition estimation is defined for symmetric matrices")
    if precond is not None and not getattr(precond, "is_symmetric", False):
        raise ValueError("condition estimation needs a symmetric preconditioner")
    n = matrix.nrows
    if n > DENSE_CUTOFF:
        raise ValueError(f"{n} rows exceed DENSE_CUTOFF = {DENSE_CUTOFF}; a PCG report's "
                         "cond_estimate estimates the condition number from below")
    c = np.column_stack([_apply_precond(precond, e) for e in np.eye(n)])
    try:
        low = cholesky(c, lower=True)
    except LinAlgError:
        raise ValueError("preconditioner is not positive definite") from None
    lam = eigvalsh(low.T @ matrix.to_dense() @ low)
    if lam[0] <= 0:
        raise ValueError("preconditioned operator is not positive definite")
    return float(lam[-1] / lam[0])
