"""Coarse-space assembly: basis columns, rank filtering, Galerkin operator.

The coarse basis is Z = [R_1^T D_1 V_1, ..., R_N^T D_N V_N]: every column
comes from one subdomain and is weighted by the Boolean partition of unity
D_i, so R_i^T D_i V_i is just the interior rows of V_i placed at that
subdomain's interior unknowns.  The interiors partition the unknowns, so
columns from different subdomains have disjoint rows: they are orthogonal,
and any linear dependence the rank filter has to remove is local to a single
subdomain's interior block.

Each stage hands on plain arrays: one dense interior block per subdomain,
made from its ``LocalBlocks`` by ``subdomain_coarse_columns``, then Z as a
scipy CSR matrix with each subdomain's kept column count, then the complete
``CoarseSpace`` from ``galerkin_coarse``, which keeps the factor of
A00 = Z^T A Z (``galerkin_operator``) but not A00: an apply never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack, qr

from .sparsemat import DENSE_GUARD, _factor_owned, release_free_heap
from .spectral import select_harmonic_modes, select_pou_modes, svd_harmonic_modes
from .subdomain import GENERAL_OPTIONS_HINT, build_harmonic

DROP_TOL = 1e-10
# Largest 1-norm of the coarse correction's residual projector A Q, Q = Z A00^{-1} Z^T,
# for a coarse operator factored without the positive definiteness test.  On a
# symmetric positive definite A, ||A Q||_1 <= sqrt(n kappa_2(A)): only an A with
# kappa_2(A) > 1/(n eps) can exceed it.  Past it the deflated start x0 = Q b cancels
# more than half the digits.
PROJECTOR_LIMIT = 1.0 / np.sqrt(np.finfo(float).eps)
# Least share of its n^2 entries that A00 (at most DENSE_GUARD rows) stores to be factored
# dense.  Sparse, SuperLU's L+U takes 12 B per entry, fill times nnz(A00) of them (1.26 on
# poisson3d, 1.42 on advection2d), and the pivot read copies it; dense, the 8 n^2 B array
# sits beside A00's CSC arrays (12 B per entry) until LAPACK factors it in place.  At a fill
# of 4/3 the two peaks, 24 * 4/3 nnz and 8 n^2 + 12 nnz, meet at nnz = 0.4 n^2.
DENSE_SHARE = 0.4


class CoarseSetupError(RuntimeError):
    """A00 = Z^T A Z failed its factor test: not positive definite, or numerically singular."""


@dataclass
class CoarseSpace:
    """Coarse basis Z (CSR), Z^T (a CSC view of the same arrays), the factor of A00 = Z^T A Z
    (SuperLU's or a ``DenseFactor``) and the number of entries A00 stored."""

    basis: sp.csr_matrix
    basis_t: sp.csc_matrix
    lu: object
    nnz: int


class DenseFactor:
    """LAPACK's factor of a dense A00 with SuperLU's ``solve(b, trans="N"|"T")``: Cholesky
    A00 = U^T U (``perm`` None) or LU A00[perm] = L U, unit L below U; two ``dtrsv`` solve it."""

    def __init__(self, factor, perm=None):
        self.factor, self.perm = factor, perm

    def solve(self, b, trans="N"):
        f, trsv = self.factor, blas.dtrsv
        if self.perm is None:  # U^T U is symmetric: trans changes nothing
            return trsv(f, trsv(f, b, trans=1), overwrite_x=1)
        if trans == "N":
            return trsv(f, trsv(f, b[self.perm], lower=1, diag=1, overwrite_x=1), overwrite_x=1)
        y = np.empty_like(b)
        y[self.perm] = trsv(f, trsv(f, b, trans=1), lower=1, trans=1, diag=1, overwrite_x=1)
        return y


def subdomain_coarse_columns(blocks, kind, tau, nu=None):
    """One subdomain's coarse columns and the largest value its harmonic
    selection left out (0.0 for the "full" kind, which leaves nothing out).

    The columns are the harmonic extension E (kind "full") or its "gevp" or
    "svd" modes above ``tau``, then the partition-of-unity modes above ``nu``
    if it is set, cut to their interior rows as a new (n_interior, k) array:
    the Boolean partition of unity zeroes every other row of Z.
    """
    extension = build_harmonic(blocks)
    vectors, largest_unselected = extension, 0.0
    if kind != "full":
        select = select_harmonic_modes if kind == "gevp" else svd_harmonic_modes
        basis = select(blocks, extension, tau)
        vectors, largest_unselected = basis.vectors, basis.largest_unselected
    ni = blocks.n_interior
    if nu is None:
        return vectors[:ni].copy(), largest_unselected
    pou = select_pou_modes(blocks, nu).vectors
    return np.hstack([vectors[:ni], pou[:ni]]), largest_unselected


def assemble_coarse_basis(maps, column_blocks, n_global):
    """Rank-filter each subdomain's interior block and scatter the kept columns.

    Identically zero columns are dropped.  The others go through a
    column-pivoted QR of their subdomain's block; a column is kept when its
    pivot is positive and at least ``DROP_TOL`` times the largest pivot of
    any subdomain.  Kept columns keep their values; they are ordered by
    subdomain, then by the order within each block.  Block i holds the rows
    ``maps[i].interior`` of Z, and the interiors are disjoint, so each row of
    Z takes its entries from one block.  Returns Z as a scipy CSR matrix and
    the tuple of kept column counts, one per subdomain.
    """
    parts = list(column_blocks)
    pivots = [_pivots(block) for block in parts]
    cutoff = DROP_TOL * max((mag.max(initial=0.0) for mag in pivots), default=0.0)
    # Z's CSR arrays are written in place: each row's entries come from one block
    indptr = np.zeros(n_global + 1, np.int64)
    for i, (smap, mag) in enumerate(zip(maps, pivots)):
        parts[i] = parts[i][:, (mag > 0) & (mag >= cutoff)]
        indptr[smap.interior + 1] = np.count_nonzero(parts[i], axis=1)
    np.cumsum(indptr, out=indptr)
    counts = tuple(block.shape[1] for block in parts)
    index = np.int32 if max(indptr[-1], n_global, sum(counts)) < 2**31 else np.int64
    indices, data = np.empty(indptr[-1], index), np.empty(indptr[-1])
    for smap, block, offset in zip(maps, parts, np.cumsum((0,) + counts)):
        local, col = np.nonzero(block)
        row_nnz = np.count_nonzero(block, axis=1)
        # an entry's slot is its row's start plus its rank among the row's entries
        pos = (indptr[smap.interior] - np.cumsum(row_nnz) + row_nnz)[local] + np.arange(local.size)
        indices[pos] = col + offset
        data[pos] = block[local, col]
    z = sp.csr_matrix((data, indices, indptr.astype(index)), shape=(n_global, sum(counts)))
    return z, counts


def _pivots(block):
    """Per column, the magnitude of its column-pivoted QR pivot (0 for a zero
    column).  The QRs of all blocks run back to back, which keeps them fast."""
    nonzero = np.flatnonzero(np.any(block, axis=0))
    mag = np.zeros(block.shape[1])
    if nonzero.size:
        r, perm = qr(block[:, nonzero], mode="r", pivoting=True)
        rdiag = np.abs(np.diag(r))
        mag[nonzero[perm[:rdiag.size]]] = rdiag
    return mag


def galerkin_operator(matrix, z):
    """The coarse operator A00 = Z^T A Z as a scipy CSC matrix.

    A Z goes to CSC before the product, as scipy's CSC x CSR product would
    convert it, so the CSR A Z is freed before A00 is allocated.  A00 is
    symmetrized when the fine matrix is symmetric; its zeros are dropped and
    its indices left in the order the product made them.
    """
    a00 = z.T @ (matrix.scipy() @ z).tocsc()
    if matrix.symmetric:
        # not scaled in place: scipy sizes the sum's arrays for nnz(A00) +
        # nnz(A00^T) entries, and the scaled copy is compact
        a00 = 0.5 * (a00 + a00.T)
    a00.eliminate_zeros()
    return a00


def galerkin_coarse(matrix, z, spd):
    """Form and factor the coarse operator A00 = Z^T A Z.

    Only A00's factor is kept.  A sparse A00 goes to SuperLU sorted in place,
    not copied, and is freed once SuperLU returns, so the pivot read's copies
    of L and U can take its memory; a dense one (``DENSE_SHARE``) is copied to
    a Fortran-ordered array and freed before LAPACK factors that array.  The
    heap is given back before the product, before the factorization and after
    it.  With ``spd`` the factor must show A00 positive definite.  Without it
    the factor must pass the pivot test, and a lower bound on
    ||A Z A00^{-1} Z^T||_1, ``_projector_norm``, must not exceed
    ``PROJECTOR_LIMIT``.  ``z`` must have at least one column.
    """
    release_free_heap()
    owned = [galerkin_operator(matrix, z)]  # A00's only reference, which the factor drops
    nnz, n = owned[0].nnz, z.shape[1]
    if dense := n <= DENSE_GUARD and nnz >= DENSE_SHARE * n * n:
        owned[0] = owned[0].toarray(order="F")
    else:
        owned[0].sum_duplicates()  # sorts in place and marks it canonical: SuperLU takes it as is
    release_free_heap()
    lu, failed = _factor_dense(owned.pop(), spd) if dense else _factor_owned(owned, spd)
    release_free_heap()
    if failed is not None or not spd and _projector_norm(matrix, z, lu) > PROJECTOR_LIMIT:
        raise CoarseSetupError("coarse operator is not positive definite" + GENERAL_OPTIONS_HINT
                               if spd else "coarse operator is numerically singular")
    return CoarseSpace(z, z.T, lu, nnz)


def _factor_dense(a, spd):
    """``(DenseFactor, failed)`` of the Fortran-ordered A00 ``a``, factored in ``a``: ``failed``
    is 0 if Cholesky (``spd``) fails or an LU pivot is at most n * eps * max|U|, else None."""
    if spd:
        u, info = lapack.dpotrf(a, overwrite_a=1, clean=0)
        return DenseFactor(u), 0 if info else None
    lu, piv, info = lapack.dgetrf(a, overwrite_a=1)
    limit = a.shape[0] * np.finfo(float).eps * lapack.dlantr("M", lu)  # max|U|
    perm = np.arange(a.shape[0])
    for i, p in enumerate(piv):  # LAPACK's row swaps, in order
        perm[i], perm[p] = perm[p], perm[i]
    return DenseFactor(lu, perm), 0 if info or (np.abs(lu.diagonal()) <= limit).any() else None


def _projector_norm(matrix, z, lu):
    """A lower bound on ||A Q||_1, Q = Z A00^{-1} Z^T with ``lu`` the factor
    of A00: the Hager-Higham estimate from a few products with A Q and
    its transpose (Higham and Tisseur, SIAM J. Matrix Anal. Appl. 21, 2000).
    With one column it draws no random vector."""
    a, zt = matrix.scipy(), z.T
    return spla.onenormest(spla.LinearOperator(
        a.shape, dtype=float, matvec=lambda v: a @ (z @ lu.solve(zt @ v)),
        rmatvec=lambda v: z @ lu.solve(zt @ (a.T @ v), trans="T")), t=1)
