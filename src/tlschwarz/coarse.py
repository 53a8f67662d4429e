"""Coarse-space assembly: basis columns, rank filtering, Galerkin operator.

The coarse basis is Z = [R_1^T D_1 V_1, ..., R_N^T D_N V_N]: every column
comes from one subdomain and is weighted by the Boolean partition of unity
D_i, so its support lies inside that subdomain's interior set.  Columns from
different subdomains are therefore orthogonal, and any linear dependence the
rank filter has to remove is local to a single subdomain's block V_i.

Each stage hands on plain arrays: one dense column block per subdomain, then
Z as a scipy CSR matrix with each subdomain's kept column count, then the
complete ``CoarseSpace`` from ``galerkin_coarse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr

from .sparsemat import factor_blocks

DROP_TOL = 1e-10


class CoarseSetupError(RuntimeError):
    """A00 = Z^T A Z is not positive definite (symmetric A) or numerically singular."""


@dataclass
class CoarseSpace:
    """Coarse basis Z (CSR), Z^T (a CSC view of the same arrays), A00 = Z^T A Z
    and its SuperLU factor."""

    basis: sp.csr_matrix
    basis_t: sp.csc_matrix
    a00: sp.csc_matrix
    lu: object


def subdomain_coarse_columns(smap, vectors, pou_basis=None):
    """Local coarse columns of one subdomain: ``vectors``, followed by any
    partition-of-unity modes, weighted by the Boolean partition of unity.

    ``vectors`` is the harmonic extension (every column, for the "full"
    coarse space) or the selected harmonic-pencil or singular vectors.
    """
    if pou_basis is not None:
        vectors = np.hstack([vectors, pou_basis.vectors])
    return vectors * smap.pou_mask.astype(np.float64)[:, None]


def assemble_coarse_basis(maps, column_blocks, n_global):
    """Rank-filter each subdomain's column block and scatter the kept columns.

    Identically zero columns are dropped.  The others go through a
    column-pivoted QR of their subdomain's block; a column is kept when its
    pivot is positive and at least ``DROP_TOL`` times the largest pivot of
    any subdomain.  Kept columns keep their values; they are ordered by
    subdomain, then by the order within each block.  Returns Z as a scipy
    CSR matrix and the tuple of kept column counts, one per subdomain.
    """
    offered, pivots = [], []
    for block in column_blocks:
        nonzero = np.flatnonzero(np.any(block, axis=0))
        mag = np.zeros(nonzero.size)
        if nonzero.size:
            r, perm = qr(block[:, nonzero], mode="r", pivoting=True)
            rdiag = np.abs(np.diag(r))
            mag[perm[:rdiag.size]] = rdiag
        offered.append(nonzero)
        pivots.append(mag)
    largest = max((mag.max(initial=0.0) for mag in pivots), default=0.0)
    data, rows, col_nnz, counts = [], [], [], []
    for smap, block, nonzero, mag in zip(maps, column_blocks, offered, pivots):
        kept = block[:, nonzero[(mag > 0) & (mag >= DROP_TOL * largest)]].T
        stored = kept != 0
        data.append(kept[stored])
        rows.append(smap.indices[np.nonzero(stored)[1]])
        col_nnz.append(np.count_nonzero(stored, axis=1))
        counts.append(kept.shape[0])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(col_nnz))])
    z = sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr),
                      shape=(n_global, sum(counts)))
    return z.tocsr(), tuple(counts)


def galerkin_coarse(matrix, z):
    """Form and factor the coarse operator A00 = Z^T A Z.

    The sparse product is symmetrized when the fine matrix carries the
    verified symmetry flag, and its zeros are dropped.  Its SuperLU factor
    must show it positive definite (symmetric) or numerically nonsingular.
    ``z`` must have at least one column.
    """
    zt = z.T
    a00 = (zt @ (matrix.scipy() @ z)).tocsc()
    if matrix.symmetric:
        a00 = (0.5 * (a00 + a00.T)).tocsc()
    a00.eliminate_zeros()
    lu, failed = factor_blocks([a00], matrix.symmetric)
    if failed is not None:
        raise CoarseSetupError("coarse operator is not positive definite" if matrix.symmetric
                               else "coarse operator is numerically singular")
    return CoarseSpace(z, zt, a00, lu)
