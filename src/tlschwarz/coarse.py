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
    CSR matrix and the tuple of kept column counts, one per subdomain.  Each
    block is cut to its nonzero rows as it arrives, so a generator of blocks
    has one dense block alive at a time.
    """
    blocks = iter(column_blocks)
    parts = [_nonzero_rows(next(blocks)) for _ in maps]
    pivots = [_pivots(*part) for part in parts]
    cutoff = DROP_TOL * max((mag.max(initial=0.0) for mag in pivots), default=0.0)
    # Z's CSR arrays are written in place: per row, the blocks in subdomain order
    indptr = np.zeros(n_global + 1, np.int64)
    for i, (smap, (_, stored, values), mag) in enumerate(zip(maps, parts, pivots)):
        parts[i] = smap.indices[stored], values[:, (mag > 0) & (mag >= cutoff)]
        indptr[parts[i][0] + 1] += np.count_nonzero(parts[i][1], axis=1)
    np.cumsum(indptr, out=indptr)
    counts = tuple(values.shape[1] for _, values in parts)
    index = np.int32 if max(indptr[-1], n_global, sum(counts)) < 2**31 else np.int64
    indices, data = np.empty(indptr[-1], index), np.empty(indptr[-1])
    start = indptr[:-1].copy()
    for (rows, values), offset in zip(parts, np.cumsum((0,) + counts)):
        local, col = np.nonzero(values)
        row_nnz = np.count_nonzero(values, axis=1)
        # each entry goes to its row's next free slot, columns ascending within a row
        pos = (start[rows] - np.cumsum(row_nnz) + row_nnz)[local] + np.arange(local.size)
        indices[pos] = col + offset
        data[pos] = values[local, col]
        start[rows] += row_nnz
    z = sp.csr_matrix((data, indices, indptr.astype(index)), shape=(n_global, sum(counts)))
    return z, counts


def _nonzero_rows(block):
    """The block's shape, the indices of its nonzero rows and those rows."""
    stored = np.flatnonzero(np.any(block, axis=1))
    return block.shape, stored, block[stored]


def _pivots(shape, stored, values):
    """Per column, the magnitude of its column-pivoted QR pivot (0 for a zero
    column).  The QR sees the block rebuilt with its zero rows, exactly as it
    was offered; the QRs of all blocks run back to back, which keeps them fast."""
    block = np.zeros(shape)
    block[stored] = values
    nonzero = np.flatnonzero(np.any(values, axis=0))
    mag = np.zeros(shape[1])
    if nonzero.size:
        r, perm = qr(block[:, nonzero], mode="r", pivoting=True)
        rdiag = np.abs(np.diag(r))
        mag[nonzero[perm[:rdiag.size]]] = rdiag
    return mag


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
