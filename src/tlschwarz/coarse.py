"""Coarse-space assembly: basis columns, rank filtering, Galerkin operator.

The coarse basis is Z = [R_1^T D_1 V_1, ..., R_N^T D_N V_N]: every column
comes from one subdomain and is weighted by the Boolean partition of unity
D_i, so its support lies inside that subdomain's interior set.  Columns from
different subdomains are therefore orthogonal, and any linear dependence the
rank filter has to remove is local to a single subdomain's block V_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr

from .sparsemat import SparseMat, factor_blocks

DROP_TOL = 1e-10


@dataclass
class CoarseSpace:
    """Global coarse basis Z, plus A00 = Z^T A Z, its factor and Z^T once formed."""

    basis: SparseMat
    ranges: tuple  # per-subdomain (start, end) column ranges
    a00: sp.csc_matrix | None = None
    lu: object = None
    basis_t: sp.csc_matrix | None = None  # a view of the basis arrays, made once

    @property
    def n_coarse(self):
        return self.basis.ncols

    @property
    def nnz_a00(self):
        return 0 if self.a00 is None else self.a00.nnz

    def column_counts(self):
        return tuple(end - start for start, end in self.ranges)


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
    subdomain, then by the order within each block, and ``ranges`` records
    each subdomain's slice.
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
    data, rows, counts, ranges = [], [], [], []
    k = 0
    for smap, block, nonzero, mag in zip(maps, column_blocks, offered, pivots):
        kept = block[:, nonzero[(mag > 0) & (mag >= DROP_TOL * largest)]].T
        stored = kept != 0
        data.append(kept[stored])
        rows.append(smap.indices[np.nonzero(stored)[1]])
        counts.append(np.count_nonzero(stored, axis=1))
        ranges.append((k, k + kept.shape[0]))
        k += kept.shape[0]
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    z = sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr), shape=(n_global, k))
    return CoarseSpace(SparseMat(z), tuple(ranges))


def galerkin_coarse(matrix, space):
    """Form and factor the coarse operator A00 = Z^T A Z.

    The sparse product is symmetrized when the fine matrix carries the
    verified symmetry flag, and its zeros are dropped.  Its SuperLU factor
    must show it positive definite (symmetric) or numerically nonsingular.
    """
    if space.n_coarse == 0:
        return space
    z = space.basis.scipy()
    zt = z.T
    a00 = (zt @ (matrix.scipy() @ z)).tocsc()
    if matrix.symmetric:
        a00 = (0.5 * (a00 + a00.T)).tocsc()
    a00.eliminate_zeros()
    lu, failed = factor_blocks([a00], matrix.symmetric)
    if failed is not None:
        raise RuntimeError("coarse operator is not positive definite" if matrix.symmetric
                           else "coarse operator is numerically singular")
    return CoarseSpace(space.basis, space.ranges, a00=a00, lu=lu, basis_t=zt)
