"""Coarse-space assembly: basis columns, rank filtering, Galerkin operator.

Every coarse column comes from one subdomain and is weighted by the Boolean
partition of unity, so its support lies inside that subdomain's interior set.
Columns from different subdomains are therefore orthogonal, and any linear
dependence the rank filter has to remove is local to a single subdomain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr

from .sparsemat import SparseMat, factor_blocks

DROP_TOL = 1e-10


@dataclass
class CoarseSpace:
    """Global coarse basis (columns) plus the Galerkin operator, once built."""

    basis: SparseMat
    ranges: tuple  # per-subdomain (start, end) column ranges
    a00: sp.csc_matrix | None = None
    nnz_a00: int = 0
    _solve: object = None

    @property
    def n_coarse(self):
        return self.basis.ncols

    def column_counts(self):
        return tuple(end - start for start, end in self.ranges)

    def restrict(self, r):
        return self.basis.scipy().T @ r

    def prolong(self, y):
        return self.basis.scipy() @ y

    def solve_coarse(self, rhs):
        if self._solve is None:
            raise RuntimeError("coarse operator not factored; call galerkin_coarse first")
        return self._solve(rhs)


def subdomain_coarse_columns(smap, factor, variant, harmonic_basis=None, pou_basis=None):
    """Local coarse columns of one subdomain, already mask-weighted.

    variant "full"   — every harmonic extension column (one per boundary-ring
                       node), plus any partition-of-unity modes.
    variant "shrunk" — the selected modes of the harmonic pencil (already
                       harmonic extensions), plus any partition-of-unity modes.
    variant "svd"    — the selected Euclidean singular vectors (their
                       construction already confines them to the interior,
                       so the mask leaves them as they are).
    """
    d = smap.pou_mask.astype(np.float64)[:, None]
    cols = []
    if variant == "full":
        cols.append(factor.extension * d)
    elif variant in ("shrunk", "svd"):
        if harmonic_basis is None:
            raise ValueError(f"{variant} variant needs the selected harmonic basis")
        if harmonic_basis.n_selected:
            cols.append(harmonic_basis.vectors * d)
    else:
        raise ValueError(f"unknown coarse variant {variant!r}")
    if pou_basis is not None and pou_basis.n_selected:
        cols.append(pou_basis.vectors * d)
    if not cols:
        return np.zeros((smap.n_local, 0))
    return np.hstack(cols)


def assemble_coarse_basis(maps, column_blocks, n_global):
    """Scatter per-subdomain column blocks into the global coarse basis.

    Identically zero columns are dropped.  Column order is by subdomain, then
    by the order within each block; ``ranges`` records each subdomain's slice.
    """
    rows, cols, vals = [], [], []
    ranges = []
    k = 0
    for smap, block in zip(maps, column_blocks):
        start = k
        for j in range(block.shape[1]):
            col = block[:, j]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            rows.append(smap.indices[nz])
            cols.append(np.full(nz.size, k, dtype=np.int64))
            vals.append(col[nz])
            k += 1
        ranges.append((start, k))
    if k == 0:
        basis = SparseMat(sp.csr_matrix((n_global, 0)))
        return CoarseSpace(basis, tuple(ranges))
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_global, k),
    )
    return CoarseSpace(SparseMat(coo.tocsr()), tuple(ranges))


def rank_filter(space, maps, drop_tol=DROP_TOL):
    """Drop near-dependent coarse columns by pivoted orthogonal factorization.

    Because columns of different subdomains have disjoint supports, the
    column-pivoted QR of the whole basis decomposes exactly into independent
    per-subdomain factorizations; pivot magnitudes are compared against the
    globally largest one.  Surviving columns keep their original values and
    order.
    """
    if space.n_coarse == 0:
        return space
    csc = space.basis.scipy().tocsc()
    pivots = []  # (magnitude, original column) pairs
    for (start, end), smap in zip(space.ranges, maps):
        if end == start:
            continue
        block = csc[:, start:end][smap.indices, :].toarray()
        r, perm = qr(block, mode="r", pivoting=True)
        rdiag = np.abs(np.diag(r))
        for k in range(block.shape[1]):
            pivots.append((rdiag[k] if k < rdiag.size else 0.0, start + perm[k]))
    largest = max(mag for mag, _ in pivots)
    keep = sorted(col for mag, col in pivots if mag >= drop_tol * largest)
    if len(keep) == space.n_coarse:
        return space
    if not keep:
        warnings.warn("rank filter removed every coarse column; coarse level disabled")
        basis = SparseMat(sp.csr_matrix((space.basis.nrows, 0)))
        return CoarseSpace(basis, tuple((0, 0) for _ in space.ranges))
    keep_arr = np.asarray(keep, dtype=np.int64)
    new_ranges = []
    for start, end in space.ranges:
        lo = int(np.searchsorted(keep_arr, start))
        hi = int(np.searchsorted(keep_arr, end))
        new_ranges.append((lo, hi))
    filtered = csc[:, keep_arr].tocsr()
    return CoarseSpace(SparseMat(filtered), tuple(new_ranges))


def galerkin_coarse(matrix, space):
    """Form and factor the coarse operator: basis^T * matrix * basis.

    The sparse product is symmetrized when the fine matrix carries the
    verified symmetry flag, and its zeros are dropped.  Its SuperLU factor
    must show it positive definite (symmetric) or numerically nonsingular.
    """
    if space.n_coarse == 0:
        return space
    b = space.basis.scipy()
    a00 = (b.T @ (matrix.scipy() @ b)).tocsc()
    if matrix.symmetric:
        a00 = (0.5 * (a00 + a00.T)).tocsc()
    a00.eliminate_zeros()
    lu, failed = factor_blocks([a00], matrix.symmetric)
    if failed is not None:
        raise RuntimeError("coarse operator is not positive definite" if matrix.symmetric
                           else "coarse operator is numerically singular")
    return CoarseSpace(space.basis, space.ranges, a00=a00, nnz_a00=a00.nnz, _solve=lu.solve)
