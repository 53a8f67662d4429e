"""Per-subdomain blocks and the harmonic boundary extension.

For a subdomain with local ordering (interior, layer 1, ..., layer d) the
"inner" part is everything except the outermost layer, and the "boundary
ring" is that outermost layer.  The harmonic extension maps boundary-ring
values to the full subdomain by solving the inner block against the
inner-to-ring coupling; it is the projection used both to split the local
matrix into a positive-semidefinite piece and to build coarse basis vectors.

A block's matrix is either the sparse cut that ``setup`` factors for the
one-level part or a dense copy from ``extract_local_blocks``; the harmonic
extension reads either, and only the dense pencils and the splitting make a
dense n_local x n_local copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparsemat import DENSE_GUARD, factor_blocks


class SubdomainSetupError(RuntimeError):
    """A subdomain block could not be factored; carries the subdomain index."""

    def __init__(self, subdomain, message):
        super().__init__(f"subdomain {subdomain}: {message}")
        self.subdomain = subdomain


@dataclass(frozen=True)
class LocalBlocks:
    """Local matrix of one subdomain (dense array or scipy sparse) plus its
    index bookkeeping."""

    subdomain: int
    a: np.ndarray | sp.spmatrix
    n_interior: int
    layer_sizes: tuple
    symmetric: bool

    @classmethod
    def of(cls, smap, a, symmetric):
        """Blocks of subdomain ``smap`` whose local matrix ``a`` is in its local ordering."""
        return cls(smap.index, a, smap.interior.size, tuple(l.size for l in smap.layers),
                   symmetric)

    @property
    def n_local(self):
        return self.a.shape[0]

    @property
    def n_boundary(self):
        return self.layer_sizes[-1] if self.layer_sizes else 0

    @property
    def n_inner(self):
        return self.n_local - self.n_boundary

    @property
    def dense(self):
        """The local matrix as a dense array (a new copy when ``a`` is sparse)."""
        if not sp.issparse(self.a):
            return self.a
        if self.n_local > DENSE_GUARD:
            raise ValueError(
                f"subdomain {self.subdomain} has {self.n_local} nodes; dense guard is {DENSE_GUARD}"
            )
        return self.a.toarray()


def extract_local_blocks(matrix, smap):
    """Dense principal submatrix of the subdomain in its local ordering."""
    idx = smap.indices
    local = LocalBlocks.of(smap, matrix.scipy()[idx][:, idx], matrix.symmetric).dense
    if not np.all(np.isfinite(local)):
        raise ValueError(f"subdomain {smap.index}: non-finite entries in local block")
    return LocalBlocks.of(smap, local, matrix.symmetric)


class HarmonicFactor:
    """Extension of boundary-ring values into the subdomain interior.

    Applying the factor to a local vector keeps its boundary-ring values and
    replaces everything else by minus the inner-block solve of the coupling
    times those values.  The operator is a projection: applying it twice
    gives the same result, and its complement is orthogonal to its range in
    the local-matrix inner product when the block is symmetric.  The inner
    block is factored sparsely; one that fails its factorization test raises
    ``SubdomainSetupError``.
    """

    def __init__(self, blocks):
        ni, nb = blocks.n_inner, blocks.n_boundary
        self.subdomain = blocks.subdomain
        self.n_inner = ni
        self.n_boundary = nb
        self.n_local = blocks.n_local
        self._ext = np.zeros((blocks.n_local, nb))
        self._ext[ni:] = np.eye(nb)
        if ni and nb:
            a = sp.csc_array(blocks.a)
            lu, failed = factor_blocks([a[:ni, :ni]], blocks.symmetric)
            if failed is not None:
                raise SubdomainSetupError(
                    blocks.subdomain, "inner block is not positive definite" if blocks.symmetric
                    else "inner block is numerically singular")
            self._ext[:ni] = -lu.solve(a[:ni, ni:].toarray())

    @property
    def extension(self):
        """Dense (n_local, n_boundary) block of extension columns."""
        return self._ext

    def apply(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_local,):
            raise ValueError("dimension mismatch in harmonic extension")
        return self._ext @ v[self.n_inner:]


def build_harmonic(blocks):
    """Build the harmonic extension factor; fails on singular inner blocks."""
    return HarmonicFactor(blocks)


def spsd_splitting(blocks, factor):
    """Positive-semidefinite local splitting of a symmetric block.

    Computed as (I - P)^T A (I - P) with P the harmonic extension, which
    stays well defined even with a single overlap layer.  The result agrees
    with the explicit Schur-complement construction whenever there are at
    least two layers, and reduces to the block itself when the boundary ring
    is empty.
    """
    if not blocks.symmetric:
        raise ValueError("positive-semidefinite splitting requires a symmetric block")
    m = blocks.n_local
    if blocks.n_boundary == 0:
        return blocks.dense.copy()
    e = np.eye(m)
    e[:, blocks.n_inner:] -= factor.extension
    tilde = e.T @ blocks.dense @ e
    tilde = 0.5 * (tilde + tilde.T)
    if not np.all(np.isfinite(tilde)):
        raise ValueError(f"subdomain {blocks.subdomain}: splitting produced non-finite values")
    return tilde
