"""Per-subdomain blocks and the harmonic boundary extension.

For a subdomain with local ordering (interior, layer 1, ..., layer d) the
"inner" part is everything except the outermost layer, and the "boundary
ring" is that outermost layer.  The harmonic extension E, a dense
(n_local, n_boundary) array, maps boundary-ring values to the full subdomain
by solving the inner block against the inner-to-ring coupling; it gives the
projection used both to split the local matrix into a positive-semidefinite
piece and to build coarse basis vectors.

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
    def pou_weights(self):
        """The Boolean partition of unity D as 0/1 floats: one on the interior rows."""
        return (np.arange(self.n_local) < self.n_interior).astype(np.float64)

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


def build_harmonic(blocks):
    """Harmonic extension E of boundary-ring values into the subdomain.

    E is the dense (n_local, n_boundary) block that keeps the boundary-ring
    values and fills everything else with minus the inner-block solve of the
    coupling times those values.  The local operator that applies E to the
    boundary-ring part of a vector is a projection, and its complement is
    orthogonal to its range in the local-matrix inner product when the block
    is symmetric.  The inner block is factored sparsely; one that fails its
    factorization test raises ``SubdomainSetupError``.
    """
    ni, nb = blocks.n_inner, blocks.n_boundary
    extension = np.zeros((blocks.n_local, nb))
    extension[ni:] = np.eye(nb)
    if ni and nb:
        a = sp.csc_array(blocks.a)
        lu, failed = factor_blocks([a[:ni, :ni]], blocks.symmetric)
        if failed is not None:
            raise SubdomainSetupError(
                blocks.subdomain, "inner block is not positive definite" if blocks.symmetric
                else "inner block is numerically singular")
        extension[:ni] = -lu.solve(a[:ni, ni:].toarray())
    return extension


def spsd_splitting(blocks, extension):
    """Positive-semidefinite local splitting of a symmetric block.

    Computed as (I - P)^T A (I - P) with P the projection that applies
    ``extension`` to the boundary-ring part, which stays well defined even
    with a single overlap layer.  The result agrees with the explicit
    Schur-complement construction whenever there are at least two layers,
    and reduces to the block itself when the boundary ring is empty.
    """
    if not blocks.symmetric:
        raise ValueError("positive-semidefinite splitting requires a symmetric block")
    if blocks.n_boundary == 0:
        return blocks.dense.copy()
    e = np.eye(blocks.n_local)
    e[:, blocks.n_inner:] -= extension
    tilde = e.T @ blocks.dense @ e
    tilde = 0.5 * (tilde + tilde.T)
    if not np.all(np.isfinite(tilde)):
        raise ValueError(f"subdomain {blocks.subdomain}: splitting produced non-finite values")
    return tilde
