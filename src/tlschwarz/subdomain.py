"""Per-subdomain blocks and the harmonic boundary extension.

For a subdomain with local ordering (interior, layer 1, ..., layer d) the
"inner" part is everything except the outermost layer, and the "boundary
ring" is that outermost layer.  The harmonic extension E, a dense
(n_local, n_boundary) array, maps boundary-ring values to the full subdomain
by solving the inner block against the inner-to-ring coupling; it gives the
projection from which the coarse basis vectors are built.

A block's matrix is the sparse cut that ``extract_local_blocks`` makes.
Only the partition-of-unity pencil (``spectral.select_pou_modes``) makes a
dense n_local x n_local copy of it, one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparsemat import factor_blocks

# Appended where a positive definiteness test fails: the options that need no such test.
GENERAL_OPTIONS_HINT = ('; a symmetric indefinite matrix needs coarse="svd", one_level="ras", '
                        'combine="deflated" (--coarse svd --one-level ras --combine deflated)')


class SubdomainSetupError(RuntimeError):
    """A subdomain block could not be factored; carries the subdomain index."""

    def __init__(self, subdomain, message):
        super().__init__(f"subdomain {subdomain}: {message}")
        self.subdomain = subdomain


@dataclass(frozen=True)
class LocalBlocks:
    """Sparse local matrix of one subdomain plus its index bookkeeping."""

    subdomain: int
    a: sp.csr_matrix
    n_interior: int
    layer_sizes: tuple
    spd: bool  # its factors must show it positive definite

    @property
    def n_local(self):
        return self.a.shape[0]

    @property
    def n_boundary(self):
        return self.layer_sizes[-1] if self.layer_sizes else 0

    @property
    def n_inner(self):
        return self.n_local - self.n_boundary


def extract_local_blocks(matrix, smap, spd):
    """Sparse (CSR) principal submatrix of the subdomain in its local ordering."""
    idx = smap.indices
    return LocalBlocks(smap.index, matrix.scipy()[idx][:, idx], smap.interior.size,
                       tuple(l.size for l in smap.layers), spd)


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
        lu, failed = factor_blocks([a[:ni, :ni]], blocks.spd)
        if failed is not None:
            raise SubdomainSetupError(
                blocks.subdomain, "inner block is not positive definite" + GENERAL_OPTIONS_HINT
                if blocks.spd else "inner block is numerically singular")
        extension[:ni] = -lu.solve(a[:ni, ni:].toarray())
    return extension
