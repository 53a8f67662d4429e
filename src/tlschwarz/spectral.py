"""Spectral mode selection on subdomains.

Three selections feed the coarse space:

* ``select_pou_modes`` — eigenvectors of the pencil (D A D, A) with
  eigenvalue above a user threshold, D being the Boolean partition of unity.
  Only meaningful for symmetric positive definite blocks.
* ``select_harmonic_modes`` — eigenvectors of the pencil ((DP)^T A (DP), A)
  with P the harmonic extension; eigenvalues are squares of the A-weighted
  singular values of DP, and vectors with singular value above the threshold
  are kept.  The left side lives on the boundary ring, so the pencil is
  solved there, as the boundary Schur-complement pencil (E^T D A D E, E^T A E)
  with E the extension columns, and its vectors are lifted by E.
* ``svd_harmonic_modes`` — plain Euclidean left singular vectors of DP above
  the threshold; the fallback that needs no symmetry.

Each selector reads D from the subdomain's ``LocalBlocks`` (one on its first
``n_interior`` rows, zero on the overlap layers); the harmonic ones also take
E as the dense array that ``build_harmonic`` returns.  Each returns a
``SpectralBasis`` of the selected vectors and every value it solved for.

All selections use strict inequality with a small relative tie guard so a
value sitting exactly on the threshold is never admitted, regardless of
rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .sparsemat import DENSE_GUARD

TIE_GUARD = 1e-12


@dataclass(frozen=True)
class SpectralBasis:
    """Selected vectors for one subdomain and the spectrum they came from.

    ``all_values`` is sorted descending and selection is a threshold on it,
    so its first ``n_selected`` entries are the selected values and the next
    is the largest value left out, the sharpest threshold for bound checks.
    """

    vectors: np.ndarray
    all_values: np.ndarray

    @property
    def n_selected(self):
        return self.vectors.shape[1]

    @property
    def largest_unselected(self):
        k = self.n_selected
        return float(self.all_values[k]) if k < self.all_values.size else 0.0


def _fix_signs(vecs):
    """Flip, in place, each column whose largest-magnitude component (the
    first one, on ties) is negative."""
    if vecs.size:
        flip = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])] < 0
        vecs[:, flip] = -vecs[:, flip]
    return vecs


def sym_gevp(lhs, rhs):
    """Dense symmetric-definite generalized eigenproblem lhs u = t rhs u.

    ``rhs`` must be symmetric positive definite.  Returns eigenvalues in
    descending order and eigenvectors orthonormal in the rhs inner product,
    with a deterministic sign convention.
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.shape != rhs.shape or lhs.shape[0] != lhs.shape[1]:
        raise ValueError("pencil blocks must be square and of equal shape")
    vals, vecs = eigh(lhs, rhs)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("eigensolve produced non-finite values")
    return vals, _fix_signs(vecs)


def _select_above(vals, vecs, threshold):
    return vecs[:, vals > threshold * (1.0 + TIE_GUARD)]


def select_pou_modes(blocks, threshold):
    """Modes of the partition-of-unity pencil with eigenvalue above threshold.

    The pencil's spectrum splits into an exact zero group (one per overlap
    node), an exact one group, and the rest above one; the selection only
    ever draws from the last group since the threshold must exceed one.
    The pencil is dense, so a block above ``DENSE_GUARD`` nodes is refused.
    """
    if not blocks.spd:
        raise ValueError("partition-of-unity modes require a symmetric block")
    if not threshold > 1.0:
        raise ValueError("threshold must exceed 1")
    if blocks.n_local > DENSE_GUARD:
        raise ValueError(f"subdomain {blocks.subdomain} has {blocks.n_local} nodes; "
                         f"dense guard is {DENSE_GUARD}")
    d = blocks.pou_weights
    a = blocks.a.toarray()
    vals, vecs = sym_gevp(a * np.outer(d, d), a)
    return SpectralBasis(_select_above(vals, vecs, threshold), vals)


def select_harmonic_modes(blocks, extension, threshold):
    """Modes of the masked harmonic-extension pencil above threshold.

    The left side is nonzero only on the boundary-ring block, so the n_local
    pencil has n_inner zero eigenvalues and the others are those of the
    n_boundary pencil (E^T D A D E, E^T A E); E^T A E is the boundary Schur
    complement.  Selected vectors are E w: full local vectors, orthonormal in
    the block's inner product.  Values are the n_boundary A-weighted singular
    values (square roots of the boundary pencil's eigenvalues).
    """
    if not blocks.spd:
        raise ValueError("harmonic-pencil modes require a symmetric block")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    masked = extension * blocks.pou_weights[:, None]
    lhs = masked.T @ (blocks.a @ masked)
    schur = extension.T @ (blocks.a @ extension)
    vals, vecs = sym_gevp(0.5 * (lhs + lhs.T), 0.5 * (schur + schur.T))
    sigmas = np.sqrt(np.clip(vals, 0.0, None))
    return SpectralBasis(_fix_signs(extension @ _select_above(sigmas, vecs, threshold)), sigmas)


def svd_harmonic_modes(blocks, extension, threshold):
    """Euclidean left singular vectors of the masked harmonic extension.

    Works for any nonsingular block.  The masked extension is supported on
    interior rows only, so the returned vectors are full local vectors that
    vanish off the interior and are Euclidean-orthonormal.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    ni = blocks.n_interior
    u, s, _ = np.linalg.svd(extension[:ni], full_matrices=False)
    vectors = np.pad(_select_above(s, u, threshold), ((0, blocks.n_local - ni), (0, 0)))
    return SpectralBasis(_fix_signs(vectors), s)
