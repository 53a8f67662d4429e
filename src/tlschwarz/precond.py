"""Schwarz preconditioner setup and application.

One-level variants:

* ``asm`` — sum of subdomain solves scattered back as they are (symmetric
  when the matrix is).
* ``ras`` — the same solves weighted by the Boolean partition of unity
  before scattering (cheaper to apply well, but nonsymmetric).

Two-level combinations with the coarse solve Q r = Z A00^{-1} Z^T r:

* ``additive`` — one_level(r) + Q r (keeps symmetry with asm).
* ``deflated`` — Q r + (I - Q A) one_level(r - A Q r); the coarse residual
  of the output vanishes identically.  GMRES starts it from x0 = Q b
  (``start``): then Z^T v = 0 on every Krylov vector v, where the apply
  equals (I - Q A) one_level(v), one coarse solve and one matvec instead of
  two each (balancing = A-DEF2; Tang, Nabben, Vuik and Erlangga, J. Sci.
  Comput. 39, 2009).

Each level is one sparse operator with one SuperLU factor: the one-level
part is P B^{-1} R, with R the stacked 0/1 subdomain restrictions, B the
block-diagonal matrix of the subdomain blocks and P = R^T (asm) or R^T times
the partition-of-unity mask (ras); the coarse operator A00 stays sparse.

The two levels of the additive apply are independent, so the coarse solve
runs on one private worker thread while the calling thread runs the
one-level solve; both are SuperLU solves and sparse products that release
the GIL, and each BLAS call stays single-threaded.  The sum is formed in the
serial order, so the result is bit-identical to the serial one, and ``apply``
returns or raises only once the coarse task has finished.  The deflated
combination is sequential by construction (each level needs the other's
output).  Nothing about this is configurable.  Only vector-sized work may go
on the worker thread: it allocates from a second malloc arena, where a large
allocation (a factorization, say) stays resident beside the main arena.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import coarse as coarse_mod
from . import spectral
from .partition import color_subdomains, extend_overlap, partition_graph
from .sparsemat import SparseMat, factor_blocks, symmetrized_graph
from .subdomain import SubdomainSetupError, build_harmonic, extract_local_blocks

ONE_LEVEL_KINDS = ("asm", "ras")
COMBINE_KINDS = ("none", "additive", "deflated")
COARSE_KINDS = ("none", "full", "gevp", "svd", "auto")


def _new_worker():
    """Set up the one thread that runs the coarse solves of additive applies.

    The executor starts its thread at the first submit.  A child forked
    after that has none of the parent's threads, so it gets its own.
    """
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tlschwarz-coarse")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


@dataclass(frozen=True)
class SetupReport:
    """Sizes and accounting captured while building a preconditioner.

    ``nu`` is the partition-of-unity threshold that was applied (None when
    no such modes were selected) and ``largest_unselected`` holds, per
    subdomain, the largest value the harmonic selection left out (empty
    when no selection ran); they are what the bound check needs.
    """

    n: int
    n_subdomains: int
    overlap: int
    one_level: str
    combine: str
    coarse_kind: str
    symmetric: bool
    n_coarse: int
    k_c: int
    mode_counts: tuple
    nnz_matrix: int
    nnz_coarse: int
    tau: float
    nu: float | None
    largest_unselected: tuple

    @property
    def grid_complexity(self):
        """1 + (coarse size / fine size), exact."""
        return 1 + Fraction(self.n_coarse, self.n)

    @property
    def operator_complexity(self):
        """1 + (coarse nonzeros / fine nonzeros), exact."""
        return 1 + Fraction(self.nnz_coarse, self.nnz_matrix)

    def to_text(self):
        lines = [
            f"n = {self.n}",
            f"subdomains = {self.n_subdomains}",
            f"overlap = {self.overlap}",
            f"one_level = {self.one_level}",
            f"combine = {self.combine}",
            f"coarse_kind = {self.coarse_kind}",
            f"symmetric = {self.symmetric}",
            f"coarse_size = {self.n_coarse}",
            f"coloring_constant = {self.k_c}",
            f"mode_counts = {','.join(str(c) for c in self.mode_counts)}",
            f"nnz_matrix = {self.nnz_matrix}",
            f"nnz_coarse = {self.nnz_coarse}",
            f"tau = {self.tau}",
            f"nu = {self.nu}",
            f"largest_unselected = {','.join(f'{v:.6e}' for v in self.largest_unselected)}",
            f"grid_complexity = {float(self.grid_complexity):.6f}",
            f"operator_complexity = {float(self.operator_complexity):.6f}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(eq=False)
class Preconditioner:
    """Built two-level Schwarz preconditioner; apply with ``.apply(r)``."""

    matrix: SparseMat
    maps: list
    restrict: sp.csr_matrix
    prolong: sp.csr_matrix
    local_lu: object
    coarse: coarse_mod.CoarseSpace | None
    one_level: str
    combine: str
    report: SetupReport

    @property
    def n(self):
        return self.matrix.nrows

    @property
    def blocks(self):
        """Sparse local blocks, cut from the matrix anew on each access."""
        return [extract_local_blocks(self.matrix, s) for s in self.maps]

    @property
    def is_symmetric(self):
        """Whether the preconditioner itself is a symmetric operator."""
        return self.matrix.symmetric and self.one_level == "asm" and self.combine != "deflated"

    def apply_one_level(self, r):
        return self.prolong @ self.local_lu.solve(self.restrict @ r)

    def coarse_apply(self, r):
        return self.coarse.basis @ self.coarse.lu.solve(self.coarse.basis_t @ r)

    def apply(self, r):
        if self.coarse is None or self.combine == "none":
            return self.apply_one_level(r)
        if self.combine == "additive":
            coarse = _worker.submit(self.coarse_apply, r)
            try:
                one_level = self.apply_one_level(r)
            finally:
                wait([coarse])
            return one_level + coarse.result()
        # deflated
        qr_ = self.coarse_apply(r)
        w = self.apply_one_level(r - self.matrix.matvec(qr_))
        return qr_ + w - self.coarse_apply(self.matrix.matvec(w))

    def start(self, b):
        """Initial iterate and operator for a Krylov solve of A x = b: for
        the deflated combination x0 = Q b and the reduced apply (see the
        module docstring), else zero and ``apply``."""
        if self.combine != "deflated":
            return np.zeros_like(b), self.apply

        def reduced(v):
            w = self.apply_one_level(v)
            return w - self.coarse_apply(self.matrix.matvec(w))

        return self.coarse_apply(b), reduced


def setup(matrix, n_subdomains, overlap=2, tau=0.1, nu=None, coarse="auto",
          one_level=None, combine=None):
    """Build a two-level Schwarz preconditioner, fully algebraically.

    Parameters
    ----------
    matrix : SparseMat
        System matrix; the symmetry flag decides the SPD vs. general paths.
    n_subdomains : int
        Number of subdomains; the partition is computed from the sparsity
        graph.
    overlap : int
        Number of BFS layers added around each interior set (>= 1).
    tau : float
        Threshold on harmonic-pencil singular values; smaller keeps more
        coarse vectors.
    nu : float or None
        Threshold for partition-of-unity modes.  Disabled by default: on the
        problems this package targets those modes have not been observed to
        help, but they are part of the theory and can be switched on.
    coarse : {"none", "full", "gevp", "svd", "auto"}
        Coarse-space recipe.  "auto" picks "gevp" for symmetric matrices and
        "svd" otherwise.
    one_level : {"asm", "ras"} or None
        None picks "asm" for symmetric matrices, "ras" otherwise.
    combine : {"none", "additive", "deflated"} or None
        None picks "additive" for symmetric matrices, "deflated" otherwise.

    Coarse columns are made one subdomain at a time as the assembly asks for
    them: at most one dense extension and one dense column block are alive.
    """
    if coarse not in COARSE_KINDS:
        raise ValueError(f"unknown coarse kind {coarse!r}")
    symmetric = matrix.symmetric
    if coarse == "auto":
        coarse = "gevp" if symmetric else "svd"
    if not symmetric and coarse in ("gevp", "full"):
        raise ValueError(f"coarse kind {coarse!r} requires a symmetric matrix")
    if one_level is None:
        one_level = "asm" if symmetric else "ras"
    if one_level not in ONE_LEVEL_KINDS:
        raise ValueError(f"unknown one-level kind {one_level!r}")
    if combine is None:
        combine = "additive" if symmetric else "deflated"
    if combine not in COMBINE_KINDS:
        raise ValueError(f"unknown combination {combine!r}")
    if coarse == "none":
        combine = "none"
    if nu is not None and not symmetric:
        raise ValueError("partition-of-unity modes require a symmetric matrix")

    graph = symmetrized_graph(matrix)
    part = partition_graph(graph, n_subdomains)
    maps = extend_overlap(graph, part, overlap)
    k_c, _ = color_subdomains(maps)

    restrict, local = stacked_blocks(matrix, maps)
    weights = np.concatenate([s.pou_mask for s in maps]) if one_level == "ras" else 1.0
    prolong = restrict.T.multiply(weights).tocsr()
    local_lu, failed = factor_blocks([b.a for b in local], symmetric)
    if failed is not None:
        raise SubdomainSetupError(failed, "local block is not positive definite" if symmetric
                                  else "local block is numerically singular")

    unselected, cs, mode_counts = [], None, (0,) * len(maps)
    if coarse != "none":
        def columns(smap, blocks):
            block, largest_unselected = _subdomain_columns(smap, blocks, coarse, tau, nu)
            unselected.append(largest_unselected)
            return block
        z, mode_counts = coarse_mod.assemble_coarse_basis(maps, map(columns, maps, local),
                                                          matrix.nrows)
        if z.shape[1]:
            cs = coarse_mod.galerkin_coarse(matrix, z)
        else:
            combine = "none"

    report = SetupReport(
        n=matrix.nrows,
        n_subdomains=n_subdomains,
        overlap=overlap,
        one_level=one_level,
        combine=combine,
        coarse_kind=coarse,
        symmetric=symmetric,
        n_coarse=sum(mode_counts),
        k_c=k_c,
        mode_counts=mode_counts,
        nnz_matrix=matrix.nnz,
        nnz_coarse=cs.a00.nnz if cs is not None else 0,
        tau=tau,
        nu=nu if coarse != "none" else None,
        largest_unselected=tuple(v for v in unselected if v is not None),
    )
    return Preconditioner(matrix, maps, restrict, prolong, local_lu, cs, one_level, combine,
                          report)


def _subdomain_columns(smap, blocks, coarse, tau, nu):
    """One subdomain's coarse column block, and the largest value its harmonic
    selection left out (None for the "full" coarse space, which takes every
    extension column)."""
    extension = build_harmonic(blocks)
    vectors, largest_unselected = extension, None
    if coarse != "full":
        select = spectral.select_harmonic_modes if coarse == "gevp" else spectral.svd_harmonic_modes
        basis = select(blocks, extension, tau)
        vectors, largest_unselected = basis.vectors, basis.largest_unselected
    pou = spectral.select_pou_modes(blocks, nu) if nu is not None else None
    return coarse_mod.subdomain_coarse_columns(smap, vectors, pou_basis=pou), largest_unselected


def stacked_blocks(matrix, maps):
    """Stacked 0/1 restriction R (one row per local unknown) and the subdomains'
    ``LocalBlocks``, whose sparse A_i satisfy R^T blockdiag(A_i) R = sum_i R_i^T A_i R_i."""
    idx = np.concatenate([s.indices for s in maps])
    restrict = sp.csr_matrix((np.ones(idx.size), (np.arange(idx.size), idx)),
                             shape=(idx.size, matrix.nrows))
    return restrict, [extract_local_blocks(matrix, s) for s in maps]
