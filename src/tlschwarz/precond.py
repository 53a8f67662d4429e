"""Schwarz preconditioner setup and application.

One-level variants:

* ``asm`` — sum of subdomain solves scattered back as they are (symmetric
  when the matrix is).
* ``ras`` — the same solves weighted by the Boolean partition of unity
  before scattering (cheaper to apply well, but nonsymmetric).

Two-level combinations with the coarse solve Q r = Z A00^{-1} Z^T r:

* ``additive`` — one_level(r) + Q r (keeps symmetry with asm).
* ``deflated`` — Q r + (I - Q A) one_level(r - A Q r); the coarse residual
  of the output vanishes identically.

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
output).  Nothing about this is configurable.
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
from .sparsemat import factor_blocks, symmetrized_graph
from .subdomain import LocalBlocks, SubdomainSetupError, build_harmonic, extract_local_blocks

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


class Preconditioner:
    """Built two-level Schwarz preconditioner; apply with ``.apply(r)``."""

    def __init__(self, matrix, maps, restrict, prolong, local_lu, coarse, one_level, combine,
                 report):
        self.matrix = matrix
        self.maps = maps
        self.restrict = restrict
        self.prolong = prolong
        self.local_lu = local_lu
        self.coarse = coarse
        self.one_level = one_level
        self.combine = combine
        self.report = report

    @property
    def n(self):
        return self.matrix.nrows

    @property
    def blocks(self):
        """Dense local blocks, cut from the matrix anew on each access."""
        return [extract_local_blocks(self.matrix, s) for s in self.maps]

    @property
    def is_symmetric(self):
        """Whether the preconditioner itself is a symmetric operator."""
        return self.matrix.symmetric and self.one_level == "asm" and self.combine != "deflated"

    def apply_one_level(self, r):
        return self.prolong @ self.local_lu.solve(self.restrict @ r)

    def coarse_apply(self, r):
        return self.coarse.basis.scipy() @ self.coarse.lu.solve(self.coarse.basis_t @ r)

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
    if coarse == "none":
        combine = "none"
    if combine not in COMBINE_KINDS:
        raise ValueError(f"unknown combination {combine!r}")
    if nu is not None and not symmetric:
        raise ValueError("partition-of-unity modes require a symmetric matrix")

    graph = symmetrized_graph(matrix)
    part = partition_graph(graph, n_subdomains)
    maps = extend_overlap(graph, part, overlap)
    k_c, _ = color_subdomains(maps)

    restrict, local = stacked_blocks(matrix, maps)
    weights = np.concatenate([s.pou_mask for s in maps]) if one_level == "ras" else 1.0
    prolong = restrict.T.multiply(weights).tocsr()
    local_lu, failed = factor_blocks(local, symmetric)
    if failed is not None:
        raise SubdomainSetupError(failed, "local block is not positive definite" if symmetric
                                  else "local block is numerically singular")

    bases = ()
    cs = None
    mode_counts = tuple(0 for _ in maps)

    if coarse != "none":
        # one subdomain at a time, so at most one dense harmonic extension is alive
        column_blocks, bases = zip(*(_subdomain_columns(s, a, symmetric, coarse, tau, nu)
                                     for s, a in zip(maps, local)))
        cs = coarse_mod.assemble_coarse_basis(maps, column_blocks, matrix.nrows)
        mode_counts = cs.column_counts()
        if cs.n_coarse == 0:
            cs = None
            combine = "none"
        else:
            cs = coarse_mod.galerkin_coarse(matrix, cs)

    report = SetupReport(
        n=matrix.nrows,
        n_subdomains=n_subdomains,
        overlap=overlap,
        one_level=one_level,
        combine=combine,
        coarse_kind=coarse,
        symmetric=symmetric,
        n_coarse=cs.n_coarse if cs is not None else 0,
        k_c=k_c,
        mode_counts=mode_counts,
        nnz_matrix=matrix.nnz,
        nnz_coarse=cs.nnz_a00 if cs is not None else 0,
        tau=tau,
        nu=nu if coarse != "none" else None,
        largest_unselected=tuple(b.largest_unselected for b in bases if b is not None),
    )
    return Preconditioner(matrix, maps, restrict, prolong, local_lu, cs, one_level, combine,
                          report)


def _subdomain_columns(smap, a, symmetric, coarse, tau, nu):
    """One subdomain's coarse column block, and its harmonic selection (None
    for the "full" coarse space, which takes every extension column)."""
    blocks = LocalBlocks.of(smap, a, symmetric)
    harmonic = build_harmonic(blocks)
    basis = None
    if coarse == "full":
        vectors = harmonic.extension
    else:
        select = spectral.select_harmonic_modes if coarse == "gevp" else spectral.svd_harmonic_modes
        basis = select(blocks, smap.pou_mask, harmonic, tau)
        vectors = basis.vectors
    pou = spectral.select_pou_modes(blocks, smap.pou_mask, nu) if nu is not None else None
    return coarse_mod.subdomain_coarse_columns(smap, vectors, pou_basis=pou), basis


def stacked_blocks(matrix, maps):
    """Stacked 0/1 restriction R (one row per local unknown) and the sparse
    subdomain blocks A_i, so that R^T blockdiag(A_i) R = sum_i R_i^T A_i R_i."""
    a = matrix.scipy()
    idx = np.concatenate([s.indices for s in maps])
    restrict = sp.csr_matrix((np.ones(idx.size), (np.arange(idx.size), idx)),
                             shape=(idx.size, matrix.nrows))
    return restrict, [a[s.indices][:, s.indices] for s in maps]
