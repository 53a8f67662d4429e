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

Each level has one factor.  The one-level part sum_i R_i^T D_i A_i^{-1}
R_i is a gather, one block-diagonal SuperLU solve and a scatter-add: the
solve takes r[gather], with ``gather`` every subdomain's global indices
stacked, ras zeroes the result off the interiors (D_i = I for asm), and
``np.bincount`` adds it back in stacked order.  Only A00's factor is kept:
SuperLU's, or LAPACK's for a dense A00 (``coarse.DENSE_SHARE``).

``setup`` builds the coarse level before it factors the one-level blocks:
the levels meet only in the apply, so the coarse factorization runs without
the one-level factor.  The one-level factor runs at SuperLU panel width 1
(``sparsemat.BLOCK_DIAGONAL_OPTIONS``): its block diagonal stacks every
subdomain's rows, and SuperLU's panel work arrays grow with the row count
times the panel width.  Setup's memory peak is then the coarse factorization
with its pivot read or the one-level factor, by problem.  The graph and the
partition are gone by then, each local block lived only while its coarse
columns were made, and the one-level factor cuts the blocks again.  A
failing local block is still reported before a failed coarse factor or pencil.

The two levels of the additive apply are independent, so the coarse solve
runs on one private worker thread while the calling thread runs the
one-level solve, and each BLAS call stays single-threaded.  The levels
overlap in part: scipy's sparse products (Z^T r, Z y) release the GIL, a
SuperLU solve holds it for most of its run, and the BLAS triangular solves
of a dense A00 hold it throughout.  The sum is formed in the serial order,
so the result is bit-identical to the serial one, and ``apply`` returns or
raises only once the coarse task has finished.  The deflated combination is
sequential by construction (each level needs the other's output).  Nothing
about this is configurable.  Only vector-sized work may go on the worker
thread: it allocates from a second malloc arena, where a large allocation (a
factorization, say) stays resident beside the main arena.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import LinAlgError
from scipy.sparse import csgraph

from . import coarse as coarse_mod
from .partition import color_subdomains, extend_overlap, partition_graph
from .sparsemat import SparseMat, _structurally_singular, factor_blocks, symmetrized_graph
from .subdomain import GENERAL_OPTIONS_HINT, SubdomainSetupError, extract_local_blocks

ONE_LEVEL_KINDS = ("asm", "ras")
COMBINE_KINDS = ("additive", "deflated")
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
    subdomain, the largest value the harmonic selection left out (0.0 for
    "full", which leaves nothing out; empty for "none"); they are what the
    bound check needs.
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
    gather: np.ndarray  # every subdomain's global indices, stacked
    overlap_rows: np.ndarray  # stacked positions outside the interiors, zeroed by ras
    local_lu: object
    coarse: coarse_mod.CoarseSpace | None
    one_level: str
    combine: str
    report: SetupReport

    @property
    def n(self):
        return self.matrix.nrows

    @property
    def is_symmetric(self):
        """Whether the preconditioner itself is a symmetric operator."""
        return _is_symmetric(self.matrix.symmetric, self.one_level, self.combine)

    def apply_one_level(self, r):
        if np.shape(r) != (self.n,):
            raise ValueError(f"dimension mismatch: matrix is {self.matrix.shape}, "
                             f"vector has shape {np.shape(r)}")
        y = self.local_lu.solve(r[self.gather])
        if self.one_level == "ras":
            y[self.overlap_rows] = 0.0
        return np.bincount(self.gather, weights=y, minlength=self.n)

    def coarse_apply(self, r):
        return self.coarse.basis @ self.coarse.lu.solve(self.coarse.basis_t @ r)

    def apply(self, r):
        if self.coarse is None:
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
        System matrix.  Its symmetry, read from its values, picks the
        defaults below; the chosen method decides which factors must be
        positive definite.
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
        "svd" otherwise.  "none" builds no coarse space: the preconditioner
        is the one-level part alone, and its ``combine`` reads "none".
    one_level : {"asm", "ras"} or None
        None picks "asm" for symmetric matrices, "ras" otherwise.
    combine : {"additive", "deflated"} or None
        None picks "additive" for symmetric matrices, "deflated" otherwise.

    A structurally singular matrix raises ``ValueError`` before any
    factorization.  Coarse columns are made one subdomain at a time as the
    assembly asks for them, each from its local block cut just then: at most
    one block and one dense extension are alive, and the assembly keeps only
    each subdomain's interior block.

    The one-level factor is made last, from the blocks cut again, so that
    the coarse factorization holds no local block or one-level factor.  If
    a factor or pencil test of the coarse stage fails, a failing local block
    raises ``SubdomainSetupError`` instead; any other error (a dense guard,
    say) reaches the caller at once.
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
    # positive definiteness is tested where the method relies on it: the pencils and CG
    pencil = coarse in ("gevp", "full") or nu is not None and coarse != "none"
    spd = pencil or _is_symmetric(symmetric, one_level, combine)

    graph = symmetrized_graph(matrix)
    if _structurally_singular(matrix.scipy().T):
        raise ValueError(f"matrix is structurally singular: structural rank "
                         f"{csgraph.structural_rank(matrix.scipy())} < n = {matrix.nrows}")
    maps = extend_overlap(graph, partition_graph(graph, n_subdomains), overlap)
    del graph  # no later stage reads the graph or the partition
    k_c, _ = color_subdomains(maps)

    unselected, cs, mode_counts = [], None, (0,) * len(maps)
    if coarse != "none":
        def columns(smap):
            blocks = extract_local_blocks(matrix, smap, spd)
            block, largest_unselected = coarse_mod.subdomain_coarse_columns(blocks, coarse, tau, nu)
            unselected.append(largest_unselected)
            return block
        try:
            z, mode_counts = coarse_mod.assemble_coarse_basis(maps, map(columns, maps))
            if z.shape[1]:
                cs = coarse_mod.galerkin_coarse(matrix, z, spd)
            else:
                combine = "none"
        except (SubdomainSetupError, coarse_mod.CoarseSetupError, LinAlgError):
            _factor_local(matrix, maps, spd)  # a failing local block is reported first
            raise
    local_lu = _factor_local(matrix, maps, pencil or _is_symmetric(symmetric, one_level, combine))

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
        nnz_coarse=cs.nnz if cs is not None else 0,
        tau=tau,
        nu=nu if coarse != "none" else None,
        largest_unselected=tuple(unselected),
    )
    gather = np.concatenate([s.indices for s in maps])
    overlap_rows = np.flatnonzero(np.concatenate([np.arange(s.n_local) >= s.interior.size
                                                  for s in maps]))
    return Preconditioner(matrix, maps, gather, overlap_rows, local_lu, cs, one_level, combine,
                          report)


def _is_symmetric(symmetric, one_level, combine):
    """Whether these options build a symmetric operator, the one CG runs on."""
    return symmetric and one_level == "asm" and combine != "deflated"


def _factor_local(matrix, maps, spd):
    """The one-level factor: one SuperLU factor of all local blocks, cut again."""
    local_lu, failed = factor_blocks((extract_local_blocks(matrix, s, spd).a for s in maps), spd)
    if failed is not None:
        raise SubdomainSetupError(failed, "local block is not positive definite"
                                  + GENERAL_OPTIONS_HINT if spd
                                  else "local block is numerically singular")
    return local_lu
