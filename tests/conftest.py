"""Shared fixtures: small worked examples and random SPD generators."""

import os

# The pinned sha256 fingerprints hold for one BLAS thread count: OpenBLAS
# results can differ in the last bits between thread counts (the Z^T hash of
# hetero2d-m20-nu does at one thread).  Fix the count before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "2"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from hypothesis import settings  # noqa: E402
from scipy.linalg import eigh  # noqa: E402

from tlschwarz import Partition, SparseMat  # noqa: E402

# Every property test sees the same examples on every run: a failure found
# once is found again, and no run depends on a saved example database.
settings.register_profile("deterministic", derandomize=True, max_examples=50, deadline=None,
                          database=None)
settings.load_profile("deterministic")

# Small banded nonsymmetric example used throughout: consecutive values
# 1..20 with 6 skipped, tridiagonal-ish pattern on 7 nodes (19 entries).
BANDED7_TEXT = """%%MatrixMarket matrix coordinate real general
% small worked example
7 7 19
1 1 1
1 2 2
2 1 3
2 2 4
2 3 5
3 2 7
3 3 8
3 4 9
4 3 10
4 4 11
4 5 12
5 4 13
5 5 14
5 6 15
6 5 16
6 6 17
6 7 18
7 6 19
7 7 20
"""


@pytest.fixture
def banded7():
    from tlschwarz import read_matrix_market

    return read_matrix_market(BANDED7_TEXT)


@pytest.fixture
def banded7_text():
    return BANDED7_TEXT


@pytest.fixture(params=["dense", "sparse"])
def a00_form(request, monkeypatch):
    """Every coarse operator factored in one form: LAPACK's dense factor
    (``coarse.DENSE_SHARE`` 0) or SuperLU's (a share no A00 reaches)."""
    from tlschwarz import coarse

    monkeypatch.setattr(coarse, "DENSE_SHARE", 0.0 if request.param == "dense" else 2.0)
    return request.param


def laplace1d(n):
    """Tridiagonal (-1, 2, -1), symmetric positive definite."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    mat = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    return SparseMat(mat)


def random_spd(n, seed, avg_degree=4):
    """Random sparse SPD matrix: symmetric pattern, diagonally dominant.

    Off-diagonal entries are -U(0.1, 1), the diagonal beats the absolute row
    sum by a positive margin, so the matrix is SPD and its sparsity graph is
    the generated pattern.
    """
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    # a random spanning-ish backbone plus random extra edges
    perm = rng.permutation(n)
    for a, b in zip(perm[:-1], perm[1:]):
        rows.append(a), cols.append(b)
    n_extra = max(n * (avg_degree - 2) // 2, 0)
    ii = rng.integers(0, n, size=2 * n_extra)
    jj = rng.integers(0, n, size=2 * n_extra)
    for a, b in zip(ii, jj):
        if a != b:
            rows.append(a), cols.append(b)
    vals = -rng.uniform(0.1, 1.0, size=len(rows))
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    upper.sum_duplicates()
    symm = upper + upper.T
    symm = symm - sp.diags(symm.diagonal())
    dom = np.asarray(np.abs(symm).sum(axis=1)).ravel() + rng.uniform(0.1, 1.0, size=n)
    full = symm + sp.diags(dom)
    return SparseMat(full.tocsr())


def random_partition(n, n_subdomains, seed):
    """Random owner assignment with every subdomain nonempty."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, n_subdomains, size=n)
    owner[rng.permutation(n)[:n_subdomains]] = np.arange(n_subdomains)
    return Partition(n_subdomains, owner)


def scatter_dense(smap, local, n):
    """Lift a dense local matrix to the global index set (test oracle)."""
    out = np.zeros((n, n))
    out[np.ix_(smap.indices, smap.indices)] = local
    return out


def interior_mask(smap):
    """The Boolean partition of unity of a subdomain as 0/1 floats: one on
    the first ``interior.size`` local positions (test oracle)."""
    return (np.arange(smap.n_local) < smap.interior.size).astype(np.float64)


def dense_oracle(precond):
    """Rebuild the operator from scratch with plain dense inverses of blocks
    cut from the dense matrix."""
    n = precond.n
    a = precond.matrix.to_dense()
    m1 = np.zeros((n, n))
    for smap in precond.maps:
        cut = np.ix_(smap.indices, smap.indices)
        local = np.linalg.inv(a[cut])
        if precond.one_level == "ras":
            local[smap.interior.size:] = 0.0
        m1[cut] += local
    if precond.coarse is None:
        return m1
    b = precond.coarse.basis.toarray()
    q = b @ np.linalg.solve(b.T @ a @ b, b.T)
    if precond.combine == "additive":
        return m1 + q
    eye = np.eye(n)
    return q + (eye - q @ a) @ m1 @ (eye - a @ q)


def full_harmonic_pencil(blocks, mask, extension, threshold):
    """Oracle for the harmonic selection: the n_local x n_local pencil
    ([[0, 0], [0, (DE)^T A (DE)]], A) solved densely.

    Returns the descending A-weighted singular values and the eigenvectors
    whose value exceeds ``threshold`` (with the selection's tie guard).
    """
    a = blocks.a.toarray()
    masked = extension * mask[:, None]
    gram = masked.T @ a @ masked
    lhs = np.zeros_like(a)
    lhs[blocks.n_inner:, blocks.n_inner:] = 0.5 * (gram + gram.T)
    vals, vecs = eigh(lhs, a)
    sigmas = np.sqrt(np.clip(vals[::-1], 0.0, None))
    return sigmas, vecs[:, ::-1][:, sigmas > threshold * (1 + 1e-12)]
