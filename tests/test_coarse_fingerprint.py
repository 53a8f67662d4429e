"""Pinned fingerprints of the two-level operators.

The coarse basis Z, the coarse operator A00 = Z^T A Z (as
``galerkin_operator`` forms it from the built Z), the per-subdomain
column counts and one preconditioner apply are hashed (sha256 of the raw
array bytes, index arrays as int64) for a few setups that between them run
every mode selector, both one-level kinds, both combinations and the
partition-of-unity modes, and for the three problems of ``bench/worker.py``
with their default setup.  A refactor of the coarse-space build must
reproduce all of them bit for bit.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from tlschwarz import ProblemSpec, galerkin_operator, generate, setup


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.float64 if a.dtype.kind == "f" else np.int64)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _sparse(m):
    return [m.data, m.indices, m.indptr, m.shape]


# name -> (problem kind, m, subdomains, setup keywords)
CASES = {
    "poisson2d-m20-gevp": ("poisson2d", 20, 8,
                           dict(coarse="gevp", one_level="asm", combine="additive")),
    "advection2d-m30-svd": ("advection2d", 30, 4,
                            dict(coarse="svd", one_level="ras", combine="deflated")),
    "poisson2d-m12-full-nu": ("poisson2d", 12, 4, dict(coarse="full", nu=1.5)),
    "hetero2d-m20-nu": ("hetero-diffusion2d", 20, 4, dict(nu=1.5)),
    "poisson3d-m16": ("poisson3d", 16, 16, {}),
    "poisson2d-m200-N256": ("poisson2d", 200, 256, {}),
    "advection2d-m80-N16": ("advection2d", 80, 16, {}),
}

# (Z^T, A00, mode counts, apply(r))
EXPECTED = {
    "poisson2d-m20-gevp": ("8a35e2250d4ce2b8", "0e313650ed1bf75a", "6e213b2c0211c257",
                           "2bf58420d9c9bd3a"),
    "advection2d-m30-svd": ("7d04c6ac77685c85", "650b1778b2edd6f1", "16011159daa1151c",
                            "614c6c3d6d8829a0"),
    "poisson2d-m12-full-nu": ("8cdeeba949cabf10", "159ca028ca013151", "f72c4bcbe5d5d907",
                              "1477b60bbea5a344"),
    "hetero2d-m20-nu": ("e64cb545d7e45834", "c3cf260de460cea7", "8e94648a1de6fa25",
                        "2d8303fe1bc974a1"),
    "poisson3d-m16": ("f9125ff3972dc1de", "db3f9097af3ac1dd", "0c23ecab0c98677f",
                      "a3342d009827766f"),
    "poisson2d-m200-N256": ("c35b601e1c88ebbb", "01f87dc05fec64c0", "8441064c40d8db1c",
                            "812fbfd549744078"),
    "advection2d-m80-N16": ("88b5301aabc4ae04", "051c7da04293bc10", "68c7d2d155f7885a",
                            "46f0823620deba00"),
}


def fingerprint(kind, m, n_subdomains, kwargs):
    mat, _ = generate(ProblemSpec(kind, m))
    pre = setup(mat, n_subdomains, **kwargs)
    r = np.random.default_rng(0).standard_normal(mat.nrows)
    a00 = galerkin_operator(mat, pre.coarse.basis)
    return (_digest(_sparse(pre.coarse.basis_t)), _digest(_sparse(a00)),
            _digest([pre.report.mode_counts]), _digest([pre.apply(r)]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_coarse_operator_fingerprint(name):
    assert fingerprint(*CASES[name]) == EXPECTED[name]


def independent_apply(pre, r):
    """``pre.apply(r)`` rebuilt from fresh default SuperLU factors: one per
    subdomain block, zeroed off the interior for ras, and one of A00 formed
    again from the built basis."""
    a = pre.matrix.scipy()

    def one_level(v):
        out = np.zeros_like(v)
        for smap in pre.maps:
            idx = smap.indices
            y = splu(sp.csc_matrix(a[idx][:, idx])).solve(v[idx])
            if pre.one_level == "ras":
                y[smap.interior.size:] = 0.0
            np.add.at(out, idx, y)
        return out

    z = pre.coarse.basis
    a00 = splu(sp.csc_matrix(galerkin_operator(pre.matrix, z)))

    def q(v):
        return z @ a00.solve(z.T @ v)

    if pre.combine == "additive":
        return one_level(r) + q(r)
    qr_ = q(r)
    w = one_level(r - a @ qr_)
    return qr_ + w - q(a @ w)


@pytest.mark.parametrize("name", ["poisson2d-m200-N256", "poisson3d-m16", "advection2d-m80-N16"])
def test_bench_apply_matches_independent_construction(name):
    # the apply digest pins bits; this pins the operator itself, independently
    # of the factor options and the order of the one-level arithmetic
    kind, m, n_subdomains, kwargs = CASES[name]
    mat, _ = generate(ProblemSpec(kind, m))
    pre = setup(mat, n_subdomains, **kwargs)
    r = np.random.default_rng(0).standard_normal(mat.nrows)
    expected = independent_apply(pre, r)
    assert np.linalg.norm(pre.apply(r) - expected) <= 1e-12 * np.linalg.norm(expected)
