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
                           "61a65dcfc01ce9c1"),
    "advection2d-m30-svd": ("7d04c6ac77685c85", "650b1778b2edd6f1", "16011159daa1151c",
                            "4e1b4ef0319c8a0a"),
    "poisson2d-m12-full-nu": ("8cdeeba949cabf10", "159ca028ca013151", "f72c4bcbe5d5d907",
                              "bc1537a571c2625b"),
    "hetero2d-m20-nu": ("e64cb545d7e45834", "c3cf260de460cea7", "8e94648a1de6fa25",
                        "e4fc8ebf659fd851"),
    "poisson3d-m16": ("f9125ff3972dc1de", "db3f9097af3ac1dd", "0c23ecab0c98677f",
                      "8acfbd2d38d31313"),
    "poisson2d-m200-N256": ("c35b601e1c88ebbb", "01f87dc05fec64c0", "8441064c40d8db1c",
                            "c445fb6760451694"),
    "advection2d-m80-N16": ("88b5301aabc4ae04", "051c7da04293bc10", "68c7d2d155f7885a",
                            "df1e8890daeefabf"),
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
