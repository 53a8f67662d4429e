import sys

import numpy as np
import pytest

import scipy.sparse as sp

from tlschwarz import (
    LocalBlocks,
    ProblemSpec,
    SparseMat,
    SubdomainSetupError,
    estimate_condition,
    generate,
    pcg,
    setup,
)

from conftest import laplace1d, random_spd


def dense_apply(precond):
    """Assemble the preconditioner's dense matrix column by column."""
    n = precond.n
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        out[:, j] = precond.apply(e)
    return out


def dense_oracle(precond):
    """Rebuild the operator from scratch with plain dense inverses."""
    n = precond.n
    a = precond.matrix.to_dense()
    m1 = np.zeros((n, n))
    for smap, blocks in zip(precond.maps, precond.blocks):
        local = np.linalg.inv(blocks.a)
        if precond.one_level == "ras":
            local = np.diag(smap.pou_mask.astype(float)) @ local
        e = np.zeros((n, smap.n_local))
        e[smap.indices, np.arange(smap.n_local)] = 1.0
        m1 += e @ local @ e.T
    if precond.coarse is None or precond.combine == "none":
        return m1
    b = precond.coarse.basis.to_dense()
    q = b @ np.linalg.solve(b.T @ a @ b, b.T)
    if precond.combine == "additive":
        return m1 + q
    eye = np.eye(n)
    return q + (eye - q @ a) @ m1 @ (eye - a @ q)


class TestOneLevel:
    def test_single_subdomain_is_exact_inverse(self):
        mat = laplace1d(20)
        pre = setup(mat, 1, overlap=1, coarse="none")
        rng = np.random.default_rng(0)
        r = rng.standard_normal(20)
        np.testing.assert_allclose(
            pre.apply(r), np.linalg.solve(mat.to_dense(), r), rtol=1e-12
        )

    def test_identity_matrix_ras_is_identity(self):
        mat = SparseMat.identity(16)
        pre = setup(mat, 4, overlap=1, coarse="none", one_level="ras")
        rng = np.random.default_rng(1)
        r = rng.standard_normal(16)
        np.testing.assert_allclose(pre.apply(r), r, atol=1e-14)

    def test_asm_is_symmetric_operator(self):
        mat = random_spd(40, seed=2)
        pre = setup(mat, 4, overlap=2, coarse="none", one_level="asm")
        dense = dense_apply(pre)
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        assert pre.is_symmetric

    def test_ras_flags_nonsymmetric(self):
        mat = random_spd(30, seed=3)
        pre = setup(mat, 3, overlap=1, coarse="none", one_level="ras")
        assert not pre.is_symmetric


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("one_level", ["asm", "ras"])
    @pytest.mark.parametrize("combine", ["none", "additive", "deflated"])
    @pytest.mark.parametrize("coarse", ["full", "gevp", "svd"])
    def test_symmetric_variants(self, one_level, combine, coarse):
        mat, _ = generate(ProblemSpec("poisson2d", 8))
        pre = setup(mat, 4, overlap=2, tau=0.05, coarse=coarse,
                    one_level=one_level, combine=combine)
        oracle = dense_oracle(pre)
        rng = np.random.default_rng(7)
        for _ in range(3):
            r = rng.standard_normal(64)
            np.testing.assert_allclose(
                pre.apply(r), oracle @ r, rtol=0, atol=1e-12 * np.abs(oracle @ r).max()
            )

    def test_nonsymmetric_deflated(self):
        mat, _ = generate(ProblemSpec("advection2d", 8))
        pre = setup(mat, 4, overlap=2, tau=0.05)
        assert pre.one_level == "ras" and pre.combine == "deflated"
        oracle = dense_oracle(pre)
        rng = np.random.default_rng(8)
        r = rng.standard_normal(64)
        np.testing.assert_allclose(pre.apply(r), oracle @ r, atol=1e-10)


P5 = generate(ProblemSpec("poisson2d", 5))[0]


class TestEdgeCases:
    @pytest.mark.parametrize("mat, n_sub, overlap, n_coarse", [
        pytest.param(P5, 25, 2, 25, id="one node per subdomain"),
        pytest.param(P5, 4, 30, 0, id="overlap covers the graph"),
        pytest.param(SparseMat(sp.csr_matrix([[3.0]]), symmetric=True), 1, 2, 0, id="1x1 system"),
        pytest.param(SparseMat(sp.block_diag([P5.scipy(), P5.scipy()]).tocsr(), symmetric=True),
                     4, 2, 10, id="disconnected blocks"),
    ])
    def test_converges_and_matches_oracle(self, mat, n_sub, overlap, n_coarse):
        pre = setup(mat, n_sub, overlap=overlap)
        assert pre.report.n_coarse == n_coarse
        b = mat.matvec(np.ones(mat.nrows))
        _, report = pcg(mat, pre, b, tol=1e-10)
        assert report.converged
        oracle = dense_oracle(pre)
        np.testing.assert_allclose(dense_apply(pre), oracle, rtol=0,
                                   atol=1e-12 * np.abs(oracle).max())


class TestCoarsePins:
    # the two full cases and the full nu=1.5 case are rank-deficient: the
    # filter keeps 214 of 252, 310 of 401 and 40 of 58 columns offered
    @pytest.mark.parametrize("kind, m, n_sub, options, n_coarse, nnz_coarse, mode_counts", [
        ("poisson2d", 30, 9, dict(coarse="full"), 214, 28326,
         (14, 15, 17, 17, 29, 33, 31, 38, 20)),
        ("hetero-diffusion2d", 30, 16, dict(coarse="full"), 310, 36286,
         (11, 11, 24, 13, 24, 11, 21, 19, 21, 18, 24, 18, 31, 13, 13, 38)),
        ("poisson2d", 20, 16, dict(nu=1.5), 152, 8614,
         (6, 7, 7, 7, 13, 10, 13, 11, 9, 14, 13, 13, 11, 5, 9, 4)),
        ("poisson2d", 12, 4, dict(coarse="full", nu=1.5), 40, 1472, (8, 8, 12, 12)),
        ("advection2d", 30, 16, {}, 158, 9490,
         (2, 11, 13, 11, 13, 2, 12, 6, 12, 9, 14, 10, 13, 8, 4, 18)),
        ("hetero-diffusion2d", 20, 16, dict(nu=1.5), 138, 7200,
         (5, 6, 6, 6, 11, 9, 13, 10, 8, 14, 13, 11, 10, 5, 8, 3)),
    ])
    def test_coarse_sizes_pinned(self, kind, m, n_sub, options, n_coarse, nnz_coarse,
                                 mode_counts):
        mat, _ = generate(ProblemSpec(kind, m))
        rep = setup(mat, n_sub, overlap=2, **options).report
        assert (rep.n_coarse, rep.nnz_coarse, rep.mode_counts) == (n_coarse, nnz_coarse,
                                                                   mode_counts)


class TestSparseSetup:
    @pytest.mark.parametrize("kind, coarse", [
        ("poisson2d", "gevp"), ("poisson2d", "svd"), ("poisson2d", "full"),
        ("hetero-diffusion2d", "gevp"), ("hetero-diffusion2d", "svd"),
        ("hetero-diffusion2d", "full"), ("advection2d", "svd"),
    ])
    def test_setup_makes_no_dense_local_block(self, monkeypatch, kind, coarse):
        def refuse(*args):
            raise AssertionError("setup densified a local block")

        for name, module in list(sys.modules.items()):
            if name.startswith("tlschwarz") and hasattr(module, "extract_local_blocks"):
                monkeypatch.setattr(module, "extract_local_blocks", refuse)
        monkeypatch.setattr(LocalBlocks, "dense", property(refuse))
        mat, _ = generate(ProblemSpec(kind, 12))
        pre = setup(mat, 4, overlap=2, coarse=coarse)
        assert pre.report.n_coarse > 0
        with pytest.raises(AssertionError, match="densified"):
            pre.blocks


class TestDeflation:
    def test_coarse_residual_vanishes(self):
        mat, _ = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, overlap=2, tau=0.05, combine="deflated")
        basis = pre.coarse.basis.scipy()
        rng = np.random.default_rng(9)
        a = mat.scipy()
        for _ in range(5):
            r = rng.standard_normal(100)
            z = pre.apply(r)
            resid = basis.T @ (a @ z - r)
            assert np.abs(resid).max() < 1e-9 * np.abs(r).max()

    def test_coarse_range_solved_exactly(self):
        # right-hand sides from the coarse range come back exactly
        mat, _ = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, overlap=2, tau=0.05, combine="deflated")
        basis = pre.coarse.basis.to_dense()
        rng = np.random.default_rng(10)
        y = rng.standard_normal(basis.shape[1])
        r = mat.to_dense() @ (basis @ y)
        z = pre.apply(r)
        np.testing.assert_allclose(
            mat.to_dense() @ z, r, atol=1e-8 * np.abs(r).max()
        )


class TestDefaultsAndErrors:
    def test_symmetric_defaults(self):
        mat, _ = generate(ProblemSpec("poisson2d", 6))
        pre = setup(mat, 2)
        assert (pre.one_level, pre.combine) == ("asm", "additive")
        assert pre.report.coarse_kind == "gevp"
        assert pre.is_symmetric

    def test_nonsymmetric_defaults(self):
        mat, _ = generate(ProblemSpec("advection2d", 6))
        pre = setup(mat, 2)
        assert (pre.one_level, pre.combine) == ("ras", "deflated")
        assert pre.report.coarse_kind == "svd"

    def test_nonsymmetric_rejects_symmetric_only_options(self):
        mat, _ = generate(ProblemSpec("advection2d", 6))
        with pytest.raises(ValueError):
            setup(mat, 2, coarse="gevp")
        with pytest.raises(ValueError):
            setup(mat, 2, coarse="full")
        with pytest.raises(ValueError):
            setup(mat, 2, nu=1.5)

    def test_unknown_kinds(self):
        mat = laplace1d(10)
        with pytest.raises(ValueError):
            setup(mat, 2, coarse="banana")
        with pytest.raises(ValueError):
            setup(mat, 2, one_level="banana")
        with pytest.raises(ValueError):
            setup(mat, 2, combine="banana")

    def test_coarse_none_forces_combine_none(self):
        mat = laplace1d(12)
        pre = setup(mat, 2, coarse="none", combine="additive")
        assert pre.combine == "none"
        assert pre.coarse is None

    def test_empty_selection_disables_coarse(self):
        mat = laplace1d(12)
        pre = setup(mat, 2, overlap=1, tau=1e6, coarse="gevp")
        assert pre.coarse is None
        assert pre.combine == "none"
        assert pre.report.n_coarse == 0
        rng = np.random.default_rng(11)
        r = rng.standard_normal(12)
        np.testing.assert_allclose(pre.apply(r), pre.apply_one_level(r))


def two_components(good, bad, symmetric):
    """Block-diagonal matrix whose second 4-node component is ``bad``."""
    return SparseMat(sp.csr_matrix(sp.block_diag([good, bad])), symmetric=symmetric)


class TestLocalFactorErrors:
    """Each component gets one subdomain, so its local block is that component."""

    def test_singular_nonsymmetric_block_names_subdomain(self):
        good = np.array([[4.0, -1, 0, 0], [-2, 4, -1, 0], [0, -2, 4, -1], [0, 0, -2, 4]])
        bad = np.array([[2.0, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, -1, 2, -1]])
        mat = two_components(good, bad, symmetric=False)
        with pytest.raises(SubdomainSetupError, match="subdomain 1") as info:
            setup(mat, 2, overlap=1)
        assert info.value.subdomain == 1

    @pytest.mark.parametrize("diag, off", [
        ([1.0, 1.0, 1.0, 1.0], 2.0),  # indefinite, positive diagonal
        ([0.0, 0.0, 0.0, 0.0], 1.0),  # indefinite, zero diagonal
        ([1.0, 2.0, 2.0, 1.0], -1.0),  # singular, positive semidefinite
    ])
    def test_symmetric_block_not_positive_definite_names_subdomain(self, diag, off):
        bad = np.diag(diag) + off * (np.eye(4, k=1) + np.eye(4, k=-1))
        good = laplace1d(4).to_dense()
        mat = two_components(good, bad, symmetric=True)
        with pytest.raises(SubdomainSetupError, match="subdomain 1") as info:
            setup(mat, 2, overlap=1)
        assert info.value.subdomain == 1


class TestReport:
    def test_sizes_and_counts(self):
        mat, _ = generate(ProblemSpec("poisson2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.1)
        rep = pre.report
        assert rep.n == 144 and rep.n_subdomains == 4 and rep.overlap == 2
        assert rep.n_coarse == sum(rep.mode_counts)
        assert rep.n_coarse == pre.coarse.n_coarse
        # gevp modes cannot outnumber boundary-ring nodes
        for count, blocks in zip(rep.mode_counts, pre.blocks):
            assert count <= blocks.n_boundary
        assert rep.nnz_matrix == mat.nnz
        assert rep.nnz_coarse == np.count_nonzero(pre.coarse.a00.toarray())

    def test_complexities_are_exact_fractions(self):
        from fractions import Fraction

        mat, _ = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, overlap=1, tau=0.1)
        rep = pre.report
        assert rep.grid_complexity == 1 + Fraction(rep.n_coarse, 100)
        assert rep.operator_complexity == 1 + Fraction(rep.nnz_coarse, rep.nnz_matrix)
        text = rep.to_text()
        assert f"coarse_size = {rep.n_coarse}" in text
        assert "grid_complexity" in text

    def test_two_level_beats_one_level_conditioning(self):
        mat, _ = generate(ProblemSpec("poisson2d", 12))
        two = setup(mat, 4, overlap=2, tau=0.1)
        one = setup(mat, 4, overlap=2, coarse="none")
        k2 = estimate_condition(mat, two)
        k1 = estimate_condition(mat, one)
        assert k2 < k1
