import ctypes
import gc
import multiprocessing
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import scipy.sparse as sp
from scipy.sparse.linalg import splu

from tlschwarz import (
    CoarseSetupError,
    ProblemSpec,
    SparseMat,
    SubdomainSetupError,
    build_harmonic,
    estimate_condition,
    extract_local_blocks,
    galerkin_operator,
    generate,
    gmres,
    pcg,
    setup,
)
from tlschwarz import coarse as coarse_mod
from tlschwarz import precond as precond_mod
from tlschwarz import sparsemat

from conftest import dense_oracle, laplace1d, random_spd
from test_coarse_fingerprint import CASES, EXPECTED, fingerprint


def dense_apply(precond):
    """Assemble the preconditioner's dense matrix column by column."""
    n = precond.n
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        out[:, j] = precond.apply(e)
    return out


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
        mat = SparseMat(sp.identity(16, format="csr"))
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
        # combine "none" is the one-level operator, which only coarse="none" builds
        kinds = {"coarse": "none"} if combine == "none" else {"coarse": coarse, "combine": combine}
        mat, _ = generate(ProblemSpec("poisson2d", 8))
        pre = setup(mat, 4, overlap=2, tau=0.05, one_level=one_level, **kinds)
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
        pytest.param(SparseMat(sp.csr_matrix([[3.0]])), 1, 2, 0, id="1x1 system"),
        pytest.param(SparseMat(sp.block_diag([P5.scipy(), P5.scipy()]).tocsr()),
                     4, 2, 10, id="disconnected blocks"),
    ])
    def test_converges_and_matches_oracle(self, mat, n_sub, overlap, n_coarse):
        b = mat.matvec(np.ones(mat.nrows))
        for one_level, solve in (("asm", pcg), ("ras", gmres)):
            pre = setup(mat, n_sub, overlap=overlap, one_level=one_level)
            assert pre.report.n_coarse == n_coarse
            _, report = solve(mat, pre, b, tol=1e-10)
            assert report.converged, one_level
            oracle = dense_oracle(pre)
            np.testing.assert_allclose(dense_apply(pre), oracle, rtol=0,
                                       atol=1e-12 * np.abs(oracle).max(), err_msg=one_level)


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

    POISSON2D_M200_COUNTS = (
        11, 11, 24, 11, 22, 20, 23, 21, 17, 16, 23, 23, 21, 15, 22, 22,
        19, 21, 21, 22, 23, 21, 22, 25, 22, 21, 20, 16, 22, 21, 21, 25,
        15, 23, 23, 21, 24, 21, 23, 21, 22, 19, 16, 23, 15, 21, 15, 21,
        16, 22, 21, 17, 25, 23, 21, 21, 11, 21, 20, 24, 21, 22, 21, 21,
        22, 22, 21, 22, 22, 21, 22, 21, 21, 22, 21, 22, 22, 17, 25, 23,
        23, 24, 21, 24, 21, 23, 22, 21, 22, 16, 16, 16, 21, 22, 22, 24,
        23, 23, 21, 23, 23, 24, 21, 22, 21, 15, 21, 22, 21, 21, 21, 24,
        25, 23, 23, 15, 22, 22, 21, 21, 21, 22, 26, 23, 23, 23, 21, 23,
        23, 16, 21, 21, 23, 21, 22, 22, 22, 22, 25, 23, 22, 22, 18, 23,
        23, 22, 17, 23, 23, 24, 18, 29, 23, 25, 22, 21, 24, 25, 23, 20,
        23, 29, 23, 26, 25, 29, 24, 26, 32, 28, 24, 32, 30, 33, 23, 8,
        26, 28, 18, 30, 25, 30, 35, 29, 17, 29, 34, 32, 37, 37, 34, 36,
        31, 27, 34, 29, 30, 13, 29, 26, 35, 30, 46, 33, 47, 41, 41, 35,
        35, 33, 44, 44, 35, 38, 6, 6, 36, 49, 40, 40, 35, 39, 32, 45,
        40, 35, 38, 33, 38, 40, 11, 37, 34, 37, 34, 39, 31, 37, 42, 32,
        23, 11, 38, 20, 29, 28, 38, 20, 11, 5, 4, 11, 24, 41, 52, 12,
    )

    # the bench problems with their default setup, solved as bench/worker.py
    # does (b = A x*, x* uniform from seed 0, tol 1e-8); one setup each
    @pytest.mark.parametrize("kind, m, n_sub, n_coarse, nnz_coarse, mode_counts, iterations", [
        ("poisson2d", 200, 256, 6287, 1196935, POISSON2D_M200_COUNTS, [21]),
        ("poisson3d", 16, 16, 663, 277973,
         (28, 27, 44, 43, 32, 31, 58, 48, 42, 47, 44, 51, 53, 47, 29, 39), [24]),
        ("advection2d", 80, 16, 704, 241086,
         (14, 23, 16, 22, 38, 29, 35, 30, 36, 36, 36, 23, 31, 109, 110, 116), [4, 4, 4]),
    ])
    def test_bench_problem_pinned(self, kind, m, n_sub, n_coarse, nnz_coarse, mode_counts,
                                  iterations):
        mat, _ = generate(ProblemSpec(kind, m))
        pre = setup(mat, n_sub)
        rep = pre.report
        assert (rep.n_coarse, rep.nnz_coarse, rep.mode_counts) == (n_coarse, nnz_coarse,
                                                                   mode_counts)
        solve = pcg if pre.is_symmetric else gmres
        rng = np.random.default_rng(0)
        reports = [solve(mat, pre, mat.matvec(rng.random(mat.nrows)), tol=1e-8)[1]
                   for _ in iterations]
        assert all(r.converged for r in reports)
        assert [r.iterations for r in reports] == iterations


class TestSparseSetup:
    @pytest.mark.parametrize("kind, coarse", [
        ("poisson2d", "gevp"), ("poisson2d", "svd"), ("poisson2d", "full"),
        ("hetero-diffusion2d", "gevp"), ("hetero-diffusion2d", "svd"),
        ("hetero-diffusion2d", "full"), ("advection2d", "svd"),
    ])
    def test_setup_makes_no_dense_local_block(self, monkeypatch, kind, coarse):
        # with nu=None setup poses no dense local pencil: it neither calls
        # select_pou_modes nor makes a dense copy of a sparse local block
        def refuse(*args, **kwargs):
            raise AssertionError("setup densified a local block")

        monkeypatch.setattr(coarse_mod, "select_pou_modes", refuse)
        monkeypatch.setattr(sp.csr_matrix, "toarray", refuse)
        mat, _ = generate(ProblemSpec(kind, 12))
        pre = setup(mat, 4, overlap=2, coarse=coarse)
        assert pre.report.n_coarse > 0
        with pytest.raises(AssertionError, match="densified"):
            extract_local_blocks(mat, pre.maps[0], mat.symmetric).a.toarray()

    def test_setup_traced_peak(self):
        # traced allocations (numpy buffers and Python objects, not SuperLU's
        # own memory): 29.7 MB while setup kept every spectral basis, every
        # dense column block and scipy's cached copies of L and U, 20.2 MB
        # without them (the peak is now in the Galerkin product)
        mat, _ = generate(ProblemSpec("poisson2d", 100))
        tracemalloc.start()
        try:
            setup(mat, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestDeflation:
    def test_coarse_residual_vanishes(self):
        mat, _ = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, overlap=2, tau=0.05, combine="deflated")
        basis = pre.coarse.basis
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
        basis = pre.coarse.basis.toarray()
        rng = np.random.default_rng(10)
        y = rng.standard_normal(basis.shape[1])
        r = mat.to_dense() @ (basis @ y)
        z = pre.apply(r)
        np.testing.assert_allclose(
            mat.to_dense() @ z, r, atol=1e-8 * np.abs(r).max()
        )


class TestPositiveDefiniteTests:
    """The chosen method, not the matrix, decides which factors must be positive definite."""

    GENERAL = {"coarse": "svd", "one_level": "ras", "combine": "deflated"}

    @pytest.mark.parametrize("kind, n_subdomains, options, spd", [
        ("poisson2d", 4, {}, True),
        ("poisson2d", 4, GENERAL, False),
        ("poisson2d", 4, {"coarse": "svd"}, True),  # asm, additive: the operator CG runs on
        ("poisson2d", 4, {**GENERAL, "coarse": "gevp"}, True),  # the harmonic pencil
        ("poisson2d", 4, {**GENERAL, "coarse": "full"}, True),
        ("poisson2d", 4, {**GENERAL, "nu": 1.5}, True),  # the partition-of-unity pencil
        ("poisson2d", 4, {**GENERAL, "one_level": "asm"}, False),
        ("poisson2d", 4, {"coarse": "none"}, True),
        ("poisson2d", 4, {"coarse": "none", "one_level": "ras"}, False),
        ("poisson2d", 4, {"coarse": "none", "one_level": "ras", "nu": 1.5}, False),  # no pencil
        ("poisson2d", 1, {**GENERAL, "one_level": "asm"}, True),  # no coarse column: asm alone
        ("advection2d", 4, {}, False),
        ("advection2d", 4, {"one_level": "asm", "combine": "additive"}, False),
    ])
    def test_every_factor_follows_the_method(self, monkeypatch, kind, n_subdomains, options,
                                             spd):
        modes = []

        def recording(a, **kwargs):
            modes.append(kwargs.get("options", {}).get("SymmetricMode", False))
            return splu(a, **kwargs)

        monkeypatch.setattr(sparsemat, "splu", recording)
        mat, _ = generate(ProblemSpec(kind, 12))
        setup(mat, n_subdomains, **options)
        assert modes and set(modes) == {spd}


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
        with pytest.raises(ValueError, match="partition-of-unity"):
            setup(mat, 2, coarse="none", nu=1.5)

    def test_unknown_kinds(self):
        mat = laplace1d(10)
        with pytest.raises(ValueError):
            setup(mat, 2, coarse="banana")
        with pytest.raises(ValueError):
            setup(mat, 2, one_level="banana")
        with pytest.raises(ValueError):
            setup(mat, 2, combine="banana")
        with pytest.raises(ValueError, match="banana"):
            setup(mat, 2, coarse="none", combine="banana")

    @pytest.mark.parametrize("options", [{"coarse": "none"}, {"combine": "additive"},
                                         {"combine": "deflated"}])
    @pytest.mark.parametrize("shape", [(101,), (99,), (100, 1)])
    def test_apply_refuses_a_vector_of_the_wrong_shape(self, options, shape):
        # the scatter's minlength would silently drop the entries of a longer vector
        mat, _ = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, **options)
        _, operator = pre.start(np.ones(100))
        for apply in (pre.apply, operator, pre.apply_one_level):
            with pytest.raises(ValueError, match="dimension mismatch"):
                apply(np.ones(shape))

    def test_coarse_none_forces_combine_none(self):
        mat = laplace1d(12)
        pre = setup(mat, 2, coarse="none", combine="additive")
        assert pre.combine == "none"
        assert pre.coarse is None

    def test_coarse_none_builds_no_coarse_space(self, monkeypatch):
        # only coarse="none" asks for one level; combine has no "none" of its own
        def refuse(*args, **kwargs):
            raise AssertionError("a coarse space was built that no apply reads")

        monkeypatch.setattr(coarse_mod, "subdomain_coarse_columns", refuse)
        monkeypatch.setattr(coarse_mod, "galerkin_coarse", refuse)
        mat, _ = generate(ProblemSpec("poisson2d", 8))
        pre = setup(mat, 4, coarse="none", combine="deflated")
        assert pre.combine == "none" and pre.coarse is None
        assert pre.report.coarse_kind == "none" and pre.report.n_coarse == 0
        r = np.random.default_rng(3).standard_normal(mat.nrows)
        assert np.array_equal(pre.apply(r), pre.apply_one_level(r))

    @pytest.mark.parametrize("coarse", ["gevp", "full", "svd"])
    def test_combine_none_builds_no_coarse_space(self, monkeypatch, coarse):
        # combine="none" is refused before any coarse stage runs, whatever the kind
        def refuse(*args, **kwargs):
            raise AssertionError("a coarse space was built for a refused combination")

        monkeypatch.setattr(coarse_mod, "subdomain_coarse_columns", refuse)
        monkeypatch.setattr(coarse_mod, "galerkin_coarse", refuse)
        mat, _ = generate(ProblemSpec("poisson2d", 8))
        with pytest.raises(ValueError, match="unknown combination 'none'"):
            setup(mat, 4, coarse=coarse, combine="none")

    def test_empty_selection_disables_coarse(self):
        mat = laplace1d(12)
        pre = setup(mat, 2, overlap=1, tau=1e6, coarse="gevp")
        assert pre.coarse is None
        assert pre.combine == "none"
        assert pre.report.n_coarse == 0
        rng = np.random.default_rng(11)
        r = rng.standard_normal(12)
        np.testing.assert_allclose(pre.apply(r), pre.apply_one_level(r))


def two_components(good, bad):
    """Block-diagonal matrix whose second 4-node component is ``bad``."""
    return SparseMat(sp.csr_matrix(sp.block_diag([good, bad])))


class TestLocalFactorErrors:
    """Each component gets one subdomain, so its local block is that component."""

    def test_singular_nonsymmetric_block_names_subdomain(self):
        good = np.array([[4.0, -1, 0, 0], [-2, 4, -1, 0], [0, -2, 4, -1], [0, 0, -2, 4]])
        bad = np.array([[2.0, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, -1, 2, -1]])
        mat = two_components(good, bad)
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
        mat = two_components(good, bad)
        with pytest.raises(SubdomainSetupError, match="subdomain 1") as info:
            setup(mat, 2, overlap=1)
        assert info.value.subdomain == 1


class TestStructurallySingularMatrix:
    @pytest.mark.parametrize("coarse", ["auto", "none"])
    def test_refused_before_any_factorization(self, monkeypatch, coarse):
        # an empty row and column: no local block is at fault, the matrix is
        def refuse(*args, **kwargs):
            raise AssertionError("a structurally singular matrix reached SuperLU")

        monkeypatch.setattr(sparsemat, "splu", refuse)
        mat, _ = generate(ProblemSpec("poisson2d", 12))
        a = mat.scipy().tolil()
        a[5, :] = 0.0
        a[:, 5] = 0.0
        with pytest.raises(ValueError, match=r"^matrix is structurally singular: "
                                             r"structural rank 143 < n = 144$"):
            setup(SparseMat(a.tocsr()), 4, coarse=coarse)


class TestCoarseFactorErrors:
    def test_indefinite_coarse_operator_raises_coarse_setup_error(self, a00_form):
        # after the shift by 100 every local block is still positive definite
        # (their smallest eigenvalues are larger), the global operator and A00 not
        mat, _ = generate(ProblemSpec("poisson2d", 60))
        shifted = SparseMat(mat.scipy() - 100.0 * sp.identity(mat.nrows, format="csr"))
        with pytest.raises(CoarseSetupError, match="coarse operator is not positive definite"):
            setup(shifted, 16)
        assert issubclass(CoarseSetupError, RuntimeError)

    def test_high_contrast_spd_matrix_builds_under_the_general_options(self, a00_form):
        # kappa_1(A00) reads 1.1e9 here, but the deflated start does not cancel:
        # ||A Z A00^{-1} Z^T||_1 reads 5.5, far below the coarse projector limit
        mat, rhs = generate(ProblemSpec("hetero-diffusion2d", 30, contrast=1e8))
        pre = setup(mat, 4, coarse="svd", one_level="ras", combine="deflated")
        x, report = gmres(mat, pre, rhs)
        assert report.converged
        assert np.linalg.norm(rhs - mat.matvec(x)) <= 1e-8 * np.linalg.norm(rhs)

    def test_numerically_singular_coarse_operator_raises_coarse_setup_error(self, a00_form):
        # A's condition number is 32.8, but A00 (18x18) has sigma_min / sigma_max
        # = 7.9e-17 and passes the pivot test; ||A Z A00^{-1} Z^T||_1 reads 4.6e15
        rng = np.random.default_rng(385)
        b = sp.random(29, 29, density=3 / 29, random_state=rng, data_rvs=rng.standard_normal)
        a = (b.toarray() + 1.9 * np.eye(29))[rng.permutation(29)]
        with pytest.raises(CoarseSetupError, match="coarse operator is numerically singular"):
            setup(SparseMat.from_dense(a), 2, overlap=1)


def shifted_poisson(sigma):
    """poisson2d m=30 minus sigma I: symmetric, and indefinite for these shifts."""
    mat, _ = generate(ProblemSpec("poisson2d", 30))
    return SparseMat(mat.scipy() - sigma * sp.identity(mat.nrows, format="csr"))


class TestRefusalNamesTheGeneralOptions:
    HINT = ('a symmetric indefinite matrix needs coarse="svd", one_level="ras", '
            'combine="deflated" (--coarse svd --one-level ras --combine deflated)')

    @pytest.mark.parametrize("sigma, error", [(100.0, CoarseSetupError),
                                              (500.0, SubdomainSetupError)])
    def test_default_refusal_names_options_that_solve_it(self, sigma, error):
        mat = shifted_poisson(sigma)
        with pytest.raises(error, match="not positive definite; ") as info:
            setup(mat, 16)
        assert str(info.value).endswith(self.HINT)
        rhs = mat.matvec(np.ones(mat.nrows))
        pre = setup(mat, 16, coarse="svd", one_level="ras", combine="deflated")
        x, report = gmres(mat, pre, rhs)
        assert report.converged

    def test_inner_block_refusal_names_them(self):
        mat = shifted_poisson(500.0)
        blocks = extract_local_blocks(mat, setup(mat, 16, coarse="none", one_level="ras").maps[0],
                                      True)
        with pytest.raises(SubdomainSetupError, match="inner block is not positive definite; ") as info:
            build_harmonic(blocks)
        assert str(info.value).endswith(self.HINT)


class TestStageOrder:
    """The one-level blocks are factored after the coarse space is built."""

    def test_local_factor_follows_galerkin(self, monkeypatch):
        calls = []
        factor, galerkin = precond_mod.factor_blocks, coarse_mod.galerkin_coarse

        def record_factor(*args):
            calls.append("factor_blocks")
            return factor(*args)

        def record_galerkin(*args):
            calls.append("galerkin_coarse")
            cs = galerkin(*args)
            calls.append("galerkin_coarse returned")
            return cs

        monkeypatch.setattr(precond_mod, "factor_blocks", record_factor)
        monkeypatch.setattr(coarse_mod, "galerkin_coarse", record_galerkin)
        mat, _ = generate(ProblemSpec("poisson2d", 20))
        setup(mat, 8)
        assert calls == ["galerkin_coarse", "galerkin_coarse returned", "factor_blocks"]

    def test_setup_inputs_are_freed_before_the_coarse_operator(self, monkeypatch):
        # the graph, the partition and every local block cut for the coarse
        # columns are garbage once the Galerkin product starts
        refs, seen = [], []

        def keep_ref(make):
            def made(*args):
                obj = make(*args)
                refs.append(weakref.ref(obj))
                return obj
            return made

        galerkin = coarse_mod.galerkin_coarse

        def check_galerkin(*args):
            gc.collect()
            seen.append([type(ref()).__name__ for ref in refs if ref() is not None])
            return galerkin(*args)

        for name in ("symmetrized_graph", "partition_graph", "extract_local_blocks"):
            monkeypatch.setattr(precond_mod, name, keep_ref(getattr(precond_mod, name)))
        monkeypatch.setattr(coarse_mod, "galerkin_coarse", check_galerkin)
        mat, _ = generate(ProblemSpec("poisson2d", 20))
        setup(mat, 8)
        assert len(refs) == 2 + 2 * 8  # each block is cut again for the one-level factor
        assert seen == [[]]

    def test_failing_local_block_wins_over_coarse_error(self):
        # the negative diagonal entry makes subdomain 0's block indefinite and
        # breaks its harmonic pencil, which fails before any local factor ran
        mat, _ = generate(ProblemSpec("poisson2d", 30))
        a = mat.scipy().tolil()
        a[22, 22] = -50.0
        with pytest.raises(SubdomainSetupError, match="subdomain 0: local block is not "
                                                      "positive definite") as info:
            setup(SparseMat(a.tocsr()), 4)
        assert info.value.subdomain == 0


class TestFactorOptions:
    """Only the one-level factor, a block diagonal, runs at SuperLU panel width 1.
    A sparse A00 gets SuperLU's defaults, and a dense one is not SuperLU's."""

    @pytest.mark.parametrize("kind, n_sub, sparse_a00", [
        ("poisson2d", 16, True),  # A00 is 37 % nonzero
        ("advection2d", 16, True),  # 39 %
        ("poisson2d", 8, False),  # 68 %
    ], ids=["poisson2d-sparse", "advection2d-sparse", "poisson2d-dense"])
    def test_only_the_one_level_factor_gets_panel_width_one(self, monkeypatch, kind, n_sub,
                                                            sparse_a00):
        calls = []
        monkeypatch.setattr(sparsemat, "splu",
                            lambda a, **kw: calls.append((a.shape[0], kw)) or splu(a, **kw))
        mat, _ = generate(ProblemSpec(kind, 20))
        pre = setup(mat, n_sub)
        # the inner blocks, a sparse A00, then the one-level block diagonal
        assert len(calls) == n_sub + sparse_a00 + 1
        assert [kw.get("panel_size") for _, kw in calls] == [None] * (n_sub + sparse_a00) + [1]
        assert calls[-1][0] == pre.gather.size
        assert (calls[-2][0] == pre.report.n_coarse) == sparse_a00
        assert isinstance(pre.coarse.lu, coarse_mod.DenseFactor) != sparse_a00


def _no_c_library(name):
    raise OSError("no C library")


class TestReleaseFreeHeap:
    """setup gives the heap's free memory back before the Galerkin product and
    before and after the coarse factorization, and nowhere else."""

    @pytest.mark.parametrize("coarse, releases", [("auto", 3), ("none", 0)])
    def test_release_points(self, monkeypatch, coarse, releases):
        calls = []
        monkeypatch.setattr(sparsemat, "_malloc_trim", calls.append)
        mat, _ = generate(ProblemSpec("poisson2d", 20))
        setup(mat, 8, coarse=coarse)
        assert calls == [0] * releases

    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                             ids=["no-malloc-trim", "no-c-library"])
    def test_without_malloc_trim(self, monkeypatch, cdll):
        # as on macOS, musl or Windows: the release does nothing
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(sparsemat, "_malloc_trim", sparsemat._find_malloc_trim())
        assert sparsemat._malloc_trim is None
        name = "poisson2d-m20-gevp"
        assert fingerprint(*CASES[name]) == EXPECTED[name]


class FailingSolve:
    """Stand-in for the coarse factor: its solve raises once ``release`` is set."""

    def __init__(self):
        self.release = threading.Event()
        self.finished = threading.Event()

    def solve(self, rhs):
        try:
            self.release.wait(10)
            raise ZeroDivisionError("coarse solve failed")
        finally:
            self.finished.set()


class TestConcurrentApply:
    """The additive apply runs its coarse solve on the module's worker thread."""

    @pytest.mark.parametrize("kind, m, n_sub", [
        ("poisson2d", 30, 9),
        ("hetero-diffusion2d", 30, 9),
        ("poisson3d", 8, 8),
    ])
    def test_equals_serial_sum(self, kind, m, n_sub):
        mat, _ = generate(ProblemSpec(kind, m))
        pre = setup(mat, n_sub)
        assert pre.combine == "additive" and pre.coarse is not None
        r = np.random.default_rng(7).standard_normal(mat.nrows)
        expected = pre.apply_one_level(r) + pre.coarse_apply(r)
        assert np.array_equal(pre.apply(r), expected)

    @pytest.mark.parametrize("kind, options", [
        ("advection2d", {}),  # deflated by default
        ("poisson2d", {"combine": "deflated"}),
        ("poisson2d", {"tau": 1e6}),  # an empty selection leaves one level
        ("poisson2d", {"coarse": "none"}),
    ])
    def test_other_combinations_stay_on_the_calling_thread(self, monkeypatch, kind, options):
        mat, _ = generate(ProblemSpec(kind, 16))
        pre = setup(mat, 4, **options)

        class Refuse:
            def submit(self, *args):
                raise AssertionError("the worker must not be used")

        monkeypatch.setattr(precond_mod, "_worker", Refuse())
        pre.apply(np.ones(mat.nrows))

    @pytest.mark.parametrize("kind, n_sub, dense", [
        ("poisson2d", 8, True),  # additive; A00 68 % nonzero
        ("poisson2d", 16, False),  # 37 %
        ("advection2d", 8, True),  # deflated; 72 %
        ("advection2d", 16, False),  # 39 %
    ])
    def test_two_threads_apply_one_preconditioner(self, kind, n_sub, dense):
        # the factors are shared and read-only: each thread gets the serial bits
        mat, _ = generate(ProblemSpec(kind, 20))
        pre = setup(mat, n_sub)
        assert isinstance(pre.coarse.lu, coarse_mod.DenseFactor) == dense
        rs = np.random.default_rng(11).standard_normal((2, mat.nrows))
        expected = [pre.apply(r) for r in rs]
        barrier, got = threading.Barrier(2, timeout=60), ([], [])

        def apply_many(i):
            barrier.wait()
            got[i].extend(pre.apply(rs[i]) for _ in range(30))

        threads = [threading.Thread(target=apply_many, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads between most compiled steps
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, ys in zip(expected, got):
            assert len(ys) == 30 and all(np.array_equal(y, want) for y in ys)

    def test_coarse_error_propagates(self):
        mat, _ = generate(ProblemSpec("poisson2d", 16))
        pre = setup(mat, 4)
        pre.coarse.lu = FailingSolve()
        pre.coarse.lu.release.set()
        with pytest.raises(ZeroDivisionError, match="coarse solve failed"):
            pre.apply(np.ones(mat.nrows))

    def test_one_level_error_waits_for_the_coarse_solve(self, monkeypatch):
        mat, _ = generate(ProblemSpec("poisson2d", 16))
        pre = setup(mat, 4)
        pre.coarse.lu = stub = FailingSolve()

        def one_level_fails(r):
            threading.Timer(0.05, stub.release.set).start()
            raise KeyError("one-level failed")

        monkeypatch.setattr(pre, "apply_one_level", one_level_fails)
        with pytest.raises(KeyError, match="one-level failed"):
            pre.apply(np.ones(mat.nrows))
        assert stub.finished.is_set()

    # Python >= 3.12 warns when a process with threads forks
    @pytest.mark.filterwarnings("ignore:This process.*multi-threaded:DeprecationWarning")
    def test_forked_child_applies(self):
        mat, _ = generate(ProblemSpec("poisson2d", 16))
        pre = setup(mat, 4)
        r = np.random.default_rng(3).standard_normal(mat.nrows)
        expected = pre.apply(r)

        def child():
            sys.exit(0 if np.array_equal(pre.apply(r), expected) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(10)
        try:
            assert not proc.is_alive(), "forked child hangs in apply"
            assert proc.exitcode == 0
        finally:
            proc.kill()
            proc.join()


class TestReport:
    def test_sizes_and_counts(self):
        mat, _ = generate(ProblemSpec("poisson2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.1)
        rep = pre.report
        assert rep.n == 144 and rep.n_subdomains == 4 and rep.overlap == 2
        assert rep.n_coarse == sum(rep.mode_counts)
        assert rep.n_coarse == pre.coarse.basis.shape[1]
        # gevp modes cannot outnumber boundary-ring nodes
        for count, smap in zip(rep.mode_counts, pre.maps):
            assert count <= smap.layers[-1].size
        assert rep.nnz_matrix == mat.nnz
        a00 = galerkin_operator(mat, pre.coarse.basis)
        assert rep.nnz_coarse == np.count_nonzero(a00.toarray())

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

    @pytest.mark.parametrize("coarse", ["full", "gevp", "svd", "none"])
    def test_one_largest_unselected_per_subdomain(self, coarse):
        # "full" leaves nothing out: 0.0, as a selection that keeps every value
        mat, _ = generate(ProblemSpec("poisson2d", 10))
        rep = setup(mat, 4, overlap=1, coarse=coarse).report
        assert len(rep.largest_unselected) == (0 if coarse == "none" else 4)
        if coarse == "full":
            assert rep.largest_unselected == (0.0,) * 4
