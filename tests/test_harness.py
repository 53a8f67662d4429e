import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from tlschwarz import (
    BoundInputs,
    ExperimentConfig,
    Partition,
    ProblemSpec,
    derive_bound_inputs,
    estimate_condition,
    extend_overlap,
    generate,
    lambda_star,
    run_experiment,
    save_matrix_market,
    setup,
    symmetrized_graph,
    theoretical_bound,
    write_vector,
)
from tlschwarz import harness, krylov

from conftest import laplace1d, scatter_dense

T3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


class TestGenerators:
    def test_poisson2d_is_kronecker_laplacian(self):
        mat, b = generate(ProblemSpec("poisson2d", 3))
        h2 = 16.0
        expected = h2 * (np.kron(np.eye(3), T3) + np.kron(T3, np.eye(3)))
        np.testing.assert_array_equal(mat.to_dense(), expected)
        assert mat.symmetric
        np.testing.assert_array_equal(b, expected @ np.ones(9))

    def test_poisson3d_is_kronecker_laplacian(self):
        mat, b = generate(ProblemSpec("poisson3d", 3))
        h2 = 16.0
        eye = np.eye(3)
        expected = h2 * (
            np.kron(eye, np.kron(eye, T3))
            + np.kron(eye, np.kron(T3, eye))
            + np.kron(T3, np.kron(eye, eye))
        )
        np.testing.assert_array_equal(mat.to_dense(), expected)
        assert mat.nrows == 27
        np.testing.assert_array_equal(b, expected @ np.ones(27))

    def test_hetero_harmonic_mean_edges(self):
        c = 1.0e3
        m = 5
        spec = ProblemSpec("hetero-diffusion2d", m, contrast=c, channel_seed=1)
        mat, _ = generate(spec)
        assert mat.symmetric
        h2 = float((m + 1) ** 2)
        channel = int(np.random.default_rng(1).choice(m, size=1, replace=False)[0])
        assert 0 < channel < m - 1  # the checks below need both side columns
        idx = lambda i, j: i + j * m
        # edge along the channel: both endpoints carry the contrast
        assert mat.scipy()[idx(1, channel), idx(2, channel)] == pytest.approx(-c * h2)
        # edge across the channel boundary: harmonic mean of 1 and c
        assert mat.scipy()[idx(1, channel), idx(1, channel - 1)] == pytest.approx(
            -2.0 * c / (1.0 + c) * h2
        )
        # background edge far from the channel keeps the plain stencil value
        far = channel - 2 if channel >= 2 else channel + 2
        assert mat.scipy()[idx(1, far), idx(2, far)] == pytest.approx(-h2)

    def test_hetero_interior_row_sums_vanish(self):
        mat, _ = generate(ProblemSpec("hetero-diffusion2d", 6, contrast=1e4))
        dense = mat.to_dense()
        sums = dense @ np.ones(36)
        idx = lambda i, j: i + j * 6
        interior = [idx(i, j) for i in range(1, 5) for j in range(1, 5)]
        np.testing.assert_allclose(sums[interior], 0.0, atol=1e-9 * np.abs(dense).max())
        assert np.all(sums >= -1e-9 * np.abs(dense).max())

    def test_advection_upwind_values(self):
        eps = 1e-2
        mat, _ = generate(ProblemSpec("advection2d", 3, eps=eps, velocity=(1.0, 0.0)))
        h2, inv_h = 16.0, 4.0
        center = 4  # (i=1, j=1)
        assert mat.scipy()[center, center] == pytest.approx(4 * eps * h2 + inv_h)
        assert mat.scipy()[center, 3] == pytest.approx(-eps * h2 - inv_h)  # upwind west
        assert mat.scipy()[center, 5] == pytest.approx(-eps * h2)  # downwind east
        assert mat.scipy()[center, 1] == pytest.approx(-eps * h2)
        diff = mat.to_dense() - mat.to_dense().T
        assert np.linalg.norm(diff) > 0
        assert not mat.symmetric

    # sha256 of indptr, indices (int64) and data (float64), recorded from the
    # point-by-point reference generators: any rewrite must match bit for bit
    @pytest.mark.parametrize("spec, digest", [
        (ProblemSpec("poisson2d", 3), "1eeccb249b5c0238"),
        (ProblemSpec("poisson2d", 7), "6a3fcb50e1b5bb20"),
        (ProblemSpec("poisson2d", 16), "3d36889fc784cfe7"),
        (ProblemSpec("poisson3d", 3), "6b353cda97ccde5c"),
        (ProblemSpec("poisson3d", 7), "868d2bc47debd6b2"),
        (ProblemSpec("hetero-diffusion2d", 3, channel_seed=5), "4098b80cb78b6dd7"),
        (ProblemSpec("hetero-diffusion2d", 7), "6106e4ffc72c6fbd"),
        (ProblemSpec("hetero-diffusion2d", 16, contrast=37.5, channel_seed=3), "448b26d214298e0a"),
        (ProblemSpec("advection2d", 3, velocity=(0.0, 1.0)), "0a66674e3dd4f2df"),
        (ProblemSpec("advection2d", 7), "cb335d7affbdf65f"),
        (ProblemSpec("advection2d", 16, velocity=(-1.0, 0.5), eps=0.5), "6e57f32758e9c5fb"),
        (ProblemSpec("advection2d", 16, velocity=(0.3, -2.0)), "63605b87018a905f"),
    ])
    def test_fingerprint(self, spec, digest):
        mat, _ = generate(spec)
        h = hashlib.sha256()
        csr = mat.scipy()
        for a, dtype in ((csr.indptr, np.int64), (csr.indices, np.int64), (csr.data, np.float64)):
            a = np.asarray(a, dtype=dtype)
            h.update(np.int64(a.size).tobytes())
            h.update(a.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec("poisson2d", 2)
        with pytest.raises(ValueError):
            ProblemSpec("banana", 5)


class TestLambdaStar:
    def test_single_subdomain_is_one(self):
        mat = laplace1d(30)
        pre = setup(mat, 1, overlap=1, coarse="none")
        assert lambda_star(mat, pre.maps) == 1.0

    def test_one_by_one_matrix(self):
        mat = laplace1d(1)
        assert lambda_star(mat, setup(mat, 1, coarse="none").maps) == 1.0

    def test_disjoint_components_give_one(self):
        import scipy.sparse as sp

        from tlschwarz import SparseMat

        block = sp.block_diag([laplace1d(8).scipy(), laplace1d(8).scipy()]).tocsr()
        mat = SparseMat(block)
        part = Partition(2, np.array([0] * 8 + [1] * 8))
        maps = extend_overlap(symmetrized_graph(mat), part, 2)
        # overlap cannot cross components, so the stacked sum is the matrix
        assert lambda_star(mat, maps) == pytest.approx(1.0, abs=1e-10)

    def test_dense_and_eigsh_paths_agree(self):
        # eigsh against the dense pencil (sum_i R_i^T A_ii R_i, A), on poisson2d
        # m=8 N=4 and on the problems of test_shrunk_constants_pinned
        for kind, m, n_sub in [("poisson2d", 8, 4), ("poisson2d", 12, 4),
                               ("hetero-diffusion2d", 20, 16)]:
            mat, _ = generate(ProblemSpec(kind, m))
            maps = setup(mat, n_sub, overlap=2, coarse="none").maps
            a = mat.to_dense()
            stacked = sum(scatter_dense(s, a[np.ix_(s.indices, s.indices)], mat.nrows)
                          for s in maps)
            dense = eigh(stacked, a, eigvals_only=True)[-1]
            assert dense >= 1.0
            assert lambda_star(mat, maps) == pytest.approx(dense, rel=1e-12)

    def test_rejects_nonsymmetric(self):
        mat, _ = generate(ProblemSpec("advection2d", 5))
        pre = setup(mat, 2, coarse="none")
        with pytest.raises(ValueError):
            lambda_star(mat, pre.maps)


class TestBounds:
    def test_frozen_values(self):
        assert theoretical_bound(BoundInputs(2, 1.0)) == pytest.approx(36.0)
        assert theoretical_bound(BoundInputs(1, 1.0)) == pytest.approx(10.0)
        shrunk = theoretical_bound(BoundInputs(2, 1.5, tau=0.1, lam_star=2.0))
        assert shrunk == pytest.approx(60.45)

    def test_shrunk_reduces_to_full_at_zero_tau(self):
        for kc, nu in ((1, 1.0), (2, 1.3), (4, 2.5)):
            full = (kc + 1) * (2.0 + (2 * kc + 1) * kc * nu)
            shrunk = theoretical_bound(BoundInputs(kc, nu, tau=0.0, lam_star=7.0))
            assert shrunk == pytest.approx(full)

    def test_inputs_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(0, 1.0)
        with pytest.raises(ValueError):
            BoundInputs(1, 0.9)
        with pytest.raises(ValueError):
            BoundInputs(1, 1.0, tau=-0.1)
        with pytest.raises(ValueError):
            BoundInputs(1, 1.0, lam_star=0.5)

    @pytest.mark.parametrize("field", ["k_c", "nu", "tau", "lam_star"])
    def test_nan_input_refused(self, field):
        # every comparison with NaN is False, so each check is written so NaN fails it
        with pytest.raises(ValueError, match="must be"):
            BoundInputs(**{"k_c": 1, "nu": 1.0, field: float("nan")})

    def test_derived_constants_are_consistent(self):
        mat, _ = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, overlap=2, tau=0.1)
        inputs = derive_bound_inputs(pre)
        assert inputs.k_c == pre.report.k_c
        assert inputs.nu >= 1.0
        # whatever was left out of the coarse space sits at or below the knob
        assert inputs.tau <= 0.1 * (1 + 1e-9)
        assert inputs.lam_star >= 1.0
        measured = estimate_condition(mat, pre)
        assert measured <= theoretical_bound(inputs)

    @pytest.mark.parametrize("kind, m, n_sub, nu, expected", [
        ("poisson2d", 12, 4, None, (3, 2.3983864772441987, 0.08241624485513435, 10.426478816873761)),
        ("poisson2d", 12, 4, 1.5, (3, 1.420294666431597, 0.08241624485513435, 10.426478816873761)),
        ("hetero-diffusion2d", 20, 16, None,
         (5, 3.4545241734256007, 0.09889623623546923, 42.630863320750564)),
    ])
    def test_shrunk_constants_pinned(self, kind, m, n_sub, nu, expected):
        mat, _ = generate(ProblemSpec(kind, m))
        inputs = derive_bound_inputs(setup(mat, n_sub, nu=nu))
        assert inputs.k_c == expected[0]
        np.testing.assert_allclose([inputs.nu, inputs.tau, inputs.lam_star], expected[1:],
                                   rtol=1e-12)

    def test_full_coarse_space_has_zero_tau(self):
        mat, _ = generate(ProblemSpec("poisson2d", 8))
        pre = setup(mat, 2, overlap=2, coarse="full")
        assert pre.report.largest_unselected == (0.0, 0.0)
        assert derive_bound_inputs(pre).tau == 0.0

    @pytest.mark.parametrize("coarse", ["svd", "none"])
    def test_refuses_a_coarse_space_it_does_not_cover(self, coarse):
        # the Euclidean SVD selection and the one-level operator are outside
        # the theory: no bound may be certified for them
        mat, _ = generate(ProblemSpec("poisson2d", 12))
        pre = setup(mat, 4, coarse=coarse)
        assert not harness._bound_covers(pre)
        with pytest.raises(ValueError, match="'full' or 'gevp' coarse space"):
            derive_bound_inputs(pre)

    def test_bound_inputs_traced_peak(self):
        # traced allocations of the bound path alone: 39.9 MB while it held a
        # dense copy of every block, 9.2 MB with one dense block at a time
        mat, _ = generate(ProblemSpec("poisson2d", 100))
        pre = setup(mat, 64)
        tracemalloc.start()
        try:
            derive_bound_inputs(pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestRunExperiment:
    def test_generated_poisson_with_bound(self, tmp_path):
        report = tmp_path / "run.txt"
        config = ExperimentConfig(kind="poisson2d", m=10, n_subdomains=4,
                                  report_path=str(report), tol=1e-10)
        result = run_experiment(config)
        assert result.solve_report.converged
        assert np.abs(result.x - 1.0).max() < 1e-6
        assert result.bound_check is not None and result.bound_check["holds"]
        assert "bound_holds = True" in result.report_text
        assert report.exists()
        history = (tmp_path / "run.txt.history").read_text().strip().splitlines()
        assert len(history) == result.solve_report.residuals.size
        assert history[0].split() == ["0", "1"]

    def test_above_dense_cutoff_skips_the_verdict_and_keeps_pcg_kappa(self):
        # poisson2d m=21 has 441 rows: no exact condition number, so no bound check
        result = run_experiment(ExperimentConfig(kind="poisson2d", m=21, n_subdomains=4))
        assert result.matrix.nrows > krylov.DENSE_CUTOFF
        assert result.solve_report.converged
        assert result.bound_check is None
        assert "condition_estimate = " in result.report_text
        assert "bound_holds" not in result.report_text

    def test_matrix_from_files(self, tmp_path):
        mat, rhs = generate(ProblemSpec("poisson2d", 6))
        mpath, rpath = tmp_path / "a.mtx", tmp_path / "b.txt"
        save_matrix_market(str(mpath), mat)
        rpath.write_text(write_vector(rhs))
        config = ExperimentConfig(matrix_path=str(mpath), rhs_path=str(rpath),
                                  n_subdomains=2, tol=1e-10)
        result = run_experiment(config)
        assert result.solve_report.converged
        assert result.matrix.symmetric  # re-detected from the file
        np.testing.assert_allclose(result.x, 1.0, atol=1e-6)

    def test_manufactured_rhs_when_file_has_none(self, tmp_path):
        mat, _ = generate(ProblemSpec("poisson2d", 5))
        mpath = tmp_path / "a.mtx"
        save_matrix_market(str(mpath), mat)
        result = run_experiment(ExperimentConfig(matrix_path=str(mpath),
                                                 n_subdomains=2, tol=1e-10))
        np.testing.assert_allclose(result.x, 1.0, atol=1e-6)

    def test_rhs_length_mismatch(self, tmp_path):
        mat, _ = generate(ProblemSpec("poisson2d", 5))
        mpath, rpath = tmp_path / "a.mtx", tmp_path / "b.txt"
        save_matrix_market(str(mpath), mat)
        rpath.write_text(write_vector(np.ones(7)))
        with pytest.raises(ValueError, match="length"):
            run_experiment(ExperimentConfig(matrix_path=str(mpath), rhs_path=str(rpath)))

    @pytest.mark.parametrize("shape", [{"m": 50}, {"seed": 3}, {"m": 20, "seed": 0}])
    def test_grid_size_or_seed_beside_matrix_file_refused(self, tmp_path, shape):
        # even at the generated problem's defaults: a file run cannot use them
        mat, _ = generate(ProblemSpec("poisson2d", 6))
        mpath = tmp_path / "a.mtx"
        save_matrix_market(str(mpath), mat)
        with pytest.raises(ValueError, match="shapes a generated problem, not a matrix file"):
            run_experiment(ExperimentConfig(matrix_path=str(mpath), n_subdomains=2, **shape))

    def test_generated_problem_defaults(self):
        config = ExperimentConfig(kind="hetero2d")
        assert (config.m, config.seed) == (None, None)
        expected, _ = generate(ProblemSpec("hetero-diffusion2d", 20, channel_seed=0))
        assert (harness._load_problem(config)[0].scipy() != expected.scipy()).nnz == 0

    def test_requires_some_source(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig())

    def test_hetero_alias_and_gmres(self):
        result = run_experiment(ExperimentConfig(kind="hetero2d", m=8,
                                                 n_subdomains=2, tol=1e-10))
        assert result.solve_report.converged
        adv = run_experiment(ExperimentConfig(kind="advection2d", m=8, n_subdomains=2,
                                              solver="gmres", tol=1e-10))
        assert adv.solve_report.converged
        assert adv.bound_check is None  # nonsymmetric: no certified bound

    def test_ras_bound_uses_the_run_thresholds(self):
        # the bound is checked on the asm + additive operator with the run's
        # maps, local factor and coarse space, whatever the run applied, so
        # every two-level run must match the asm + additive run's certificate;
        # a one-level run builds no coarse space and has no bound to check
        def bound(one_level, **kinds):
            return run_experiment(ExperimentConfig(
                kind="poisson2d", m=12, n_subdomains=4, nu=1.5, one_level=one_level,
                solver="gmres", **kinds)).bound_check

        want = bound("asm", combine="additive")
        for run in [("ras", "additive"), ("asm", "deflated"), ("ras", "deflated")]:
            got = bound(run[0], combine=run[1])
            assert got["measured"] == want["measured"], run
            assert got["inputs"] == want["inputs"], run
        for one_level in ("asm", "ras"):
            assert bound(one_level, coarse="none") is None, one_level

    def test_unknown_solver(self, monkeypatch):
        # the solver name is checked before the preconditioner is built
        def refuse(*args, **kwargs):
            raise AssertionError("setup ran for an unknown solver")

        monkeypatch.setattr(harness, "setup", refuse)
        with pytest.raises(ValueError, match="unknown solver 'banana'"):
            run_experiment(ExperimentConfig(kind="poisson2d", m=5, solver="banana"))
