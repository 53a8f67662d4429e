import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal

from tlschwarz import (
    BreakdownError,
    ProblemSpec,
    SparseMat,
    estimate_condition,
    generate,
    gmres,
    pcg,
    setup,
)
from tlschwarz import krylov

from conftest import laplace1d, random_spd


class TestPcg:
    def test_matches_dense_solve(self):
        mat = laplace1d(32)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(32)
        x, report = pcg(mat, None, b, tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(x, np.linalg.solve(mat.to_dense(), b), atol=1e-8)

    def test_preconditioner_cuts_iterations(self):
        mat, b = generate(ProblemSpec("poisson2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.1)
        _, plain = pcg(mat, None, b, tol=1e-8, maxit=500)
        _, two = pcg(mat, pre, b, tol=1e-8, maxit=500)
        assert two.converged and plain.converged
        assert two.iterations < plain.iterations

    def test_energy_error_monotone(self):
        mat = random_spd(60, seed=1)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(60)
        dense = mat.to_dense()
        exact = np.linalg.solve(dense, b)
        errors = []
        # every iterate, recomputed by a fresh solve capped one iteration later
        for maxit in range(1, 201):
            xk, report = pcg(mat, None, b, tol=1e-12, maxit=maxit)
            e = xk - exact
            errors.append(float(e @ dense @ e))
            if report.residuals[-1] <= 1e-12:
                break
        errors = np.asarray(errors)
        assert np.all(errors[1:] <= errors[:-1] * (1 + 1e-10) + 1e-14)

    def test_history_shape_and_final_residual(self):
        mat = laplace1d(50)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(50)
        x, report = pcg(mat, None, b, tol=1e-9)
        assert report.residuals.size == report.iterations + 1
        assert report.residuals[0] == 1.0
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert abs(true_rel - report.residuals[-1]) < 1e-6

    def test_breakdown_on_indefinite(self):
        mat = SparseMat.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(BreakdownError) as info:
            pcg(mat, None, np.array([0.0, 1.0]), tol=1e-10)
        assert info.value.iteration >= 1

    def test_indefinite_preconditioner_raises(self):
        mat, b = generate(ProblemSpec("poisson2d", 10))
        signs = (-1.0) ** np.arange(mat.nrows)

        class Alternating:
            def apply(self, r):
                return signs * r

        with pytest.raises(BreakdownError, match="preconditioner is not SPD"):
            pcg(mat, Alternating(), b, tol=1e-8, maxit=200)

    def test_true_residual_decides_convergence(self):
        # kappa = 1e10 and b along the smallest eigenvector: the recursive
        # residual reaches round-off while the true one stalls near eps * kappa
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        mat = SparseMat.from_dense(q @ np.diag([1.0, 1e10]) @ q.T)
        b = q[:, 0]
        x, report = pcg(mat, None, b, tol=1e-10, maxit=24)
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert report.residuals[-1] <= 1e-10 < true_rel
        assert not report.converged
        assert report.true_residual == true_rel

    def test_last_residual_replaced_by_true_residual(self):
        # iteration 25 replaces the recursive residual by the true one, so a
        # solve stopped there reports the same number twice, bit for bit
        mat, b = generate(ProblemSpec("poisson2d", 40))
        _, report = pcg(mat, None, b, tol=1e-12, maxit=25)
        assert report.stop_reason == "maxit" and report.iterations == 25
        assert report.residuals[-1] == report.true_residual

    def test_zero_rhs(self):
        mat = laplace1d(10)
        x, report = pcg(mat, None, np.zeros(10))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_maxit_reached_reports_not_converged(self):
        mat = laplace1d(200)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(200)
        _, report = pcg(mat, None, b, tol=1e-14, maxit=3)
        assert not report.converged
        assert report.iterations == 3

    def test_tridiagonal_condition_tracks_true_value(self):
        mat = laplace1d(64)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(64)
        _, report = pcg(mat, None, b, tol=1e-12, maxit=200)
        exact = np.linalg.cond(mat.to_dense())
        assert report.cond_estimate == pytest.approx(exact, rel=1e-2)

    @pytest.mark.parametrize("k", [1, 2, 40])
    def test_recurrence_matches_index_loop(self, k):
        # the array form must do the loop's floating-point operations exactly
        rng = np.random.default_rng(k)
        alphas = list(rng.uniform(0.1, 3.0, k))
        betas = list(rng.uniform(0.0, 2.0, k - 1))
        diag, off = np.empty(k), np.empty(k - 1)
        diag[0] = 1.0 / alphas[0]
        for j in range(1, k):
            diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
            off[j - 1] = np.sqrt(max(betas[j - 1], 0.0)) / alphas[j - 1]
        expected = 1.0
        if k > 1:
            ritz = eigvalsh_tridiagonal(diag, off)
            expected = float(ritz[-1] / ritz[0])
        assert krylov._cond_from_recurrence(alphas, betas) == expected

    def test_recurrence_with_a_nonpositive_ritz_value_is_infinite(self):
        # diag (1, -1), no coupling: the smallest Ritz value is -1
        assert krylov._cond_from_recurrence([1.0, -1.0], [0.0]) == float("inf")

    def test_plain_report_carries_condition_estimate(self):
        mat = laplace1d(16)
        _, report = pcg(mat, None, np.ones(16), tol=1e-10)
        assert report.converged
        # a Lanczos estimate: from below
        assert 1.0 < report.cond_estimate <= np.linalg.cond(mat.to_dense())

    def test_nan_preconditioner_still_reports(self):
        class NanPrecond:
            def apply(self, r):
                return np.full_like(r, np.nan)

        _, report = pcg(laplace1d(16), NanPrecond(), np.ones(16), maxit=5)
        assert not report.converged
        assert report.cond_estimate is None

    def test_report_text(self):
        mat = laplace1d(16)
        _, report = pcg(mat, None, np.ones(16), tol=1e-10)
        text = report.to_text()
        assert "iterations" in text and "condition_estimate" in text


class TestGmres:
    def test_matches_dense_solve_nonsymmetric(self):
        mat, b = generate(ProblemSpec("advection2d", 8))
        x, report = gmres(mat, None, b, tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(x, np.linalg.solve(mat.to_dense(), b), atol=1e-7)

    def test_preconditioned_run(self):
        mat, b = generate(ProblemSpec("advection2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.05)
        x, report = gmres(mat, pre, b, tol=1e-10)
        assert report.converged
        resid = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert resid < 1e-9
        _, plain = gmres(mat, None, b, tol=1e-10)
        assert report.iterations < plain.iterations

    def test_residuals_monotone(self):
        mat, b = generate(ProblemSpec("advection2d", 10))
        _, report = gmres(mat, None, b, tol=1e-12)
        r = report.residuals
        assert np.all(r[1:] <= r[:-1] * (1 + 1e-12))

    def test_identity_converges_immediately(self):
        mat = SparseMat(sp.identity(20, format="csr"))
        rng = np.random.default_rng(6)
        b = rng.standard_normal(20)
        x, report = gmres(mat, None, b, tol=1e-12)
        assert report.iterations == 1 and report.converged
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_happy_breakdown_in_invariant_subspace(self):
        # rhs spans two eigenvectors only; the basis closes after two steps
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((12, 12)))
        mat = SparseMat.from_dense(q @ np.diag(np.arange(1.0, 13.0)) @ q.T)
        b = q[:, 0] + q[:, 5]
        x, report = gmres(mat, None, b, tol=1e-15, maxit=50)
        assert report.converged == (report.true_residual <= 1e-15)
        assert report.iterations <= 3
        np.testing.assert_allclose(mat.matvec(x), b, atol=1e-10)

    def test_drifting_preconditioner_converges(self):
        # the iterate is built from the stored preconditioned vectors, so a
        # preconditioner whose scale changes on every call does not spoil it
        mat, b = generate(ProblemSpec("poisson2d", 10))

        class Drifting:
            calls = 0

            def apply(self, r):
                self.calls += 1
                return r * self.calls

        x, report = gmres(mat, Drifting(), b, tol=1e-8)
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert report.converged
        assert true_rel <= 1e-8
        assert report.true_residual == true_rel

    @pytest.mark.parametrize("maxit, stop", [(3, "maxit"), (500, "tol")])
    def test_one_preconditioner_apply_per_iteration(self, maxit, stop):
        mat, b = generate(ProblemSpec("advection2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.05)

        class Counting:
            calls = 0

            def apply(self, r):
                self.calls += 1
                return pre.apply(r)

        counting = Counting()
        _, report = gmres(mat, counting, b, tol=1e-10, maxit=maxit)
        assert report.stop_reason == stop
        assert counting.calls == report.iterations

    @pytest.mark.parametrize("maxit", [15, 16, 17, 33])
    def test_unconverged_across_storage_growth(self, maxit):
        # the storage starts at 16 rows and doubles: these caps stop just
        # before, at and after a growth step
        mat, b = generate(ProblemSpec("advection2d", 12))
        scale = np.random.default_rng(0).uniform(0.5, 2.0, mat.nrows)

        class Scaling:
            def apply(self, r):
                return scale * r

        x, report = gmres(mat, Scaling(), b, tol=1e-14, maxit=maxit)
        assert not report.converged
        assert report.iterations == maxit
        assert len(report.residuals) == maxit + 1
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert true_rel == pytest.approx(report.residuals[-1], rel=1e-8)

    def test_storage_does_not_scale_with_maxit(self):
        # advection2d m=80 converges in a few iterations; the basis must be
        # sized by those, not by maxit (a 501-row basis here is 25.6 MB)
        mat, b = generate(ProblemSpec("advection2d", 80))
        pre = setup(mat, 16)
        peaks = {}
        for maxit in (500, 20):
            tracemalloc.start()
            try:
                _, report = gmres(mat, pre, b, tol=1e-8, maxit=maxit)
                peaks[maxit] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.converged and report.iterations < 16
        assert abs(peaks[500] - peaks[20]) < 0.5e6

    def test_maxit_cap(self):
        mat = laplace1d(5)
        with pytest.raises(ValueError, match="hard cap"):
            gmres(mat, None, np.ones(5), maxit=1001)

    def test_zero_rhs(self):
        mat = laplace1d(8)
        x, report = gmres(mat, None, np.zeros(8))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_true_residual_matches_reported(self):
        mat, b = generate(ProblemSpec("advection2d", 9))
        x, report = gmres(mat, None, b, tol=1e-8)
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert true_rel <= 2 * report.residuals[-1] + 1e-12


class TestStoppingRefusals:
    """A tol that is not positive or a maxit below 1 is refused before the
    solver applies the matrix or the preconditioner."""

    @pytest.mark.parametrize("solver", [pcg, gmres])
    @pytest.mark.parametrize("limits", [dict(tol=np.nan), dict(tol=0.0), dict(tol=-1.0),
                                        dict(maxit=0), dict(maxit=-1)],
                             ids=["tol=nan", "tol=0", "tol=-1", "maxit=0", "maxit=-1"])
    def test_refused_before_any_work(self, solver, limits):
        applied = []

        class Counting:
            def matvec(self, v):
                applied.append("matvec")
                return laplace1d(5).matvec(v)

            def apply(self, r):
                applied.append("apply")
                return r.copy()

        name = next(iter(limits))
        with pytest.raises(ValueError, match=f"^{name} must be "):
            solver(Counting(), Counting(), np.ones(5), **limits)
        assert applied == []


class TestDeflatedGmres:
    @pytest.mark.parametrize("kind, m, options, iterations", [
        ("advection2d", 30, {}, 5),
        ("poisson2d", 40, dict(combine="deflated"), 17),
        ("poisson2d", 40, dict(one_level="ras", combine="deflated"), 4),
        ("hetero-diffusion2d", 40, dict(combine="deflated"), 17),
    ])
    def test_iterations_pinned(self, kind, m, options, iterations):
        mat, b = generate(ProblemSpec(kind, m))
        pre = setup(mat, 16, **options)
        _, report = gmres(mat, pre, b)
        assert report.converged and report.stop_reason == "tol"
        assert report.iterations == iterations

    @pytest.mark.parametrize("maxit, stop", [(3, "maxit"), (500, "tol")])
    def test_one_coarse_solve_per_iteration(self, maxit, stop):
        # the start makes one coarse solve (x0 = Q b), each iteration one more
        mat, b = generate(ProblemSpec("advection2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.05)
        assert pre.combine == "deflated"
        calls = {"coarse": 0, "one_level": 0}

        def counted(name, method):
            def wrapper(r):
                calls[name] += 1
                return method(r)
            return wrapper

        pre.coarse_apply = counted("coarse", pre.coarse_apply)
        pre.apply_one_level = counted("one_level", pre.apply_one_level)
        _, report = gmres(mat, pre, b, tol=1e-10, maxit=maxit)
        assert report.stop_reason == stop
        assert calls == {"coarse": report.iterations + 1, "one_level": report.iterations}

    def test_krylov_vectors_have_no_coarse_component(self):
        # Z^T r0 = 0 for x0 = Q b, and Z^T A maps the reduced apply to 0
        mat, b = generate(ProblemSpec("advection2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.05)
        zt = pre.coarse.basis_t
        a = mat.scipy()
        x0, reduced = pre.start(b)
        r0 = b - a @ x0
        assert np.linalg.norm(zt @ r0) <= 1e-12 * np.linalg.norm(zt @ b)
        zta = (zt @ a).toarray()
        scale = np.linalg.norm(zta, 2)
        rng = np.random.default_rng(12)
        for _ in range(3):
            v = rng.standard_normal(mat.nrows)
            assert np.linalg.norm(zta @ reduced(v)) <= 1e-12 * scale * np.linalg.norm(v)

    def test_other_combinations_start_from_zero(self):
        mat, b = generate(ProblemSpec("poisson2d", 10))
        pre = setup(mat, 4, overlap=2)
        x0, op = pre.start(b)
        assert pre.combine == "additive" and op == pre.apply
        np.testing.assert_array_equal(x0, 0.0)

    def test_converged_start_takes_no_iteration(self):
        # b = A Z c lies in the coarse range, so r0 = b - A Q b is round-off
        mat, _ = generate(ProblemSpec("advection2d", 30))
        pre = setup(mat, 4)
        assert pre.combine == "deflated"
        c = np.random.default_rng(13).standard_normal(pre.coarse.basis.shape[1])
        b = mat.matvec(pre.coarse.basis @ c)
        x, report = gmres(mat, pre, b, tol=1e-8)
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert report.iterations == 0 and report.stop_reason == "tol"
        assert report.converged and report.true_residual == true_rel <= 1e-12
        assert report.residuals.tolist() == [true_rel]

    def test_zero_rhs(self):
        mat, _ = generate(ProblemSpec("advection2d", 12))
        pre = setup(mat, 4, overlap=2, tau=0.05)
        x, report = gmres(mat, pre, np.zeros(mat.nrows))
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(x, 0.0)


class TestStopReason:
    def test_pcg_tol(self):
        _, report = pcg(laplace1d(32), None, np.ones(32), tol=1e-10)
        assert report.stop_reason == "tol"
        assert report.to_text().splitlines()[-1] == "stop_reason = tol"

    def test_pcg_maxit(self):
        _, report = pcg(laplace1d(200), None, np.ones(200), tol=1e-14, maxit=3)
        assert report.stop_reason == "maxit" and report.iterations == 3

    def test_gmres_tol(self):
        mat, b = generate(ProblemSpec("advection2d", 8))
        _, report = gmres(mat, None, b, tol=1e-10)
        assert report.stop_reason == "tol" and report.converged

    def test_gmres_invariant(self):
        # rhs spans two eigenvectors: the space closes before the
        # least-squares residual reaches 1e-15
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((12, 12)))
        mat = SparseMat.from_dense(q @ np.diag(np.arange(1.0, 13.0)) @ q.T)
        _, report = gmres(mat, None, q[:, 0] + q[:, 5], tol=1e-15, maxit=50)
        assert report.stop_reason == "invariant"
        assert report.residuals[-1] > 1e-15 and report.iterations == 2

    @pytest.mark.parametrize("kind, m", [("poisson2d", 20), ("advection2d", 20),
                                         ("hetero-diffusion2d", 30)])
    def test_gmres_stop_is_scale_free(self, kind, m):
        # A and b scaled by c leave A M^{-1} and every relative residual as
        # they were, so the iterations and the exit must not move either
        mat, b = generate(ProblemSpec(kind, m))
        runs = []
        for c in (1e-10, 1.0, 1e10):
            scaled = SparseMat(c * mat.scipy())
            pre = setup(scaled, 4, coarse="svd", one_level="ras", combine="deflated")
            _, report = gmres(scaled, pre, c * b)
            runs.append((report.iterations, report.stop_reason, report.converged))
        assert runs == [runs[1]] * 3
        assert runs[1][1:] == ("tol", True)

    def test_gmres_maxit(self):
        _, report = gmres(laplace1d(200), None, np.ones(200), tol=1e-14, maxit=3)
        assert report.stop_reason == "maxit" and report.iterations == 3
        assert report.to_text().splitlines()[-1] == "stop_reason = maxit"


class TestConditionEstimate:
    def test_unpreconditioned_closed_form(self, monkeypatch):
        def no_cg(*args, **kwargs):
            raise AssertionError("estimate_condition ran pcg")

        monkeypatch.setattr(krylov, "pcg", no_cg)  # the exact value needs no solver
        n = 100
        mat = laplace1d(n)
        k = np.arange(1, n + 1)
        lam = 4 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        exact = lam[-1] / lam[0]
        assert estimate_condition(mat) == pytest.approx(exact, rel=1e-6)

    def test_refuses_above_the_dense_cutoff(self):
        # above it only PCG's lower estimate exists, and the refusal names it
        with pytest.raises(ValueError, match="cond_estimate"):
            estimate_condition(laplace1d(krylov.DENSE_CUTOFF + 1))

    def test_exact_inverse_gives_unit_condition(self):
        mat = laplace1d(30)
        pre = setup(mat, 1, overlap=1, coarse="none")
        assert estimate_condition(mat, pre) == pytest.approx(1.0, abs=1e-8)

    def test_two_level_improves_on_one_level(self):
        mat, _ = generate(ProblemSpec("poisson2d", 12))
        one = setup(mat, 4, overlap=2, coarse="none")
        two = setup(mat, 4, overlap=2, tau=0.1)
        assert estimate_condition(mat, two) < estimate_condition(mat, one)

    def test_rejects_nonsymmetric_matrix(self):
        mat, _ = generate(ProblemSpec("advection2d", 6))
        with pytest.raises(ValueError):
            estimate_condition(mat)

    def test_rejects_nonsymmetric_preconditioner(self):
        mat = laplace1d(20)
        pre = setup(mat, 2, overlap=1, coarse="none", one_level="ras")
        with pytest.raises(ValueError):
            estimate_condition(mat, pre)

    def test_rejects_indefinite_preconditioner(self):
        class Negated:
            is_symmetric = True

            def apply(self, r):
                return -r

        with pytest.raises(ValueError, match="^preconditioner is not positive definite$"):
            estimate_condition(laplace1d(10), Negated())

    def test_rejects_indefinite_matrix(self):
        mat = SparseMat.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError,
                           match="^preconditioned operator is not positive definite$"):
            estimate_condition(mat)
