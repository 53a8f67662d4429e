import numpy as np
import pytest

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
        _, report = pcg(mat, None, b, tol=1e-12, maxit=200, track_tridiagonal=True)
        exact = np.linalg.cond(mat.to_dense())
        assert report.cond_estimate == pytest.approx(exact, rel=1e-2)

    def test_report_text(self):
        mat = laplace1d(16)
        _, report = pcg(mat, None, np.ones(16), tol=1e-10, track_tridiagonal=True)
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
        mat = SparseMat.identity(20)
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

    def test_drifting_preconditioner_not_converged(self):
        # the final map back through a preconditioner whose scale changes on
        # every call spoils the iterate although the least-squares residual is tiny
        mat, b = generate(ProblemSpec("poisson2d", 10))

        class Drifting:
            calls = 0

            def apply(self, r):
                self.calls += 1
                return r * self.calls

        x, report = gmres(mat, Drifting(), b, tol=1e-8)
        true_rel = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
        assert report.residuals[-1] <= 1e-8 < true_rel
        assert not report.converged
        assert report.true_residual == true_rel

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


class TestConditionEstimate:
    def test_unpreconditioned_closed_form(self):
        n = 100
        mat = laplace1d(n)
        k = np.arange(1, n + 1)
        lam = 4 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        exact = lam[-1] / lam[0]
        assert estimate_condition(mat) == pytest.approx(exact, rel=1e-6)

    def test_lanczos_fallback_agrees(self, monkeypatch):
        n = 100
        mat = laplace1d(n)
        dense = estimate_condition(mat)
        monkeypatch.setattr(krylov, "DENSE_CUTOFF", 0)
        lanczos = estimate_condition(mat)
        assert lanczos == pytest.approx(dense, rel=1e-2)

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
