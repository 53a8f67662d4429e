import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import tlschwarz.cli
from tlschwarz import (ExperimentConfig, ProblemSpec, SparseMat, generate, save_matrix_market,
                       write_vector)
from tlschwarz.cli import main

from test_sparsemat import RANK_DEFICIENT_BLOCK

EVERY_FLAG = [
    ("--matrix", "a.mtx", "matrix_path", "a.mtx"),
    ("--rhs", "b.mtx", "rhs_path", "b.mtx"),
    ("--kind", "hetero2d", "kind", "hetero2d"),
    ("--m", "7", "m", 7),
    ("--N", "3", "n_subdomains", 3),
    ("--delta", "1", "overlap", 1),
    ("--tau", "0.2", "tau", 0.2),
    ("--nu", "1.5", "nu", 1.5),
    ("--coarse", "full", "coarse", "full"),
    ("--one-level", "ras", "one_level", "ras"),
    ("--combine", "deflated", "combine", "deflated"),
    ("--solver", "gmres", "solver", "gmres"),
    ("--tol", "1e-6", "tol", 1e-6),
    ("--maxit", "50", "maxit", 50),
    ("--report", "r.txt", "report_path", "r.txt"),
    ("--seed", "4", "seed", 4),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def captured_config(monkeypatch):
    """Replace the experiment by a stub that records the config it is given."""
    seen = []

    def fake_run(config):
        seen.append(config)
        return SimpleNamespace(report_text="", solve_report=SimpleNamespace(converged=True))

    monkeypatch.setattr(tlschwarz.cli, "run_experiment", fake_run)
    return seen


def test_defaults_come_from_config(captured_config):
    assert main(["--kind", "poisson2d"]) == 0
    assert captured_config == [ExperimentConfig(kind="poisson2d")]


def test_every_flag_sets_its_field(captured_config):
    argv = [tok for flag, value, _, _ in EVERY_FLAG for tok in (flag, value)]
    expected = ExperimentConfig(**{field: v for _, _, field, v in EVERY_FLAG})
    default = ExperimentConfig()
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {
        field for _, _, field, _ in EVERY_FLAG}
    assert all(getattr(expected, f) != getattr(default, f) for _, _, f, _ in EVERY_FLAG)
    assert main(argv) == 0
    assert captured_config == [expected]


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag, _, _, _ in EVERY_FLAG:
        assert flag in out


def test_generated_problem_exit_zero(capsys, tmp_path):
    report = tmp_path / "out.txt"
    code, out, err = run(
        capsys,
        "--kind", "poisson2d", "--m", "10", "--N", "4", "--delta", "2",
        "--tau", "0.1", "--tol", "1e-10", "--report", str(report),
    )
    assert code == 0, err
    assert "converged = True" in out
    assert "coarse_size = " in out
    assert "bound_holds = True" in out
    assert report.exists() and (tmp_path / "out.txt.history").exists()


def test_file_based_run(capsys, tmp_path):
    mat, rhs = generate(ProblemSpec("poisson2d", 8))
    mpath, rpath = tmp_path / "a.mtx", tmp_path / "b.txt"
    save_matrix_market(str(mpath), mat)
    rpath.write_text(write_vector(rhs))
    code, out, err = run(
        capsys, "--matrix", str(mpath), "--rhs", str(rpath), "--N", "2", "--tol", "1e-10"
    )
    assert code == 0, err
    assert "converged = True" in out


def test_symmetric_storage_file_takes_the_cg_path(capsys, tmp_path, monkeypatch):
    # the lower triangle in symmetric storage solves as the general-storage
    # file of test_file_based_run does: CG, same iterations, same solution
    import tlschwarz.krylov

    def no_gmres(*args, **kwargs):
        raise AssertionError("a symmetric matrix file must take the CG path")

    solves = []
    pcg = tlschwarz.krylov.pcg

    def recording_pcg(*args, **kwargs):
        solves.append(pcg(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(tlschwarz.krylov, "pcg", recording_pcg)
    monkeypatch.setattr(tlschwarz.krylov, "gmres", no_gmres)
    mat, rhs = generate(ProblemSpec("poisson2d", 8))
    lower = sp.tril(mat.scipy()).tocoo()
    general, symmetric, rpath = tmp_path / "a.mtx", tmp_path / "lower.mtx", tmp_path / "b.txt"
    save_matrix_market(str(general), mat)
    symmetric.write_text(
        f"%%MatrixMarket matrix coordinate real symmetric\n{mat.nrows} {mat.ncols} {lower.nnz}\n"
        + "".join(f"{i + 1} {j + 1} {v:.17g}\n"
                  for i, j, v in zip(lower.row, lower.col, lower.data)))
    rpath.write_text(write_vector(rhs))
    outs = []
    for path in (general, symmetric):
        code, out, err = run(capsys, "--matrix", str(path), "--rhs", str(rpath), "--N", "2",
                             "--tol", "1e-10")
        assert code == 0, err
        assert "symmetric = True" in out and "condition_estimate" in out
        outs.append([line for line in out.splitlines() if line.startswith("iterations")])
    assert outs[0] == outs[1]
    (x_general, report_general), (x_symmetric, report_symmetric) = solves
    assert report_symmetric.iterations == report_general.iterations
    np.testing.assert_array_equal(x_symmetric, x_general)


def test_symmetric_indefinite_file_takes_the_general_options(capsys, tmp_path):
    # an exactly symmetric 40x40 band with lambda_min -4.56 and condition number 128
    rng = np.random.default_rng(1)
    off = [rng.standard_normal(40 - k) for k in (1, 2)]
    mat = SparseMat(sp.diags([*off, rng.uniform(-3.0, 5.0, 40), *off], [1, 2, 0, -1, -2]))
    assert mat.symmetric and np.linalg.eigvalsh(mat.to_dense())[0] < 0
    path = tmp_path / "indefinite.mtx"
    save_matrix_market(str(path), mat)
    code, out, err = run(capsys, "--matrix", str(path), "--N", "4", "--coarse", "svd",
                         "--one-level", "ras", "--combine", "deflated")
    assert code == 0, err
    assert "symmetric = True" in out and "converged = True" in out
    # the defaults ask for positive definite blocks
    code, out, err = run(capsys, "--matrix", str(path), "--N", "4")
    assert (code, out) == (1, "")
    assert err == ("error_type = SubdomainSetupError\n"
                   "message = subdomain 0: local block is not positive definite; a symmetric "
                   'indefinite matrix needs coarse="svd", one_level="ras", combine="deflated" '
                   "(--coarse svd --one-level ras --combine deflated)\n")


def test_rhs_file_without_matrix_file_is_refused(capsys, tmp_path):
    # the right-hand side of a generated problem is A * ones; a file would be ignored
    rhs = tmp_path / "b.txt"
    rhs.write_text(write_vector(np.ones(3)))
    code, out, err = run(capsys, "--kind", "poisson2d", "--m", "8", "--N", "4", "--rhs", str(rhs))
    assert (code, out) == (1, "")
    assert err == "error_type = ValueError\nmessage = a right-hand side file needs a matrix file\n"


def test_nan_threshold_is_refused(capsys):
    code, out, err = run(capsys, "--kind", "poisson2d", "--m", "6", "--tau", "nan")
    assert (code, out) == (1, "")
    assert err == "error_type = ValueError\nmessage = threshold must be positive\n"


def test_matrix_file_with_problem_kind_is_refused(capsys, tmp_path):
    mat, _ = generate(ProblemSpec("poisson2d", 6))
    path = tmp_path / "a.mtx"
    save_matrix_market(str(path), mat)
    code, out, err = run(capsys, "--matrix", str(path), "--kind", "advection2d", "--N", "2")
    assert (code, out) == (1, "")
    assert err == ("error_type = ValueError\n"
                   "message = give a matrix file or a problem kind, not both\n")


@pytest.mark.parametrize("flags", [["--m", "50"], ["--seed", "3"], ["--m", "50", "--seed", "3"]])
def test_grid_size_or_seed_with_matrix_file_is_refused(capsys, tmp_path, flags):
    # both only shape a generated problem; beside a file they would be dropped
    mat, _ = generate(ProblemSpec("poisson2d", 6))
    path = tmp_path / "a.mtx"
    save_matrix_market(str(path), mat)
    code, out, err = run(capsys, "--matrix", str(path), *flags, "--N", "2")
    assert (code, out) == (1, "")
    assert err == ("error_type = ValueError\n"
                   "message = a grid size or seed shapes a generated problem, not a matrix file\n")


def test_missing_source_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert "error_type = usage" in err
    assert out == ""


def test_bad_matrix_file_structured_error(capsys, tmp_path):
    bad = tmp_path / "broken.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1.0\n")
    code, out, err = run(capsys, "--matrix", str(bad))
    assert code == 1
    assert "error_type = MatrixMarketError" in err
    assert "line 3" in err
    assert out == ""


def test_missing_file_structured_error(capsys, tmp_path):
    code, out, err = run(capsys, "--matrix", str(tmp_path / "nope.mtx"))
    assert code == 1
    assert "error_type = FileNotFoundError" in err


def test_not_converged_exit_code(capsys):
    code, out, err = run(
        capsys,
        "--kind", "poisson2d", "--m", "16", "--N", "4",
        "--coarse", "none", "--maxit", "2", "--tol", "1e-12",
    )
    assert code == 3
    assert "converged = False" in out


def test_gmres_on_advection(capsys):
    code, out, err = run(
        capsys,
        "--kind", "advection2d", "--m", "10", "--N", "4",
        "--solver", "gmres", "--one-level", "ras", "--combine", "deflated",
        "--coarse", "svd", "--tol", "1e-10",
    )
    assert code == 0, err
    assert "one_level = ras" in out
    assert "combine = deflated" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tlschwarz", "--kind", "poisson2d", "--m", "6", "--N", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "converged = True" in proc.stdout


@pytest.mark.parametrize("n_subdomains", ["1", "2"])
def test_stdout_carries_only_the_report(tmp_path, n_subdomains):
    # SuperLU, given this structurally singular matrix, writes BLAS parameter
    # errors to fd 1 unless setup refuses the matrix before it is factored
    import subprocess
    import sys

    path = tmp_path / "rank_deficient.mtx"
    save_matrix_market(path, SparseMat.from_coo(24, 24, *RANK_DEFICIENT_BLOCK))
    proc = subprocess.run(
        [sys.executable, "-m", "tlschwarz", "--matrix", str(path), "--N", n_subdomains],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error_type = ValueError\n"
                           "message = matrix is structurally singular: "
                           "structural rank 23 < n = 24\n")


def test_nonsymmetric_preconditioner_defaults_to_gmres(capsys, monkeypatch):
    import tlschwarz.krylov

    def no_cg(*args, **kwargs):
        raise AssertionError("CG must not run on a nonsymmetric preconditioner")

    monkeypatch.setattr(tlschwarz.krylov, "pcg", no_cg)
    code, out, err = run(capsys, "--kind", "advection2d", "--m", "30", "--N", "4")
    assert code == 0, err
    assert "combine = deflated" in out
    assert "converged = True" in out
    assert "condition_estimate" not in out


def test_explicit_cg_on_nonsymmetric_preconditioner_rejected(capsys):
    code, out, err = run(capsys, "--kind", "advection2d", "--m", "30", "--N", "4",
                         "--solver", "cg")
    assert code != 0
    assert "error_type = ValueError" in err
    assert "symmetric preconditioner" in err
    assert out == ""
