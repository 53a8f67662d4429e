import numpy as np

from tlschwarz import ProblemSpec, generate, save_matrix_market, write_vector
from tlschwarz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
