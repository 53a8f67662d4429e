"""Mutation check of the test suite: does it notice a wrong result?

Usage, from the root of a checkout:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 1 4      # mutants by number

Each mutant is a one-line change to ``src/`` that breaks one documented
behaviour.  For each, the checkout (without ``.git``) is copied to a
temporary directory, the change is applied there and ``python -m pytest
tests -x -q`` runs in the copy.  The script prints "caught" and the first
failing test when the suite fails, and "survived" when every test passes.
A mutant whose old text is no longer in its file reads "stale", so the table
cannot drift from the code unnoticed.  A mutant listed with a reason is
expected to survive: the reason says why no result any input can reach
changes.  The exit code is 1 when a mutant without a reason survives or
any is stale.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, what the mutant breaks, reason it may survive or None)
MUTANTS = [
    ("src/tlschwarz/spectral.py",
     "vals > threshold * (1.0 + TIE_GUARD)", "vals > threshold",
     "the tie guard: a value a rounding step above the threshold is selected", None),
    ("src/tlschwarz/krylov.py",
     "if it % 25 == 0:", "if False:",
     "PCG's replacement of the recursive residual by the true one", None),
    ("src/tlschwarz/harness.py",
     "return max(float(vals[0]), 1.0)", "return float(vals[0])",
     "lambda_star's clamp to 1",
     "eigsh can return below 1 only by round-off, and BoundInputs already refuses "
     "lambda* < 1 - 1e-12, so the clamp moves the bound by at most 1e-12 relative"),
    ("src/tlschwarz/sparsemat.py",
     "limit = sizes * np.finfo(float).eps", "limit = 1e6 * sizes * np.finfo(float).eps",
     "the nonsymmetric pivot limit, raised 10^6-fold", None),
    ("src/tlschwarz/sparsemat.py",
     "np.maximum.reduceat(np.abs(u.data, out=u.data),", "np.maximum.reduceat(u.data,",
     "the nonsymmetric pivot limit from U's column maxima taken without abs", None),
    ("src/tlschwarz/precond.py",
     "y[self.overlap_rows] = 0.0", "pass",
     "RAS's zeroing outside the interiors", None),
    ("src/tlschwarz/coarse.py",
     "a00 = 0.5 * (a00 + a00.T)", "a00 = a00",
     "the symmetrized coarse operator", None),
    ("src/tlschwarz/coarse.py",
     "DROP_TOL = 1e-10", "DROP_TOL = 1e-8",
     "the rank filter's drop tolerance", None),
    ("src/tlschwarz/harness.py",
     "(2 * kc + 1) * nu", "(2 * kc) * nu",
     "the bound's factor 2 k_c + 1", None),
    ("src/tlschwarz/spectral.py",
     "float(self.all_values[k])", "float(self.all_values[k - 1])",
     "the largest unselected value, read one place too early", None),
    ("src/tlschwarz/precond.py",
     "return qr_ + w - self.coarse_apply(self.matrix.matvec(w))", "return qr_ + w",
     "the deflated apply's last coarse correction", None),
    ("src/tlschwarz/sparsemat.py",
     "(csr != csr.T).nnz == 0", "(csr.astype(bool) != csr.T.astype(bool)).nnz == 0",
     "symmetry read from the sparsity pattern alone (advection2d's is symmetric)", None),
    ("src/tlschwarz/precond.py",
     'pencil = coarse in ("gevp", "full") or nu is not None and coarse != "none"',
     "pencil = symmetric",
     "every factor of a symmetric matrix tested for positive definiteness, whatever the method",
     None),
    ("src/tlschwarz/krylov.py",
     "invariant = hnext <= 1e-14 * np.linalg.norm(hess[: j + 2, j])",
     "invariant = hnext <= 1e-14 * bnorm",
     "GMRES's invariance test against the scale of b instead of the operator's", None),
    ("src/tlschwarz/harness.py",
     "    if config.matrix_path and config.kind:\n"
     '        raise ValueError("give a matrix file or a problem kind, not both")\n'
     "    if config.rhs_path and not config.matrix_path:\n"
     '        raise ValueError("a right-hand side file needs a matrix file")\n', "",
     "the refusal of a mixed problem source (part of it would be ignored)", None),
    ("src/tlschwarz/subdomain.py",
     "GENERAL_OPTIONS_HINT = (", 'GENERAL_OPTIONS_HINT = "" and (',
     "the general options named in a positive definiteness refusal", None),
    ("src/tlschwarz/coarse.py",
     "return DenseFactor(u), 0 if info else None", "return DenseFactor(u), None",
     "the dense Cholesky's positive definiteness test, potrf's info", None),
    ("src/tlschwarz/coarse.py",
     "0 if info or (np.abs(lu.diagonal()) <= limit).any() else None", "0 if info else None",
     "the dense LU's pivot limit n * eps * max|U|", None),
    ("src/tlschwarz/coarse.py",
     "trsv(f, trsv(f, b, trans=1), lower=1, trans=1, diag=1, overwrite_x=1)",
     "trsv(f, trsv(f, b, lower=1, trans=1, diag=1), trans=1, overwrite_x=1)",
     "the dense LU's transposed solve, its two triangles swapped", None),
    ("src/tlschwarz/harness.py",
     "if config.matrix_path and (config.m, config.seed) != (None, None):", "if False:",
     "the refusal of a grid size or seed beside a matrix file (both would be ignored)", None),
    ("src/tlschwarz/krylov.py",
     "    if n > DENSE_CUTOFF:\n"
     '        raise ValueError(f"{n} rows exceed DENSE_CUTOFF = {DENSE_CUTOFF}; a PCG report\'s "\n'
     '                         "cond_estimate estimates the condition number from below")\n', "",
     "estimate_condition's refusal above DENSE_CUTOFF (it would build an n x n dense matrix)",
     None),
    ("src/tlschwarz/harness.py",
     "if _bound_covers(precond) and matrix.nrows <= krylov.DENSE_CUTOFF:",
     "if _bound_covers(precond):",
     "run_experiment's size gate on the bound verdict", None),
    ("src/tlschwarz/spectral.py",
     'require a symmetric block")\n    if not threshold > 0.0:',
     'require a symmetric block")\n    if threshold <= 0.0:',
     "the harmonic pencil's threshold test, which a NaN threshold passes", None),
    ("src/tlschwarz/precond.py",
     "        if np.shape(r) != (self.n,):\n"
     '            raise ValueError(f"dimension mismatch: matrix is {self.matrix.shape}, "\n'
     '                             f"vector has shape {np.shape(r)}")\n', "",
     "the one-level apply's shape check", None),
]


def run_mutant(path, old, new):
    """'caught' with the first failing test, 'survived' or 'stale', and the seconds taken."""
    source = (ROOT / path).read_text()
    if source.count(old) != 1:
        return "stale", "", 0.0
    with tempfile.TemporaryDirectory(prefix="tlschwarz-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))
        (copy / path).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests", "-x", "-q", "-o", "addopts=",
             "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        return "survived", "", seconds
    failed = next((line for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), proc.stdout.strip()[-200:])
    return "caught", failed, seconds


def main(argv):
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    bad = False
    for number in chosen:
        path, old, new, breaks, reason = MUTANTS[number - 1]
        verdict, detail, seconds = run_mutant(path, old, new)
        print(f"{number:2d} {verdict:8s} {seconds:5.1f} s  {path}: {breaks}")
        if detail:
            print(f"   {detail}")
        if verdict == "survived" and reason:
            print(f"   expected: {reason}")
        bad |= verdict == "stale" or (verdict == "survived" and not reason)
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
