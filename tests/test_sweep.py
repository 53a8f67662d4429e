"""Property sweep over random SPD graph matrices at the edges of the setup.

Graphs may be disconnected, the subdomain count runs up to one node per
subdomain and the overlap up to covering the whole graph.  Each example
checks the built operator against the dense oracle and every subdomain's
boundary-pencil selection against the full local pencil.  A sweep over
coefficient contrast checks that no subdomain loses its coarse columns.
A sweep over random nonsymmetric and structurally singular matrices checks
that each either converges with GMRES or raises one of the library's
errors, and that none writes to file descriptors 1 or 2.  A sweep over
random symmetric indefinite matrices checks that the defaults refuse them
and the explicit general options solve them, again without output.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from tlschwarz import (
    CoarseSetupError,
    ProblemSpec,
    SparseMat,
    SubdomainSetupError,
    build_harmonic,
    extract_local_blocks,
    generate,
    gmres,
    pcg,
    select_harmonic_modes,
    setup,
)

from conftest import dense_oracle, full_harmonic_pencil, interior_mask, random_spd
from test_precond import dense_apply
from test_sparsemat import fd_output

TAU = 0.1


@st.composite
def systems(draw):
    """(matrix, n_subdomains, overlap) with one random SPD block per component."""
    sizes = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**16))
    blocks = [random_spd(size, seed + k).scipy() for k, size in enumerate(sizes)]
    matrix = SparseMat(sp.block_diag(blocks, format="csr"))
    n = matrix.nrows
    # small overlaps leave boundary rings to select from; large ones cover the graph
    overlap = draw(st.one_of(st.integers(1, 2), st.integers(1, n)))
    return matrix, draw(st.integers(1, n)), overlap


@given(systems())
def test_operator_and_boundary_pencil(system):
    matrix, n_subdomains, overlap = system
    pre = setup(matrix, n_subdomains, overlap=overlap, tau=TAU)
    oracle = dense_oracle(pre)
    np.testing.assert_allclose(dense_apply(pre), oracle, rtol=0,
                               atol=1e-12 * np.abs(oracle).max())
    for smap in pre.maps:
        blocks = extract_local_blocks(matrix, smap, matrix.symmetric)
        ext = build_harmonic(blocks)
        basis = select_harmonic_modes(blocks, ext, TAU)
        _, selected = full_harmonic_pencil(blocks, interior_mask(smap), ext, TAU)
        assert basis.n_selected == selected.shape[1]
        if basis.n_selected:
            assert subspace_angles(basis.vectors, selected).max() < 1e-10


@pytest.mark.parametrize("channel_seed", [0, 1])
@pytest.mark.parametrize("contrast", [1e0, 1e2, 1e4, 1e6, 1e8])
def test_coefficient_contrast_keeps_local_columns(contrast, channel_seed):
    # the rank filter compares pivots against the largest of any subdomain,
    # so a low-coefficient subdomain must not lose its columns to that scale
    matrix, b = generate(ProblemSpec("hetero-diffusion2d", 20, contrast=contrast,
                                     channel_seed=channel_seed))
    for coarse in ("gevp", "full"):
        pre = setup(matrix, 16, overlap=2, tau=TAU, coarse=coarse)
        for count, smap in zip(pre.report.mode_counts, pre.maps):
            blocks = extract_local_blocks(matrix, smap, matrix.symmetric)
            ext = build_harmonic(blocks)
            if coarse == "gevp":
                basis = select_harmonic_modes(blocks, ext, TAU)
                assert count == basis.n_selected
            elif np.any(ext[: smap.interior.size]):
                assert count > 0
        _, report = pcg(matrix, pre, b, tol=1e-8)
        assert report.converged


@st.composite
def general_systems(draw, kind):
    """(matrix, n_subdomains, overlap) for a random B + shift I (``kind``
    "shifted"), the same with its rows permuted ("permuted": nonsingular, but
    a local block may be structurally singular) or with r of its rows (or
    columns) confined to r - 1 columns (rows) ("singular": no perfect
    matching; r = 1 empties a row or column)."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    b = sp.random(n, n, density=min(draw(st.floats(1.0, 6.0)) / n, 1.0), random_state=rng,
                  data_rvs=rng.standard_normal)
    dense = b.toarray() + draw(st.floats(0.1, 10.0)) * np.eye(n)
    if kind == "permuted":
        dense = dense[rng.permutation(n)]
    if kind != "singular":
        # a shift near an eigenvalue of -B leaves no float64 solve within tol
        assume(np.linalg.cond(dense) < 1e6)
    else:
        r = draw(st.integers(1, min(n, 3)))
        rows, cols = rng.choice(n, r, replace=False), rng.choice(n, r - 1, replace=False)
        dense[rows] = 0.0
        dense[np.ix_(rows, cols)] = rng.uniform(1.0, 2.0, (r, r - 1))
        if draw(st.booleans()):
            dense = dense.T
    # a few subdomains leave room for a coarse space; one per row is the edge case
    n_subdomains = draw(st.one_of(st.integers(2, max(2, n // 5)), st.integers(1, n)))
    return SparseMat.from_dense(dense), n_subdomains, draw(st.integers(1, 2))


@pytest.mark.parametrize("kind", ["shifted", "permuted", "singular"])
@settings(max_examples=20)
@given(data=st.data())
def test_general_matrix_converges_or_is_refused_quietly(kind, data):
    matrix, n_subdomains, overlap = data.draw(general_systems(kind))
    rhs = np.random.default_rng(matrix.nrows).standard_normal(matrix.nrows)

    def solve():
        try:
            pre = setup(matrix, n_subdomains, overlap=overlap)
        except (ValueError, SubdomainSetupError, CoarseSetupError) as exc:
            return exc
        return gmres(matrix, pre, rhs)

    result, written = fd_output(solve)
    assert written == b""
    if kind == "singular":
        assert isinstance(result, ValueError) and "structurally singular" in str(result)
    elif isinstance(result, Exception):
        assert isinstance(result, (SubdomainSetupError, CoarseSetupError)), result
    else:
        x, report = result
        assert report.converged
        assert np.linalg.norm(rhs - matrix.matvec(x)) <= 1e-7 * np.linalg.norm(rhs)


@st.composite
def indefinite_systems(draw):
    """(matrix, n_subdomains, overlap) for a random B + B^T + shift I with at
    least one negative eigenvalue and a condition number below 1e6."""
    n = draw(st.integers(10, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    b = sp.random(n, n, density=min(draw(st.floats(1.0, 6.0)) / n, 1.0), random_state=rng,
                  data_rvs=rng.standard_normal)
    dense = (b + b.T).toarray() + draw(st.floats(-3.0, 3.0)) * np.eye(n)
    eigenvalues = np.abs(np.linalg.eigvalsh(dense))
    assume(np.linalg.eigvalsh(dense)[0] < 0 and eigenvalues.max() < 1e6 * eigenvalues.min())
    n_subdomains = draw(st.one_of(st.integers(2, max(2, n // 5)), st.integers(1, n)))
    return SparseMat.from_dense(dense), n_subdomains, draw(st.integers(1, 2))


@settings(max_examples=20)
@given(indefinite_systems())
def test_symmetric_indefinite_matrix_needs_the_general_options(system):
    matrix, n_subdomains, overlap = system
    rhs = np.random.default_rng(matrix.nrows).standard_normal(matrix.nrows)

    def solve(**options):
        try:
            pre = setup(matrix, n_subdomains, overlap=overlap, **options)
        except (SubdomainSetupError, CoarseSetupError) as exc:
            return exc
        return gmres(matrix, pre, rhs)

    (defaults, general), written = fd_output(
        lambda: (solve(), solve(coarse="svd", one_level="ras", combine="deflated")))
    assert written == b""
    assert matrix.symmetric
    assert isinstance(defaults, (SubdomainSetupError, CoarseSetupError)), defaults
    if isinstance(general, Exception):  # an indefinite block can be numerically singular
        assert isinstance(general, (SubdomainSetupError, CoarseSetupError)), general
    else:
        x, report = general
        assert report.converged
        assert np.linalg.norm(rhs - matrix.matvec(x)) <= 1e-7 * np.linalg.norm(rhs)
