"""Property sweep over random SPD graph matrices at the edges of the setup.

Graphs may be disconnected, the subdomain count runs up to one node per
subdomain and the overlap up to covering the whole graph.  Each example
checks the built operator against the dense oracle and every subdomain's
boundary-pencil selection against the full local pencil.  A sweep over
coefficient contrast checks that no subdomain loses its coarse columns.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from tlschwarz import (
    ProblemSpec,
    SparseMat,
    build_harmonic,
    extract_local_blocks,
    generate,
    pcg,
    select_harmonic_modes,
    setup,
)

from conftest import dense_oracle, full_harmonic_pencil, interior_mask, random_spd
from test_precond import dense_apply

TAU = 0.1


@st.composite
def systems(draw):
    """(matrix, n_subdomains, overlap) with one random SPD block per component."""
    sizes = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**16))
    blocks = [random_spd(size, seed + k).scipy() for k, size in enumerate(sizes)]
    matrix = SparseMat(sp.block_diag(blocks, format="csr"), symmetric=True)
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
        blocks = extract_local_blocks(matrix, smap)
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
            blocks = extract_local_blocks(matrix, smap)
            ext = build_harmonic(blocks)
            if coarse == "gevp":
                basis = select_harmonic_modes(blocks, ext, TAU)
                assert count == basis.n_selected
            elif np.any(ext[: smap.interior.size]):
                assert count > 0
        _, report = pcg(matrix, pre, b, tol=1e-8)
        assert report.converged
