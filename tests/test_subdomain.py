import numpy as np
import pytest
import scipy.sparse as sp

from tlschwarz import (
    LocalBlocks,
    Partition,
    SparseMat,
    SubdomainMap,
    SubdomainSetupError,
    build_harmonic,
    extend_overlap,
    extract_local_blocks,
    select_pou_modes,
    symmetrized_graph,
)
from tlschwarz.sparsemat import DENSE_GUARD

from conftest import laplace1d, random_partition, random_spd


def spsd_splitting(blocks, extension):
    """Positive-semidefinite local splitting of a symmetric block: the test
    oracle for the harmonic extension (criteria 1 and 3).

    Computed as (I - P)^T A (I - P) with P the projection that applies
    ``extension`` to the boundary-ring part, which stays well defined even
    with a single overlap layer.  The result agrees with the explicit
    Schur-complement construction whenever there are at least two layers,
    and reduces to the block itself when the boundary ring is empty.
    """
    if not blocks.spd:
        raise ValueError("positive-semidefinite splitting requires a symmetric block")
    if blocks.n_boundary == 0:
        return blocks.a.toarray()
    e = np.eye(blocks.n_local)
    e[:, blocks.n_inner:] -= extension
    tilde = e.T @ blocks.a.toarray() @ e
    tilde = 0.5 * (tilde + tilde.T)
    if not np.all(np.isfinite(tilde)):
        raise ValueError(f"subdomain {blocks.subdomain}: splitting produced non-finite values")
    return tilde


def make_map(interior, layers, n_global):
    return SubdomainMap(
        index=0,
        n_global=n_global,
        interior=np.asarray(interior, dtype=np.int64),
        layers=tuple(np.asarray(l, dtype=np.int64) for l in layers),
    )


def fixture_1d3():
    """Tridiagonal (-1, 2, -1) on three nodes, interior {0, 1}, ring {2}."""
    mat = laplace1d(3)
    smap = make_map([0, 1], [[2]], 3)
    blocks = extract_local_blocks(mat, smap, mat.symmetric)
    return blocks, build_harmonic(blocks)


class TestLocalBlocks:
    def test_banded7_first_subdomain_rows(self, banded7):
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        maps = extend_overlap(g, part, 1)
        blocks = extract_local_blocks(banded7, maps[0], banded7.symmetric)
        np.testing.assert_array_equal(blocks.a.toarray()[0], [1, 2, 0, 0])
        assert blocks.n_interior == 3
        assert blocks.layer_sizes == (1,)
        assert blocks.n_boundary == 1
        assert blocks.n_inner == 3

    def test_local_ordering_matches_indices(self):
        mat = random_spd(30, seed=3)
        maps = extend_overlap(symmetrized_graph(mat), random_partition(30, 3, seed=4), 2)
        dense = mat.to_dense()
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            np.testing.assert_array_equal(blocks.a.toarray(),
                                          dense[np.ix_(smap.indices, smap.indices)])

    def test_pou_weights_are_the_interior_mask(self):
        mat = random_spd(30, seed=3)
        maps = extend_overlap(symmetrized_graph(mat), random_partition(30, 3, seed=4), 2)
        for smap in maps:
            weights = extract_local_blocks(mat, smap, mat.symmetric).pou_weights
            assert weights.dtype == np.float64
            np.testing.assert_array_equal(weights, np.isin(smap.indices, smap.interior))

    def test_spd_flag_propagates(self):
        mat = random_spd(12, seed=5)
        smap = make_map(np.arange(12), [], 12)
        assert extract_local_blocks(mat, smap, True).spd
        assert not extract_local_blocks(mat, smap, False).spd

    def test_dense_copy_refused_above_guard(self):
        n = DENSE_GUARD + 1
        mat = SparseMat(sp.identity(n, format="csr"))
        smap = SubdomainMap(index=7, n_global=n, interior=np.arange(n), layers=())
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        assert sp.issparse(blocks.a) and blocks.n_local == n
        message = f"subdomain 7 has {n} nodes; dense guard is {DENSE_GUARD}"
        with pytest.raises(ValueError, match=message):
            select_pou_modes(blocks, 2.0)


class TestHarmonicExtension:
    def test_1d_fixture_extension_column(self):
        blocks, ext = fixture_1d3()
        np.testing.assert_allclose(ext[:, 0], [1 / 3, 2 / 3, 1], atol=1e-14)
        v = np.array([9.0, 9.0, 1.0])
        np.testing.assert_allclose(ext @ v[blocks.n_inner:], [1 / 3, 2 / 3, 1])

    def test_is_projection(self):
        mat = random_spd(50, seed=7)
        maps = extend_overlap(symmetrized_graph(mat), random_partition(50, 4, seed=8), 2)
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            ext = build_harmonic(blocks)
            pi = np.zeros((blocks.n_local, blocks.n_local))
            pi[:, blocks.n_inner:] = ext
            np.testing.assert_allclose(pi @ pi, pi, atol=1e-10)

    def test_complement_is_a_orthogonal(self):
        # (I - P)^T A P = 0 whenever the inner block is solved exactly
        mat = random_spd(60, seed=9)
        for delta in (1, 2, 3):
            maps = extend_overlap(symmetrized_graph(mat), random_partition(60, 4, seed=10), delta)
            for smap in maps:
                blocks = extract_local_blocks(mat, smap, mat.symmetric)
                ext = build_harmonic(blocks)
                pi = np.zeros((blocks.n_local, blocks.n_local))
                pi[:, blocks.n_inner:] = ext
                a = blocks.a.toarray()
                resid = (np.eye(blocks.n_local) - pi).T @ a @ pi
                assert np.abs(resid).max() < 1e-8 * np.abs(a).max()

    def test_interior_rows_annihilated(self):
        # A (ext v) vanishes on the inner nodes: the extension is discrete-harmonic
        blocks, ext = fixture_1d3()
        out = blocks.a.toarray() @ ext
        np.testing.assert_allclose(out[: blocks.n_inner], 0, atol=1e-14)

    def test_empty_boundary(self):
        mat = laplace1d(4)
        smap = make_map(np.arange(4), [np.array([], dtype=np.int64)], 4)
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        ext = build_harmonic(blocks)
        assert ext.shape == (4, 0)
        np.testing.assert_array_equal(ext @ np.ones(4)[blocks.n_inner:], np.zeros(4))

    @pytest.mark.parametrize("a, spd", [
        ([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 3.0]], True),  # indefinite inner block
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], False),  # singular inner block
    ])
    def test_failing_inner_block_names_subdomain(self, a, spd):
        blocks = LocalBlocks(subdomain=3, a=sp.csr_matrix(a), n_interior=2, layer_sizes=(1,),
                             spd=spd)
        with pytest.raises(SubdomainSetupError, match="subdomain 3") as info:
            build_harmonic(blocks)
        assert info.value.subdomain == 3


class TestSplitting:
    def test_1d_fixture_frozen_values(self):
        blocks, ext = fixture_1d3()
        tilde = spsd_splitting(blocks, ext)
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0 / 3.0]])
        np.testing.assert_allclose(tilde, expected, atol=1e-14)

    def test_difference_and_remainder_are_psd(self):
        mat = random_spd(50, seed=11)
        for delta in (1, 2, 3):
            maps = extend_overlap(symmetrized_graph(mat), random_partition(50, 4, seed=12), delta)
            for smap in maps:
                blocks = extract_local_blocks(mat, smap, mat.symmetric)
                tilde = spsd_splitting(blocks, build_harmonic(blocks))
                a = blocks.a.toarray()
                scale = np.abs(a).max()
                assert np.linalg.eigvalsh(tilde).min() > -1e-10 * scale
                assert np.linalg.eigvalsh(a - tilde).min() > -1e-10 * scale

    def test_matches_schur_construction_with_two_layers(self):
        # with >= 2 layers the splitting equals replacing the outermost
        # diagonal block by the Schur complement onto the next layer in
        mat = random_spd(60, seed=13)
        maps = extend_overlap(symmetrized_graph(mat), random_partition(60, 3, seed=14), 2)
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            if blocks.n_boundary == 0 or blocks.layer_sizes[0] == 0:
                continue
            tilde = spsd_splitting(blocks, build_harmonic(blocks))
            ni = blocks.n_inner
            a = blocks.a.toarray()
            # Schur complement of the strict-inner block inside the inner block
            strict = ni - blocks.layer_sizes[-2] if len(blocks.layer_sizes) >= 2 else 0
            inner = a[:ni, :ni]
            keep = np.arange(strict, ni)
            drop = np.arange(strict)
            s = inner[np.ix_(keep, keep)] - inner[np.ix_(keep, drop)] @ np.linalg.solve(
                inner[np.ix_(drop, drop)], inner[np.ix_(drop, keep)]
            )
            expected = a.copy()
            expected[ni:, ni:] = (
                a[ni:, strict:ni] @ np.linalg.solve(s, a[strict:ni, ni:])
            )
            expected[ni:, ni:] = 0.5 * (expected[ni:, ni:] + expected[ni:, ni:].T)
            np.testing.assert_allclose(tilde[ni:, ni:], expected[ni:, ni:], atol=1e-8)
            np.testing.assert_allclose(tilde[:ni, :ni], a[:ni, :ni], atol=1e-12)
            np.testing.assert_allclose(tilde[:ni, ni:], a[:ni, ni:], atol=1e-12)

    def test_no_boundary_returns_block(self):
        mat = laplace1d(5)
        smap = make_map(np.arange(5), [], 5)
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        tilde = spsd_splitting(blocks, build_harmonic(blocks))
        np.testing.assert_array_equal(tilde, blocks.a.toarray())

    def test_rejects_nonsymmetric(self):
        rng = np.random.default_rng(1)
        from tlschwarz import SparseMat

        dense = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        mat = SparseMat.from_dense(dense)
        smap = make_map(np.arange(4), [[4], [5]], 6)
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        with pytest.raises(ValueError, match="symmetric"):
            spsd_splitting(blocks, build_harmonic(blocks))
