import io

import numpy as np
import pytest
import scipy.sparse as sp

from tlschwarz import (
    CoarseSpace,
    Partition,
    SparseMat,
    assemble_coarse_basis,
    boolean_pou,
    build_harmonic,
    extend_overlap,
    extract_local_blocks,
    galerkin_coarse,
    rank_filter,
    read_matrix_market,
    select_harmonic_modes,
    subdomain_coarse_columns,
    svd_harmonic_modes,
    symmetrized_graph,
    write_matrix_market,
)

from conftest import random_partition, random_spd


def pipeline(mat, part, delta, tau=0.1, variant="shrunk"):
    g = symmetrized_graph(mat)
    maps = extend_overlap(g, part, delta)
    column_blocks = []
    for smap in maps:
        blocks = extract_local_blocks(mat, smap)
        factor = build_harmonic(blocks)
        if variant == "full":
            basis = None
        elif variant == "svd":
            basis = svd_harmonic_modes(blocks, boolean_pou(smap), factor, tau)
        else:
            basis = select_harmonic_modes(blocks, boolean_pou(smap), factor, tau)
        column_blocks.append(
            subdomain_coarse_columns(smap, blocks, factor, variant, harmonic_basis=basis)
        )
    return maps, column_blocks, assemble_coarse_basis(maps, column_blocks, mat.nrows)


class TestColumns:
    def test_full_variant_matches_dense_solve(self, banded7):
        # one column per boundary-ring node: interior part is minus the inner
        # solve of the coupling, the ring part is masked to zero
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        maps = extend_overlap(g, part, 1)
        smap = maps[0]
        blocks = extract_local_blocks(banded7, smap)
        factor = build_harmonic(blocks)
        cols = subdomain_coarse_columns(smap, blocks, factor, "full")
        ni = blocks.n_inner
        expected_top = -np.linalg.solve(blocks.a[:ni, :ni], blocks.a[:ni, ni:])
        np.testing.assert_allclose(cols[:ni], expected_top, atol=1e-12)
        np.testing.assert_array_equal(cols[ni:], 0.0)

    def test_shrunk_lifts_selected_modes(self):
        mat = random_spd(40, seed=8)
        part = random_partition(40, 3, seed=9)
        maps = extend_overlap(symmetrized_graph(mat), part, 2)
        smap = maps[0]
        blocks = extract_local_blocks(mat, smap)
        factor = build_harmonic(blocks)
        basis = select_harmonic_modes(blocks, boolean_pou(smap), factor, 0.05)
        cols = subdomain_coarse_columns(smap, blocks, factor, "shrunk", harmonic_basis=basis)
        assert cols.shape == (smap.n_local, basis.n_selected)
        d = smap.pou_mask.astype(float)[:, None]
        expected = (factor.extension @ basis.vectors[blocks.n_inner:, :]) * d
        np.testing.assert_allclose(cols, expected, atol=1e-13)

    def test_unknown_variant(self, banded7):
        g = symmetrized_graph(banded7)
        maps = extend_overlap(g, Partition(2, np.array([0, 0, 0, 1, 1, 1, 1])), 1)
        blocks = extract_local_blocks(banded7, maps[0])
        factor = build_harmonic(blocks)
        with pytest.raises(ValueError, match="variant"):
            subdomain_coarse_columns(maps[0], blocks, factor, "banana")
        with pytest.raises(ValueError):
            subdomain_coarse_columns(maps[0], blocks, factor, "shrunk")


class TestAssembly:
    def test_scatter_and_ranges(self):
        mat = random_spd(50, seed=10)
        part = random_partition(50, 4, seed=11)
        maps, column_blocks, space = pipeline(mat, part, 2, variant="full")
        dense = space.basis.to_dense()
        k = 0
        for smap, block in zip(maps, column_blocks):
            start, end = space.ranges[smap.index]
            for j in range(block.shape[1]):
                if not np.any(block[:, j]):
                    continue
                full = np.zeros(50)
                full[smap.indices] = block[:, j]
                np.testing.assert_array_equal(dense[:, k], full)
                k += 1
            assert (start <= k <= end) or end == k
        assert k == space.n_coarse

    def test_zero_columns_dropped(self):
        mat = random_spd(20, seed=12)
        part = random_partition(20, 2, seed=13)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [np.zeros((m.n_local, 2)) for m in maps]
        blocks[0][:, 1] = 1.0  # one real column among zeros
        space = assemble_coarse_basis(maps, blocks, 20)
        assert space.n_coarse == 1
        assert space.ranges == ((0, 1), (1, 1))

    def test_disjoint_supports_across_subdomains(self):
        mat = random_spd(60, seed=14)
        part = random_partition(60, 5, seed=15)
        _, _, space = pipeline(mat, part, 2, variant="shrunk")
        dense = space.basis.to_dense()
        for i, (s0, e0) in enumerate(space.ranges):
            for j, (s1, e1) in enumerate(space.ranges):
                if i < j and e0 > s0 and e1 > s1:
                    prod = dense[:, s0:e0].T @ dense[:, s1:e1]
                    assert np.abs(prod).max() == 0.0

    def test_restrict_prolong_roundtrip(self):
        mat = random_spd(30, seed=16)
        part = random_partition(30, 3, seed=17)
        _, _, space = pipeline(mat, part, 1, variant="full")
        rng = np.random.default_rng(0)
        r = rng.standard_normal(30)
        dense = space.basis.to_dense()
        np.testing.assert_allclose(space.restrict(r), dense.T @ r, atol=1e-12)
        y = rng.standard_normal(space.n_coarse)
        np.testing.assert_allclose(space.prolong(y), dense @ y, atol=1e-12)

    def test_basis_survives_matrix_market(self, tmp_path):
        mat = random_spd(25, seed=18)
        part = random_partition(25, 2, seed=19)
        _, _, space = pipeline(mat, part, 2, variant="svd")
        text = write_matrix_market(space.basis)
        again = read_matrix_market(text)
        np.testing.assert_array_equal(again.to_dense(), space.basis.to_dense())


def orthonormal_blocks(maps, per_subdomain, seed):
    """Exactly independent local columns so the filter's work is predictable."""
    rng = np.random.default_rng(seed)
    blocks = []
    for smap in maps:
        k = min(per_subdomain, smap.n_local)
        q, _ = np.linalg.qr(rng.standard_normal((smap.n_local, k)))
        blocks.append(q)
    return blocks


class TestRankFilter:
    def test_duplicate_column_removed(self):
        mat = random_spd(30, seed=20)
        part = random_partition(30, 2, seed=21)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [np.hstack([b, b[:, :1]]) for b in orthonormal_blocks(maps, 3, seed=1)]
        space = assemble_coarse_basis(maps, blocks, 30)
        filtered = rank_filter(space, maps)
        assert filtered.n_coarse == space.n_coarse - len(maps)
        # surviving columns keep their original values
        before = space.basis.to_dense()
        after = filtered.basis.to_dense()
        for j in range(after.shape[1]):
            assert any(np.array_equal(after[:, j], before[:, i]) for i in range(before.shape[1]))

    def test_near_parallel_column_removed(self):
        mat = random_spd(30, seed=22)
        part = random_partition(30, 2, seed=23)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [
            np.hstack([b, b[:, :1] * (1 + 1e-14)])
            for b in orthonormal_blocks(maps, 3, seed=2)
        ]
        space = assemble_coarse_basis(maps, blocks, 30)
        filtered = rank_filter(space, maps, drop_tol=1e-10)
        assert filtered.n_coarse == space.n_coarse - len(maps)

    def test_independent_columns_untouched(self):
        mat = random_spd(40, seed=24)
        part = random_partition(40, 3, seed=25)
        maps = extend_overlap(symmetrized_graph(mat), part, 2)
        space = assemble_coarse_basis(maps, orthonormal_blocks(maps, 4, seed=3), 40)
        filtered = rank_filter(space, maps)
        assert filtered is space

    def test_all_columns_dropped_warns_and_disables(self):
        # a threshold above one rejects even the largest pivot
        mat = random_spd(20, seed=26)
        part = random_partition(20, 2, seed=27)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        space = assemble_coarse_basis(maps, orthonormal_blocks(maps, 2, seed=4), 20)
        with pytest.warns(UserWarning, match="coarse level disabled"):
            filtered = rank_filter(space, maps, drop_tol=1.0 + 1e-6)
        assert filtered.n_coarse == 0
        assert all(r == (0, 0) for r in filtered.ranges)

    def test_ranges_recomputed(self):
        mat = random_spd(30, seed=28)
        part = random_partition(30, 3, seed=29)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [np.hstack([b, b]) for b in orthonormal_blocks(maps, 3, seed=5)]
        space = assemble_coarse_basis(maps, blocks, 30)
        filtered = rank_filter(space, maps)
        counts = filtered.column_counts()
        original = [b.shape[1] // 2 for b in blocks]
        assert list(counts) == original
        assert filtered.ranges[0][0] == 0
        for (s0, e0), (s1, e1) in zip(filtered.ranges, filtered.ranges[1:]):
            assert e0 == s1


class TestGalerkin:
    def test_matches_dense_triple_product(self):
        mat = random_spd(40, seed=30)
        part = random_partition(40, 3, seed=31)
        _, _, space = pipeline(mat, part, 2, variant="full")
        space = galerkin_coarse(mat, space)
        dense_b = space.basis.to_dense()
        expected = dense_b.T @ mat.to_dense() @ dense_b
        np.testing.assert_allclose(space.a00.toarray(), expected, atol=1e-10)
        assert space.nnz_a00 == np.count_nonzero(expected)

    def test_solve_inverts_operator(self):
        mat = random_spd(35, seed=32)
        part = random_partition(35, 3, seed=33)
        _, _, space = pipeline(mat, part, 1, variant="shrunk")
        space = galerkin_coarse(mat, space)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(space.n_coarse)
        y = space.solve_coarse(rhs)
        np.testing.assert_allclose(space.a00 @ y, rhs, atol=1e-9)

    def test_unfactored_solve_raises(self):
        mat = random_spd(20, seed=34)
        part = random_partition(20, 2, seed=35)
        _, _, space = pipeline(mat, part, 1, variant="full")
        with pytest.raises(RuntimeError, match="not factored"):
            space.solve_coarse(np.zeros(space.n_coarse))

    def test_spd_coarse_operator(self):
        mat = random_spd(45, seed=36)
        part = random_partition(45, 4, seed=37)
        maps, _, space = pipeline(mat, part, 2, variant="full")
        space = rank_filter(space, maps)
        space = galerkin_coarse(mat, space)
        a00 = space.a00.toarray()
        np.testing.assert_allclose(a00, a00.T, atol=1e-12)
        assert np.linalg.eigvalsh(a00).min() > 0

    @pytest.mark.parametrize("dense", [
        np.diag([1.0, -1.0, 2.0]),  # negative pivot
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # zero diagonal
    ])
    def test_indefinite_symmetric_coarse_operator_raises(self, dense):
        mat = SparseMat.from_dense(dense, symmetric=True)
        space = CoarseSpace(SparseMat(sp.identity(3, format="csr")), ((0, 3),))
        with pytest.raises(RuntimeError, match="not positive definite"):
            galerkin_coarse(mat, space)

    @pytest.mark.parametrize("last", [2.0, 2.0 + 2.0 ** -51])  # exactly, numerically
    def test_singular_nonsymmetric_coarse_operator_raises(self, last):
        mat = SparseMat.from_dense([[1.0, 2.0], [1.0, last]])
        space = CoarseSpace(SparseMat(sp.identity(2, format="csr")), ((0, 2),))
        with pytest.raises(RuntimeError, match="numerically singular"):
            galerkin_coarse(mat, space)

    def test_empty_coarse_passthrough(self):
        mat = random_spd(20, seed=38)
        part = random_partition(20, 2, seed=39)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        space = assemble_coarse_basis(maps, [np.zeros((m.n_local, 0)) for m in maps], 20)
        assert galerkin_coarse(mat, space) is space
