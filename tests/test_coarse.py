import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import qr

from tlschwarz import (
    Partition,
    ProblemSpec,
    SparseMat,
    assemble_coarse_basis,
    build_harmonic,
    extend_overlap,
    extract_local_blocks,
    galerkin_coarse,
    generate,
    read_matrix_market,
    select_harmonic_modes,
    setup,
    subdomain_coarse_columns,
    svd_harmonic_modes,
    symmetrized_graph,
    write_matrix_market,
)
from tlschwarz import coarse
from tlschwarz.coarse import DROP_TOL

from conftest import random_partition, random_spd


def pipeline(mat, part, delta, tau=0.1, coarse="gevp"):
    g = symmetrized_graph(mat)
    maps = extend_overlap(g, part, delta)
    column_blocks = []
    for smap in maps:
        blocks = extract_local_blocks(mat, smap)
        ext = build_harmonic(blocks)
        if coarse == "full":
            vectors = ext
        elif coarse == "svd":
            vectors = svd_harmonic_modes(blocks, ext, tau).vectors
        else:
            vectors = select_harmonic_modes(blocks, ext, tau).vectors
        column_blocks.append(subdomain_coarse_columns(smap, vectors))
    return maps, column_blocks, assemble_coarse_basis(maps, column_blocks, mat.nrows)


def scatter(maps, column_blocks, n_global):
    """Every offered column, unfiltered, as a dense global matrix."""
    cols = []
    for smap, block in zip(maps, column_blocks):
        full = np.zeros((n_global, block.shape[1]))
        full[smap.indices] = block
        cols.append(full)
    return np.hstack(cols)


def column_ranges(counts):
    """Each subdomain's (start, end) slice of the coarse columns."""
    ends = np.cumsum(counts)
    return list(zip(ends - counts, ends))


def whole_graph_basis(mat):
    """Coarse basis spanning every unknown, from one subdomain's identity block."""
    maps = extend_overlap(symmetrized_graph(mat), Partition(1, np.zeros(mat.nrows, int)), 1)
    z, _ = assemble_coarse_basis(maps, [np.eye(mat.nrows)], mat.nrows)
    return z


class TestColumns:
    def test_full_variant_matches_dense_solve(self, banded7):
        # one column per boundary-ring node: interior part is minus the inner
        # solve of the coupling, the ring part is masked to zero
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        maps = extend_overlap(g, part, 1)
        smap = maps[0]
        blocks = extract_local_blocks(banded7, smap)
        cols = subdomain_coarse_columns(smap, build_harmonic(blocks))
        ni = blocks.n_inner
        expected_top = -np.linalg.solve(blocks.dense[:ni, :ni], blocks.dense[:ni, ni:])
        np.testing.assert_allclose(cols[:ni], expected_top, atol=1e-12)
        np.testing.assert_array_equal(cols[ni:], 0.0)

    def test_shrunk_lifts_selected_modes(self):
        mat = random_spd(40, seed=8)
        part = random_partition(40, 3, seed=9)
        maps = extend_overlap(symmetrized_graph(mat), part, 2)
        smap = maps[0]
        blocks = extract_local_blocks(mat, smap)
        ext = build_harmonic(blocks)
        basis = select_harmonic_modes(blocks, ext, 0.05)
        cols = subdomain_coarse_columns(smap, basis.vectors)
        assert cols.shape == (smap.n_local, basis.n_selected)
        d = smap.pou_mask.astype(float)[:, None]
        expected = (ext @ basis.vectors[blocks.n_inner:, :]) * d
        np.testing.assert_allclose(cols, expected, atol=1e-13)


class TestAssembly:
    def test_scatter_and_ranges(self):
        mat = random_spd(50, seed=10)
        part = random_partition(50, 4, seed=11)
        # selected modes are independent, so the rank filter keeps them all
        maps, column_blocks, (z, counts) = pipeline(mat, part, 2, coarse="gevp")
        dense = z.toarray()
        ranges = column_ranges(counts)
        k = 0
        for smap, block in zip(maps, column_blocks):
            start, end = ranges[smap.index]
            for j in range(block.shape[1]):
                if not np.any(block[:, j]):
                    continue
                full = np.zeros(50)
                full[smap.indices] = block[:, j]
                np.testing.assert_array_equal(dense[:, k], full)
                k += 1
            assert (start <= k <= end) or end == k
        assert k == z.shape[1]

    def test_zero_columns_dropped(self):
        mat = random_spd(20, seed=12)
        part = random_partition(20, 2, seed=13)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [np.zeros((m.n_local, 2)) for m in maps]
        blocks[0][:, 1] = 1.0  # one real column among zeros
        z, counts = assemble_coarse_basis(maps, blocks, 20)
        assert z.shape[1] == 1
        assert column_ranges(counts) == [(0, 1), (1, 1)]

    def test_disjoint_supports_across_subdomains(self):
        mat = random_spd(60, seed=14)
        part = random_partition(60, 5, seed=15)
        _, _, (z, counts) = pipeline(mat, part, 2, coarse="gevp")
        dense = z.toarray()
        ranges = column_ranges(counts)
        for i, (s0, e0) in enumerate(ranges):
            for j, (s1, e1) in enumerate(ranges):
                if i < j and e0 > s0 and e1 > s1:
                    prod = dense[:, s0:e0].T @ dense[:, s1:e1]
                    assert np.abs(prod).max() == 0.0

    def test_basis_survives_matrix_market(self, tmp_path):
        mat = random_spd(25, seed=18)
        part = random_partition(25, 2, seed=19)
        _, _, (z, _) = pipeline(mat, part, 2, coarse="svd")
        text = write_matrix_market(SparseMat(z))
        again = read_matrix_market(text)
        np.testing.assert_array_equal(again.to_dense(), z.toarray())


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
        z, _ = assemble_coarse_basis(maps, blocks, 30)
        before = scatter(maps, blocks, 30)
        assert z.shape[1] == before.shape[1] - len(maps)
        # surviving columns keep their original values
        after = z.toarray()
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
        z, _ = assemble_coarse_basis(maps, blocks, 30)
        assert z.shape[1] == sum(b.shape[1] for b in blocks) - len(maps)

    def test_independent_columns_untouched(self):
        mat = random_spd(40, seed=24)
        part = random_partition(40, 3, seed=25)
        maps = extend_overlap(symmetrized_graph(mat), part, 2)
        blocks = orthonormal_blocks(maps, 4, seed=3)
        z, _ = assemble_coarse_basis(maps, blocks, 40)
        # every offered column survives, with its values
        np.testing.assert_array_equal(z.toarray(), scatter(maps, blocks, 40))

    def test_ranges_recomputed(self):
        mat = random_spd(30, seed=28)
        part = random_partition(30, 3, seed=29)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [np.hstack([b, b]) for b in orthonormal_blocks(maps, 3, seed=5)]
        z, counts = assemble_coarse_basis(maps, blocks, 30)
        original = [b.shape[1] // 2 for b in blocks]
        assert list(counts) == original
        assert column_ranges(counts)[-1][1] == z.shape[1]


def reference_assembly(maps, column_blocks, n_global):
    """Oracle for ``assemble_coarse_basis``: the same rank filter, then each
    subdomain's kept columns as rows of ``kept.T``, one CSC matrix and one
    ``tocsr()``."""
    offered, pivots = [], []
    for block in column_blocks:
        nonzero = np.flatnonzero(np.any(block, axis=0))
        mag = np.zeros(nonzero.size)
        if nonzero.size:
            r, perm = qr(block[:, nonzero], mode="r", pivoting=True)
            rdiag = np.abs(np.diag(r))
            mag[perm[:rdiag.size]] = rdiag
        offered.append(nonzero)
        pivots.append(mag)
    largest = max((mag.max(initial=0.0) for mag in pivots), default=0.0)
    data, rows, col_nnz, counts = [], [], [], []
    for smap, block, nonzero, mag in zip(maps, column_blocks, offered, pivots):
        kept = block[:, nonzero[(mag > 0) & (mag >= DROP_TOL * largest)]].T
        stored = kept != 0
        data.append(kept[stored])
        rows.append(smap.indices[np.nonzero(stored)[1]])
        col_nnz.append(np.count_nonzero(stored, axis=1))
        counts.append(kept.shape[0])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(col_nnz))])
    z = sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr),
                      shape=(n_global, sum(counts)))
    return z.tocsr(), tuple(counts)


def assert_same_assembly(maps, column_blocks, n_global):
    z, counts = assemble_coarse_basis(maps, column_blocks, n_global)
    ref, ref_counts = reference_assembly(maps, column_blocks, n_global)
    assert counts == ref_counts
    assert z.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(z, name), getattr(ref, name), err_msg=name)


def setup_column_blocks(monkeypatch, kind, m, n_subdomains, **kwargs):
    """The subdomains and column blocks that ``setup`` hands to the assembly."""
    seen = []
    real = coarse.assemble_coarse_basis

    def record(maps, column_blocks, n_global):
        seen.append((maps, list(column_blocks), n_global))
        return real(*seen[-1])

    monkeypatch.setattr(coarse, "assemble_coarse_basis", record)
    setup(generate(ProblemSpec(kind, m))[0], n_subdomains, **kwargs)
    (args,) = seen
    return args


@st.composite
def offered_columns(draw):
    """Subdomains with overlap (rows shared between subdomains) and column
    blocks with entries off the interior, exact zeros, zero columns and
    duplicate or near-parallel columns."""
    n = draw(st.integers(4, 30))
    n_subdomains = draw(st.integers(1, min(n, 4)))
    seed = draw(st.integers(0, 2**16))
    maps = extend_overlap(symmetrized_graph(random_spd(n, seed)),
                          random_partition(n, n_subdomains, seed), draw(st.integers(1, 2)))
    rng = np.random.default_rng(seed)
    blocks = []
    for smap in maps:
        block = rng.standard_normal((smap.n_local, draw(st.integers(0, 5))))
        block[rng.random(block.shape) < draw(st.floats(0, 0.9))] = 0.0
        if block.shape[1] and draw(st.booleans()):
            block[:, rng.integers(block.shape[1])] = 0.0
        if block.shape[1]:
            copies = block[:, rng.integers(block.shape[1], size=draw(st.integers(0, 2)))]
            scale = draw(st.sampled_from([1.0, 1 + 1e-14, -3.0]))
            block = np.hstack([block, copies * scale])
        blocks.append(block)
    return maps, blocks, n


class TestAssemblyMatchesReference:
    @pytest.mark.parametrize("kind, m, n_subdomains, kwargs", [
        ("poisson2d", 40, 16, dict(coarse="gevp")),
        ("advection2d", 30, 4, dict(coarse="svd")),
        ("poisson2d", 12, 4, dict(coarse="full", nu=1.5)),
    ])
    def test_setup_blocks(self, monkeypatch, kind, m, n_subdomains, kwargs):
        assert_same_assembly(*setup_column_blocks(monkeypatch, kind, m, n_subdomains, **kwargs))

    @given(offered_columns())
    def test_sweep(self, case):
        assert_same_assembly(*case)


class TestGalerkin:
    def test_matches_dense_triple_product(self):
        mat = random_spd(40, seed=30)
        part = random_partition(40, 3, seed=31)
        _, _, (z, _) = pipeline(mat, part, 2, coarse="full")
        space = galerkin_coarse(mat, z)
        dense_b = space.basis.toarray()
        expected = dense_b.T @ mat.to_dense() @ dense_b
        np.testing.assert_allclose(space.a00.toarray(), expected, atol=1e-10)
        assert space.a00.nnz == np.count_nonzero(expected)

    def test_solve_inverts_operator(self):
        mat = random_spd(35, seed=32)
        part = random_partition(35, 3, seed=33)
        _, _, (z, _) = pipeline(mat, part, 1, coarse="gevp")
        space = galerkin_coarse(mat, z)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(z.shape[1])
        y = space.lu.solve(rhs)
        np.testing.assert_allclose(space.a00 @ y, rhs, atol=1e-9)

    def test_spd_coarse_operator(self):
        mat = random_spd(45, seed=36)
        part = random_partition(45, 4, seed=37)
        _, _, (z, _) = pipeline(mat, part, 2, coarse="full")
        space = galerkin_coarse(mat, z)
        a00 = space.a00.toarray()
        np.testing.assert_allclose(a00, a00.T, atol=1e-12)
        assert np.linalg.eigvalsh(a00).min() > 0

    @pytest.mark.parametrize("dense", [
        np.diag([1.0, -1.0, 2.0]),  # negative pivot
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # zero diagonal
    ])
    def test_indefinite_symmetric_coarse_operator_raises(self, dense):
        mat = SparseMat.from_dense(dense, symmetric=True)
        z = whole_graph_basis(mat)
        with pytest.raises(RuntimeError, match="not positive definite"):
            galerkin_coarse(mat, z)

    @pytest.mark.parametrize("last", [2.0, 2.0 + 2.0 ** -51])  # exactly, numerically
    def test_singular_nonsymmetric_coarse_operator_raises(self, last):
        mat = SparseMat.from_dense([[1.0, 2.0], [1.0, last]])
        z = whole_graph_basis(mat)
        with pytest.raises(RuntimeError, match="numerically singular"):
            galerkin_coarse(mat, z)
