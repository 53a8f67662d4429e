import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import qr
from scipy.sparse.linalg import splu

from tlschwarz import (
    Partition,
    ProblemSpec,
    SparseMat,
    assemble_coarse_basis,
    build_harmonic,
    extend_overlap,
    extract_local_blocks,
    galerkin_coarse,
    galerkin_operator,
    generate,
    read_matrix_market,
    select_harmonic_modes,
    select_pou_modes,
    setup,
    subdomain_coarse_columns,
    svd_harmonic_modes,
    symmetrized_graph,
    write_matrix_market,
)
from tlschwarz import coarse, sparsemat
from tlschwarz.coarse import DROP_TOL, PROJECTOR_LIMIT, DenseFactor
from tlschwarz.subdomain import GENERAL_OPTIONS_HINT

from conftest import random_partition, random_spd


def pipeline(mat, part, delta, tau=0.1, coarse="gevp"):
    g = symmetrized_graph(mat)
    maps = extend_overlap(g, part, delta)
    column_blocks = [subdomain_coarse_columns(extract_local_blocks(mat, smap, mat.symmetric),
                                              coarse, tau)[0] for smap in maps]
    return maps, column_blocks, assemble_coarse_basis(maps, column_blocks, mat.nrows)


def scatter(maps, column_blocks, n_global):
    """Every offered column, unfiltered, as a dense global matrix."""
    cols = []
    for smap, block in zip(maps, column_blocks):
        full = np.zeros((n_global, block.shape[1]))
        full[smap.interior] = block
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
        # one column per boundary-ring node, cut to the interior: minus the
        # inner solve of the coupling (with one layer, inner is the interior)
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        maps = extend_overlap(g, part, 1)
        smap = maps[0]
        blocks = extract_local_blocks(banded7, smap, banded7.symmetric)
        cols, largest_unselected = subdomain_coarse_columns(blocks, "full", 0.1)
        assert largest_unselected == 0.0
        ni = blocks.n_inner
        assert ni == smap.interior.size
        a = blocks.a.toarray()
        expected = -np.linalg.solve(a[:ni, :ni], a[:ni, ni:])
        np.testing.assert_allclose(cols, expected, atol=1e-12)

    def test_shrunk_lifts_selected_modes(self):
        mat = random_spd(40, seed=8)
        part = random_partition(40, 3, seed=9)
        maps = extend_overlap(symmetrized_graph(mat), part, 2)
        smap = maps[0]
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        ext = build_harmonic(blocks)
        basis = select_harmonic_modes(blocks, ext, 0.05)
        cols, largest_unselected = subdomain_coarse_columns(blocks, "gevp", 0.05)
        assert largest_unselected == basis.largest_unselected
        assert cols.shape == (smap.interior.size, basis.n_selected)
        expected = (ext @ basis.vectors[blocks.n_inner:, :])[:smap.interior.size]
        np.testing.assert_allclose(cols, expected, atol=1e-13)

    @pytest.mark.parametrize("nu", [None, 1.5])
    def test_new_interior_block(self, nu):
        # the interior rows of the kind's vectors, then of the
        # partition-of-unity modes, bit for bit, in an array of its own: a
        # view would keep the full-height extension alive with the block
        mat = random_spd(40, seed=8)
        smap = extend_overlap(symmetrized_graph(mat), random_partition(40, 3, seed=9), 2)[1]
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        ext = build_harmonic(blocks)
        pou = [select_pou_modes(blocks, nu).vectors] if nu is not None else []
        for kind, select in [("full", None), ("gevp", select_harmonic_modes),
                             ("svd", svd_harmonic_modes)]:
            basis = select(blocks, ext, 0.05) if select is not None else None
            offered = [ext if basis is None else basis.vectors] + pou
            cols, largest_unselected = subdomain_coarse_columns(blocks, kind, 0.05, nu)
            assert cols.shape == (smap.interior.size, sum(v.shape[1] for v in offered))
            np.testing.assert_array_equal(cols, np.hstack(offered)[:smap.interior.size])
            assert cols.base is None
            assert largest_unselected == (0.0 if basis is None else basis.largest_unselected)


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
                full[smap.interior] = block[:, j]
                np.testing.assert_array_equal(dense[:, k], full)
                k += 1
            assert (start <= k <= end) or end == k
        assert k == z.shape[1]

    def test_zero_columns_dropped(self):
        mat = random_spd(20, seed=12)
        part = random_partition(20, 2, seed=13)
        maps = extend_overlap(symmetrized_graph(mat), part, 1)
        blocks = [np.zeros((m.interior.size, 2)) for m in maps]
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
    """Exactly independent interior columns so the filter's work is predictable."""
    rng = np.random.default_rng(seed)
    blocks = []
    for smap in maps:
        k = min(per_subdomain, smap.interior.size)
        q, _ = np.linalg.qr(rng.standard_normal((smap.interior.size, k)))
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
    """Oracle for ``assemble_coarse_basis``: the same rank filter on each
    interior block padded with zero overlap rows to its subdomain's height,
    then each subdomain's kept columns as rows of ``kept.T``, one CSC matrix
    and one ``tocsr()``."""
    padded = []
    for smap, block in zip(maps, column_blocks):
        padded.append(np.zeros((smap.n_local, block.shape[1])))
        padded[-1][:smap.interior.size] = block
    column_blocks = padded
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
    """Subdomains with overlap and interior column blocks with exact zeros,
    zero columns and duplicate or near-parallel columns."""
    n = draw(st.integers(4, 30))
    n_subdomains = draw(st.integers(1, min(n, 4)))
    seed = draw(st.integers(0, 2**16))
    maps = extend_overlap(symmetrized_graph(random_spd(n, seed)),
                          random_partition(n, n_subdomains, seed), draw(st.integers(1, 2)))
    rng = np.random.default_rng(seed)
    blocks = []
    for smap in maps:
        block = rng.standard_normal((smap.interior.size, draw(st.integers(0, 5))))
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
        a00 = galerkin_operator(mat, z)
        dense_b = z.toarray()
        expected = dense_b.T @ mat.to_dense() @ dense_b
        np.testing.assert_allclose(a00.toarray(), expected, atol=1e-10)
        assert a00.nnz == np.count_nonzero(expected)
        assert galerkin_coarse(mat, z, mat.symmetric).nnz == a00.nnz

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_solve_inverts_operator(self, a00_form, symmetric):
        mat = random_spd(35, seed=32)
        if not symmetric:
            mat = SparseMat(mat.scipy() + 5 * sp.random(35, 35, density=0.2, random_state=3))
        part = random_partition(35, 3, seed=33)
        _, _, (z, _) = pipeline(mat, part, 1, coarse="gevp" if symmetric else "svd")
        space = galerkin_coarse(mat, z, symmetric)
        assert isinstance(space.lu, DenseFactor) == (a00_form == "dense")
        if a00_form == "dense" and not symmetric:  # LU's rows are swapped
            assert (space.lu.perm != np.arange(z.shape[1])).any()
        a00 = galerkin_operator(mat, z)
        rhs = np.random.default_rng(1).standard_normal(z.shape[1])
        for operator, trans in ((a00, "N"), (a00.T, "T")):
            np.testing.assert_allclose(operator @ space.lu.solve(rhs, trans=trans), rhs, atol=1e-9)
            column = space.lu.solve(rhs[:, None], trans=trans)  # onenormest's shape
            np.testing.assert_allclose(operator @ column[:, 0], rhs, atol=1e-9)

    def test_spd_coarse_operator(self):
        mat = random_spd(45, seed=36)
        part = random_partition(45, 4, seed=37)
        _, _, (z, _) = pipeline(mat, part, 2, coarse="full")
        a00 = galerkin_operator(mat, z).toarray()
        np.testing.assert_allclose(a00, a00.T, atol=1e-12)
        assert np.linalg.eigvalsh(a00).min() > 0
        galerkin_coarse(mat, z, mat.symmetric)

    def test_keeps_no_coarse_operator(self):
        # an apply reads Z and the factor only: A00 (12 bytes per stored
        # entry) must be gone once galerkin_coarse returns
        mat, _ = generate(ProblemSpec("poisson2d", 100))
        z = setup(mat, 64).coarse.basis
        nnz = galerkin_operator(mat, z).nnz
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = galerkin_coarse(mat, z, mat.symmetric)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert space.nnz == nnz
        assert held < 0.01 * 12 * nnz

    def test_fine_product_freed_before_galerkin_product(self):
        # scipy's CSC x CSR product converts A Z to CSC; the CSR A Z (12 bytes
        # per stored entry) must be gone before the product allocates A00
        mat, _ = generate(ProblemSpec("advection2d", 30))
        z = setup(mat, 4).coarse.basis
        refs, alive = [], []

        class Fine(sp.csr_matrix):
            def __matmul__(self, other):
                refs.append(weakref.ref(product := super().__matmul__(other)))
                return product

        class Transposed(sp.csc_matrix):
            def _matmul_sparse(self, other):
                alive.append(refs[0]() is not None)
                return super()._matmul_sparse(other)

        class Basis(sp.csr_matrix):
            def transpose(self, axes=None, copy=False):
                return Transposed(super().transpose(axes, copy))

        fine = SimpleNamespace(scipy=lambda: Fine(mat.scipy()), symmetric=False)
        a00 = galerkin_operator(fine, Basis(z))
        assert alive == [False]
        expected = z.T @ (mat.scipy() @ z)  # the product with scipy's own conversion
        expected.eliminate_zeros()
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a00, name), getattr(expected, name))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_coarse_operator_freed_before_pivot_read(self, monkeypatch, symmetric):
        # the pivot read's CSC copies of L and U can take A00's memory only
        # when nothing holds A00 once SuperLU has returned
        mat = random_spd(35, seed=32)
        if not symmetric:
            mat = SparseMat(mat.scipy() + sp.diags(np.full(34, 0.3), 1))
        refs, alive_at_read = [], []

        def operator(matrix, z):
            a00 = galerkin_operator(matrix, z)
            refs.append(weakref.ref(a00))
            return a00

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                return getattr(self.lu, name)

            @property
            def U(self):
                alive_at_read.append(refs[0]() is not None)
                return self.lu.U

        monkeypatch.setattr(coarse, "galerkin_operator", operator)
        monkeypatch.setattr(sparsemat, "splu", lambda a, **kw: Factor(splu(a, **kw)))
        space = galerkin_coarse(mat, whole_graph_basis(mat), mat.symmetric)
        assert alive_at_read and not any(alive_at_read)
        rhs = np.random.default_rng(2).standard_normal(mat.nrows)
        np.testing.assert_allclose(mat.matvec(space.lu.solve(rhs)), rhs, atol=1e-9)

    @pytest.mark.parametrize("dense", [
        np.diag([1.0, -1.0, 2.0]),  # negative pivot
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # zero diagonal
    ])
    def test_indefinite_symmetric_coarse_operator_raises(self, a00_form, dense):
        mat = SparseMat.from_dense(dense)
        z = whole_graph_basis(mat)
        with pytest.raises(coarse.CoarseSetupError, match="not positive definite") as info:
            galerkin_coarse(mat, z, mat.symmetric)
        assert str(info.value).endswith(GENERAL_OPTIONS_HINT)

    @pytest.mark.parametrize("last", [2.0, 2.0 + 2.0 ** -51])  # exactly, numerically
    def test_singular_nonsymmetric_coarse_operator_raises(self, a00_form, last):
        mat = SparseMat.from_dense([[1.0, 2.0], [1.0, last]])
        z = whole_graph_basis(mat)
        with pytest.raises(coarse.CoarseSetupError, match="numerically singular"):
            galerkin_coarse(mat, z, mat.symmetric)

    @pytest.mark.parametrize("t", [1e-9, 1e-7])
    def test_coarse_projector_limit(self, a00_form, t):
        # A is a permutation (condition number 1) and A00 = Z^T A Z = [2 t] is
        # 1 x 1 (condition number 1), yet A Q = A z z^T / (2 t) has 1-norm
        # (1 + t) / (2 t): refused above PROJECTOR_LIMIT = eps^(-1/2) = 6.7e7
        mat = SparseMat.from_dense([[0.0, 1.0], [1.0, 0.0]])
        z = sp.csr_matrix([[1.0], [t]])
        assert ((1 + t) / (2 * t) > PROJECTOR_LIMIT) == (t == 1e-9)
        if t == 1e-9:
            with pytest.raises(coarse.CoarseSetupError, match="numerically singular"):
                galerkin_coarse(mat, z, False)
        else:
            solved = galerkin_coarse(mat, z, False).lu.solve(np.array([1.0]))
            np.testing.assert_allclose(solved, [0.5 / t], rtol=1e-12)

    def test_projector_norm_is_a_repeatable_lower_bound(self):
        rng = np.random.default_rng(5)
        a = sp.csr_matrix(rng.standard_normal((40, 40)))
        z = sp.random(40, 8, density=0.3, random_state=rng, format="csr")
        a00 = (z.T @ a @ z).toarray()
        lu = splu(sp.csc_matrix(a00))
        exact = np.abs(a @ z.toarray() @ np.linalg.solve(a00, z.T.toarray())).sum(axis=0).max()
        state = np.random.get_state()[1].copy()
        estimate = coarse._projector_norm(SparseMat(a), z, lu)
        assert 0.3 * exact <= estimate <= exact * (1 + 1e-12)
        assert coarse._projector_norm(SparseMat(a), z, lu) == estimate
        assert np.array_equal(np.random.get_state()[1], state)  # no global draw

    def test_projector_norm_bounded_by_spd_conditioning(self):
        # on a symmetric positive definite A, ||A Q||_1 <= sqrt(n kappa_2(A)),
        # so only a numerically singular A can exceed PROJECTOR_LIMIT
        mat, _ = generate(ProblemSpec("hetero-diffusion2d", 16, contrast=1e8))
        z = setup(mat, 4, coarse="svd", one_level="ras", combine="deflated").coarse.basis
        eigenvalues = np.linalg.eigvalsh(mat.to_dense())
        bound = np.sqrt(mat.nrows * eigenvalues[-1] / eigenvalues[0])
        assert bound > 1e5
        assert coarse._projector_norm(mat, z, galerkin_coarse(mat, z, False).lu) <= bound


class TestDenseForm:
    """A00 is factored dense, by LAPACK in place, when it stores at least
    ``DENSE_SHARE`` of its n^2 entries and has at most ``DENSE_GUARD`` rows."""

    @pytest.mark.parametrize("extra, guard, dense", [
        (5, 5000, True),  # 10 = 0.4 * 5^2 entries
        (4, 5000, False),  # 9
        (5, 4, False),  # above the guard
    ])
    def test_form_follows_the_share(self, monkeypatch, extra, guard, dense):
        a, (rows, cols) = 4.0 * np.eye(5), np.triu_indices(5, 1)
        a[rows[:extra], cols[:extra]] = 1.0
        mat = SparseMat.from_dense(a)
        monkeypatch.setattr(coarse, "DENSE_GUARD", guard)
        space = galerkin_coarse(mat, whole_graph_basis(mat), False)
        assert isinstance(space.lu, DenseFactor) == dense
        rhs = np.arange(5.0)
        np.testing.assert_allclose(a @ space.lu.solve(rhs), rhs, atol=1e-12)

    @pytest.mark.parametrize("kind", ["poisson2d", "advection2d"])
    def test_factored_in_place_once_the_sparse_operator_is_freed(self, monkeypatch, kind):
        # A00 68 % (poisson2d) and 72 % (advection2d) nonzero: the CSC A00 is
        # gone before LAPACK runs, which makes no n^2-sized temporary
        mat, _ = generate(ProblemSpec(kind, 20))
        z = setup(mat, 8).coarse.basis
        refs, seen = [], []
        operator, factor = coarse.galerkin_operator, coarse._factor_dense

        def record_operator(matrix, z):
            refs.append(weakref.ref(a00 := operator(matrix, z)))
            return a00

        def record_factor(a, spd):
            seen.append((refs[0]() is None, a))
            tracemalloc.start()
            try:
                result = factor(a, spd)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.1 * a.nbytes
            return result

        monkeypatch.setattr(coarse, "galerkin_operator", record_operator)
        monkeypatch.setattr(coarse, "_factor_dense", record_factor)
        space = galerkin_coarse(mat, z, mat.symmetric)
        [(freed, a)] = seen
        assert freed and a.flags.f_contiguous and space.lu.factor is a
