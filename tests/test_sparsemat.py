import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from tlschwarz import (
    MatrixMarketError,
    SparseMat,
    read_matrix_market,
    read_vector,
    symmetrized_graph,
    write_matrix_market,
    write_vector,
)
from tlschwarz.sparsemat import DENSE_GUARD, factor_blocks

from conftest import laplace1d, random_spd


class TestParse:
    def test_banded7_structure(self, banded7):
        assert banded7.shape == (7, 7)
        assert banded7.nnz == 19
        assert banded7.scipy()[1, 2] == 5.0
        assert banded7.scipy()[6, 5] == 19.0
        assert banded7.scipy()[0, 6] == 0.0
        assert not banded7.symmetric

    def test_banded7_matvec_column(self, banded7):
        e = np.zeros(7)
        e[1] = 1.0
        np.testing.assert_allclose(banded7.matvec(e), [2, 4, 7, 0, 0, 0, 0])

    def test_symmetric_storage_expands(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2\n2 1 -1\n2 2 2\n"
        mat = read_matrix_market(text)
        assert mat.symmetric
        np.testing.assert_allclose(mat.to_dense(), [[2, -1], [-1, 2]])

    def test_symmetric_storage_rejects_upper(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 2 -1\n2 2 2\n"
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(text)

    def test_array_general(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n3\n2\n4\n"
        mat = read_matrix_market(text)
        np.testing.assert_allclose(mat.to_dense(), [[1, 2], [3, 4]])

    def test_array_symmetric(self):
        text = "%%MatrixMarket matrix array real symmetric\n2 2\n2\n-1\n2\n"
        mat = read_matrix_market(text)
        np.testing.assert_allclose(mat.to_dense(), [[2, -1], [-1, 2]])
        assert mat.symmetric

    def test_array_symmetric_matches_dense_source(self):
        rng = np.random.default_rng(4)
        source = rng.standard_normal((30, 30))
        source[rng.random((30, 30)) < 0.3] = 0.0
        source = np.tril(source) + np.tril(source, -1).T
        # array storage lists the lower triangle column by column
        lower = [f"{source[i, j]:.17g}" for j in range(30) for i in range(j, 30)]
        text = "%%MatrixMarket matrix array real symmetric\n30 30\n" + "\n".join(lower) + "\n"
        mat = read_matrix_market(text)
        assert mat.symmetric
        np.testing.assert_array_equal(mat.to_dense(), source)

    def test_out_of_range_index_names_line(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n3 1 5\n"
        with pytest.raises(MatrixMarketError, match="line 4"):
            read_matrix_market(text)

    def test_non_real_value_names_line(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(text)

    def test_integer_field_rejected(self):
        text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n"
        with pytest.raises(MatrixMarketError, match="line 1"):
            read_matrix_market(text)

    def test_wrong_entry_count(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n2 2 1\n"
        with pytest.raises(MatrixMarketError, match="expected 3"):
            read_matrix_market(text)

    def test_missing_header(self):
        with pytest.raises(MatrixMarketError, match="header"):
            read_matrix_market("2 2 1\n1 1 1\n")

    def test_comments_and_blanks_skipped(self):
        text = "%%MatrixMarket matrix coordinate real general\n% c\n\n2 2 1\n\n1 2 3.5\n"
        mat = read_matrix_market(text)
        assert mat.scipy()[0, 1] == 3.5


class TestRoundTrip:
    def test_banded7_bit_for_bit(self, banded7, banded7_text):
        again = read_matrix_market(write_matrix_market(banded7))
        assert again.shape == banded7.shape
        np.testing.assert_array_equal(again.indptr, banded7.indptr)
        np.testing.assert_array_equal(again.indices, banded7.indices)
        np.testing.assert_array_equal(again.data, banded7.data)

    def test_random_exact(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = rng.integers(1, 20)
            mat = SparseMat.from_dense(
                np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0)
            )
            again = read_matrix_market(write_matrix_market(mat))
            np.testing.assert_array_equal(again.data, mat.data)
            np.testing.assert_array_equal(again.indices, mat.indices)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=9,
        )
    )
    def test_values_survive_exactly(self, vals):
        n = len(vals)
        mat = SparseMat.from_coo(n, 1, list(range(n)), [0] * n, vals)
        again = read_matrix_market(write_matrix_market(mat))
        np.testing.assert_array_equal(again.data, mat.data)

    def test_empty_matrix(self):
        mat = SparseMat.from_coo(3, 4, [], [], [])
        again = read_matrix_market(write_matrix_market(mat))
        assert again.shape == (3, 4)
        assert again.nnz == 0


class TestSparseMat:
    def test_duplicates_summed(self):
        mat = SparseMat.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        assert mat.nnz == 2
        assert mat.scipy()[0, 1] == 3.0

    def test_sorted_unique_columns(self, banded7):
        for i in range(banded7.nrows):
            cols = banded7.indices[banded7.indptr[i]:banded7.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_symmetric_flag_verified(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SparseMat.from_coo(2, 2, [0, 1], [1, 0], [1.0, 2.0], symmetric=True)

    def test_matvec_dimension_mismatch(self, banded7):
        with pytest.raises(ValueError, match="dimension mismatch"):
            banded7.matvec(np.ones(6))

    def test_matvec_identity(self):
        eye = SparseMat(sp.identity(5, format="csr"), symmetric=True)
        v = np.arange(5.0)
        np.testing.assert_array_equal(eye.matvec(v), v)

    def test_matvec_vs_dense(self):
        mat = random_spd(40, seed=3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(40)
        np.testing.assert_allclose(mat.matvec(v), mat.to_dense() @ v, rtol=1e-13, atol=1e-13)

    def test_dense_guard(self):
        big = SparseMat(sp.identity(5001, format="csr"), symmetric=True)
        with pytest.raises(ValueError, match="guard"):
            big.to_dense()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseMat.from_coo(1, 1, [0], [0], [np.nan])

    def test_immutability(self, banded7):
        with pytest.raises(ValueError):
            banded7.data[0] = 99.0


def neighbors(g, i):
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


class TestGraph:
    def test_banded7_is_a_path(self, banded7):
        g = symmetrized_graph(banded7)
        assert g.shape == (7, 7)
        np.testing.assert_array_equal(neighbors(g, 0), [1])
        np.testing.assert_array_equal(neighbors(g, 3), [2, 4])
        np.testing.assert_array_equal(neighbors(g, 6), [5])

    def test_one_sided_entries_make_edges(self):
        # cancellation in A + A^T must not lose the edge
        mat = SparseMat.from_coo(2, 2, [0, 1, 0, 1], [0, 1, 1, 0], [1.0, 1.0, 1.0, -1.0])
        g = symmetrized_graph(mat)
        np.testing.assert_array_equal(neighbors(g, 0), [1])

    def test_stored_zero_is_not_an_edge(self):
        mat = SparseMat.from_coo(2, 2, [0, 1, 0], [0, 1, 1], [1.0, 1.0, 0.0])
        g = symmetrized_graph(mat)
        assert neighbors(g, 0).size == 0

    def test_no_self_loops(self):
        mat = laplace1d(5)
        g = symmetrized_graph(mat)
        for i in range(5):
            assert i not in neighbors(g, i)

    def test_rectangular_rejected(self):
        mat = SparseMat.from_coo(2, 3, [0], [2], [1.0])
        with pytest.raises(ValueError, match="square"):
            symmetrized_graph(mat)


def unsorted_csc(mat):
    """CSC copy of ``mat`` with the row indices of every column reversed."""
    a = mat.tocsc(copy=True)
    for j in range(a.shape[1]):
        lo, hi = a.indptr[j], a.indptr[j + 1]
        a.indices[lo:hi] = a.indices[lo:hi][::-1].copy()
        a.data[lo:hi] = a.data[lo:hi][::-1].copy()
    a.has_sorted_indices = False
    return a


class TestFactorBlocks:
    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_input_blocks_unchanged(self, n_blocks, symmetric):
        # splu sorts the indices of its CSC argument in place
        blocks = []
        for k in range(n_blocks):
            a = random_spd(12 + k, seed=k).scipy()
            if not symmetric:
                a = a + sp.diags(np.full(a.shape[0] - 1, 0.3), 1)
            blocks.append(unsorted_csc(a))
        before = [(b.data.copy(), b.indices.copy(), b.indptr.copy()) for b in blocks]
        lu, failed = factor_blocks(blocks, symmetric)
        assert failed is None
        for b, (data, indices, indptr) in zip(blocks, before):
            np.testing.assert_array_equal(b.data, data)
            np.testing.assert_array_equal(b.indices, indices)
            np.testing.assert_array_equal(b.indptr, indptr)
        x = np.arange(1.0, lu.shape[0] + 1)
        np.testing.assert_allclose(lu.solve(sp.block_diag(blocks) @ x), x, rtol=1e-10)

    @pytest.mark.parametrize("n_blocks, size", [(1, 1000), (3, 600)])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_factor_keeps_no_copy_of_l_and_u(self, n_blocks, size, symmetric):
        # scipy caches CSC copies of L and U (12 bytes per stored entry) on
        # the first read of .L or .U; the factor must not come back with them
        blocks = []
        for k in range(n_blocks):
            a = random_spd(size + k, seed=k).scipy()
            if not symmetric:
                a = a + sp.diags(np.full(a.shape[0] - 1, 0.3), 1)
            blocks.append(a.tocsc())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lu, failed = factor_blocks(blocks, symmetric)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert failed is None
        assert held < 0.01 * 12 * lu.nnz
        a = sp.block_diag(blocks, format="csc")
        fresh = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                     options={"SymmetricMode": True}) if symmetric else splu(a)
        rhs = np.random.default_rng(0).standard_normal(a.shape[0])
        np.testing.assert_array_equal(lu.solve(rhs), fresh.solve(rhs))


class TestVectors:
    def test_plain_text(self):
        v = read_vector("1.5\n-2\n3e-4\n")
        np.testing.assert_allclose(v, [1.5, -2.0, 3e-4])

    def test_matrix_market_array(self):
        v = read_vector("%%MatrixMarket matrix array real general\n3 1\n1\n2\n3\n")
        np.testing.assert_allclose(v, [1, 2, 3])

    def test_matrix_market_array_beyond_dense_guard(self):
        values = np.arange(DENSE_GUARD + 1, dtype=np.float64)
        text = f"%%MatrixMarket matrix array real general\n{values.size} 1\n" + write_vector(values)
        np.testing.assert_array_equal(read_vector(text), values)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(17) * 10.0 ** rng.integers(-12, 12, size=17)
        np.testing.assert_array_equal(read_vector(write_vector(v)), v)

    def test_multi_column_rejected(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        with pytest.raises(ValueError, match="single-column"):
            read_vector(text)
