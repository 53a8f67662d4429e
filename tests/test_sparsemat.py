import ctypes
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
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
from tlschwarz import sparsemat
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


def assert_same_arrays(mat, ref):
    """The CSR arrays of two SparseMats are equal, entry for entry."""
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(mat.scipy(), name), getattr(ref.scipy(), name),
                                      err_msg=name)


class TestRoundTrip:
    def test_banded7_bit_for_bit(self, banded7, banded7_text):
        again = read_matrix_market(write_matrix_market(banded7))
        assert again.shape == banded7.shape
        assert_same_arrays(again, banded7)

    def test_random_exact(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = rng.integers(1, 20)
            mat = SparseMat.from_dense(
                np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0)
            )
            again = read_matrix_market(write_matrix_market(mat))
            assert_same_arrays(again, mat)

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
        np.testing.assert_array_equal(again.scipy().data, mat.scipy().data)

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
            cols = neighbors(banded7.scipy(), i)
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

    def test_constructor_validation(self):
        with pytest.raises(TypeError, match="expected a scipy sparse matrix"):
            SparseMat(np.eye(2))
        with pytest.raises(ValueError, match="symmetric flag requires a square matrix"):
            SparseMat(sp.csr_matrix((2, 3)), symmetric=True)

    @pytest.mark.parametrize("rows, cols, message", [
        ([2], [0], "row index out of range"),
        ([-1], [0], "row index out of range"),
        ([0], [3], "column index out of range"),
        ([0], [-1], "column index out of range"),
    ])
    def test_from_coo_index_out_of_range(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            SparseMat.from_coo(2, 3, rows, cols, [1.0])

    def test_rectangular_is_not_numerically_symmetric(self):
        assert not SparseMat.from_coo(2, 3, [0], [0], [1.0]).is_numerically_symmetric()

    def test_immutability(self, banded7):
        with pytest.raises(ValueError):
            banded7.scipy().data[0] = 99.0


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


# A 28x28 block with empty rows and columns, as COO triplets (rows, columns,
# values): a random sparse block reduced to 29 entries that still make SuperLU
# print "** On entry to DTRSV parameter number 6 had an illegal value".
EMPTY_ROWS_BLOCK = (
    [4, 11, 21, 4, 6, 0, 3, 10, 14, 10, 18, 21, 20, 22, 26, 5, 5, 5, 3, 10, 10, 4, 10, 5, 22, 6,
     26, 3, 5],
    [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 7, 8, 9, 9, 10, 11, 11, 13, 13, 18, 18, 21,
     21],
    [0.47, 0.12, 0.27, 0.55, 0.55, 0.02, 0.47, 0.66, 0.52, 0.21, 0.64, 0.74, 0.65, 0.17, 0.52,
     0.37, 0.2, 1.0, 0.16, 0.87, 0.99, 0.94, 0.35, 0.33, 0.38, 0.89, 0.59, 0.43, 0.77],
)

# A 24x24 block with no empty row or column but structural rank 23, as COO
# triplets (rows, columns, values): sp.random(24, 24, density=0.1726,
# random_state=687) with its values rounded to two digits.  SuperLU, given
# it, prints "** On entry to DTRSV parameter number 6 had an illegal value"
# and a DGEMV line before it reports the block singular or, with symmetric
# pivoting, not positive definite.
RANK_DEFICIENT_BLOCK = (
    [5, 6, 0, 8, 9, 15, 17, 18, 19, 21, 23, 0, 1, 10, 14, 17, 19, 20, 2, 17, 13, 16, 19, 7, 20, 9,
     20, 2, 7, 10, 17, 23, 19, 2, 5, 6, 17, 20, 4, 10, 20, 22, 9, 13, 14, 19, 9, 16, 7, 11, 18, 13,
     15, 22, 23, 4, 8, 9, 10, 12, 16, 17, 3, 16, 18, 10, 15, 17, 22, 23, 7, 10, 13, 17, 22, 5, 7, 9,
     11, 13, 14, 18, 23, 1, 14, 18, 2, 3, 5, 9, 20, 23, 18, 23, 13, 14, 17, 18, 22],
    [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7,
     8, 9, 9, 9, 9, 9, 10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 13, 13, 13, 14, 14, 14, 14, 15, 15,
     15, 15, 15, 15, 15, 16, 16, 16, 17, 17, 17, 17, 17, 18, 18, 18, 18, 18, 19, 19, 19, 19, 19, 19,
     19, 19, 20, 20, 20, 21, 21, 21, 21, 21, 21, 22, 22, 23, 23, 23, 23, 23],
    [0.74, 0.44, 0.99, 0.06, 0.62, 0.97, 0.58, 0.41, 0.42, 0.53, 0.08, 0.5, 0.1, 0.69, 1.0, 0.95,
     0.43, 0.24, 0.53, 0.29, 0.82, 0.05, 0.63, 0.57, 0.37, 0.24, 0.13, 0.31, 0.51, 0.85, 0.66, 0.1,
     0.74, 0.8, 0.46, 0.82, 0.24, 0.61, 0.23, 0.98, 0.62, 0.42, 0.32, 0.35, 0.48, 0.08, 0.35, 0.38,
     0.3, 0.96, 0.78, 0.43, 0.8, 0.65, 0.22, 0.02, 0.72, 0.9, 0.25, 0.44, 0.37, 0.9, 0.53, 0.87,
     0.15, 0.55, 0.69, 0.85, 0.29, 0.12, 0.29, 0.97, 0.12, 0.78, 0.78, 0.91, 0.34, 0.98, 0.07,
     0.27, 0.05, 0.35, 0.34, 0.71, 0.98, 0.97, 0.31, 0.74, 0.93, 0.08, 0.23, 0.99, 0.28, 0.5, 0.23,
     0.09, 0.76, 0.5, 0.88],
)


def fd_output(call):
    """``call()``'s result and the bytes written to file descriptors 1 and 2
    while it ran, C stdio buffers included."""
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
    sys.stdout.flush()
    sys.stderr.flush()
    saved = [os.dup(1), os.dup(2)]
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 1)
        os.dup2(sink.fileno(), 2)
        try:
            result = call()
        finally:
            fflush(None)  # every C stream
            for fd, old in zip((1, 2), saved):
                os.dup2(old, fd)
                os.close(old)
        sink.seek(0)
        return result, sink.read()


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

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_single_block_copied_only_when_splu_would_change_it(self, monkeypatch, symmetric):
        # splu sorts a CSC argument in place; a canonical one it leaves alone
        seen = []
        monkeypatch.setattr(sparsemat, "splu", lambda a, **kw: seen.append(a) or splu(a, **kw))
        a = random_spd(20, seed=4).scipy()
        if not symmetric:
            a = a + sp.diags(np.full(a.shape[0] - 1, 0.3), 1)
        canonical, unsorted = a.tocsc(), unsorted_csc(a)
        for block in (canonical, unsorted):
            lu, failed = factor_blocks([block], symmetric)
            assert failed is None
        assert seen[0] is canonical
        assert seen[1] is not unsorted
        assert not np.shares_memory(seen[1].indices, unsorted.indices)
        assert not np.shares_memory(seen[1].data, unsorted.data)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_exactly_singular_stops_at_first_failing_block(self, monkeypatch, symmetric):
        # a zero column makes SuperLU raise; the blocks are then refactored one
        # by one, up to and including the first that fails
        seen = []
        monkeypatch.setattr(sparsemat, "splu", lambda a, **kw: seen.append(a) or splu(a, **kw))
        singular = sp.csc_matrix(laplace1d(4).scipy().multiply(np.array([1.0, 0.0, 1.0, 1.0])))
        blocks = [laplace1d(4).scipy().tocsc(), singular, laplace1d(5).scipy().tocsc(), singular]
        lu, failed = factor_blocks(blocks, symmetric)
        assert (lu, failed) == (None, 1)
        assert len(seen) == 3  # the block-diagonal matrix, then blocks 0 and 1

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_search_factors_each_block_as_the_whole_was(self, monkeypatch, symmetric):
        # the block diagonal runs at panel width 1, and so does each block the
        # search for the failing one factors alone; a single block keeps SuperLU's
        # defaults
        seen = []
        monkeypatch.setattr(sparsemat, "splu",
                            lambda a, **kw: seen.append(kw.get("panel_size")) or splu(a, **kw))
        singular = sp.csc_matrix(laplace1d(4).scipy().multiply(np.array([1.0, 0.0, 1.0, 1.0])))
        blocks = [laplace1d(4).scipy().tocsc(), singular]
        assert factor_blocks(blocks, symmetric) == (None, 1)
        assert factor_blocks([singular], symmetric) == (None, 0)
        assert sparsemat.BLOCK_DIAGONAL_OPTIONS == {"panel_size": 1}
        assert seen == [1, 1, 1, None]

    @pytest.mark.parametrize("delta, failed", [(1e-12, None), (2.0**-52, 0)])
    def test_nonsymmetric_pivot_limit(self, delta, failed):
        # the limit is n * eps * max|U| = 4.4e-16 for this block: a pivot of
        # 1e-12 passes, and one of 2**-52 is refused by the limit, not by
        # SuperLU, which factors it (lu is not None)
        block = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + delta]]))
        lu, result = factor_blocks([block], False)
        assert lu is not None and result == failed

    @given(n=st.integers(1, 12), density=st.floats(0.0, 0.4), zero_diagonal=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_structural_shortcut_decides_as_structural_rank(self, n, density, zero_diagonal,
                                                            seed):
        # a zero-free diagonal is a perfect matching: only a diagonal with a zero
        # needs the search, and the shortcut must refuse exactly what it refuses
        a = sp.random(n, n, density=density, random_state=seed, format="lil")
        a.setdiag(np.random.default_rng(seed).integers(0, 2 if zero_diagonal else 1, n) == 0)
        a = a.tocsc()
        assert zero_diagonal or a.diagonal().all()
        expected = csgraph.structural_rank(a) < n
        assert sparsemat._structurally_singular(a) == expected

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("before", [0, 1])
    def test_empty_row_refused_without_output(self, symmetric, before):
        # SuperLU, given this block, writes BLAS parameter errors to fd 1 before
        # it reports the block exactly singular
        block = sp.csc_matrix((EMPTY_ROWS_BLOCK[2], EMPTY_ROWS_BLOCK[:2]), shape=(28, 28))
        blocks = [laplace1d(5).scipy().tocsc()] * before + [block]
        (lu, failed), written = fd_output(lambda: factor_blocks(blocks, symmetric))
        assert (lu, failed, written) == (None, before, b"")

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("before", [0, 1])
    def test_structurally_singular_refused_without_output(self, symmetric, before):
        # no empty row or column, but no perfect matching of rows to columns:
        # SuperLU would write BLAS parameter errors to fd 1 before failing it
        block = sp.csc_matrix((RANK_DEFICIENT_BLOCK[2], RANK_DEFICIENT_BLOCK[:2]), shape=(24, 24))
        assert np.diff(block.indptr).all() and np.diff(block.tocsr().indptr).all()
        blocks = [laplace1d(5).scipy().tocsc()] * before + [block]
        (lu, failed), written = fd_output(lambda: factor_blocks(blocks, symmetric))
        assert (lu, failed, written) == (None, before, b"")

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
        options = dict(sparsemat.BLOCK_DIAGONAL_OPTIONS) if n_blocks > 1 else {}
        if symmetric:
            options.update(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                           options={"SymmetricMode": True})
        fresh = splu(a, **options)
        rhs = np.random.default_rng(0).standard_normal(a.shape[0])
        x = lu.solve(rhs)
        np.testing.assert_array_equal(x, fresh.solve(rhs))
        default = splu(a).solve(rhs)
        assert np.linalg.norm(x - default) <= 1e-12 * np.linalg.norm(default)


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


# -- Matrix Market: every reader error, against a per-token oracle -----------


def reference_read(text):
    """Oracle for ``read_matrix_market``: the reader as a per-token loop, one
    line at a time, each check run on a line before the next line is read."""

    def tokenize(text):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            yield lineno, line.split()

    def parse_float(tok, lineno):
        try:
            val = float(tok)
        except ValueError:
            raise MatrixMarketError(lineno, f"expected a real value, got {tok!r}") from None
        if not np.isfinite(val):
            raise MatrixMarketError(lineno, f"non-finite value {tok!r}")
        return val

    def parse_int(tok, lineno, what):
        try:
            return int(tok)
        except ValueError:
            raise MatrixMarketError(lineno, f"expected an integer {what}, got {tok!r}") from None

    lines = text.splitlines()
    header = None
    header_lineno = 1
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header = raw.strip()
            header_lineno = lineno
            break
    if header is None or not header.startswith("%%MatrixMarket"):
        raise MatrixMarketError(header_lineno, "missing %%MatrixMarket header")
    fields = header.split()
    if len(fields) != 5 or fields[1].lower() != "matrix":
        raise MatrixMarketError(header_lineno, f"malformed header {header!r}")
    fmt, field, symmetry = (f.lower() for f in fields[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(header_lineno, f"unsupported format {fmt!r}")
    if field != "real":
        raise MatrixMarketError(header_lineno, f"unsupported field {field!r} (only real)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(header_lineno, f"unsupported symmetry {symmetry!r}")

    body = [(ln, toks) for ln, toks in tokenize(text) if ln > header_lineno]
    if not body:
        raise MatrixMarketError(len(lines) + 1, "missing size line")
    size_lineno, size_toks = body[0]
    entries = body[1:]

    if fmt == "coordinate":
        if len(size_toks) != 3:
            raise MatrixMarketError(size_lineno, "coordinate size line needs 'rows cols nnz'")
        nrows = parse_int(size_toks[0], size_lineno, "row count")
        ncols = parse_int(size_toks[1], size_lineno, "column count")
        nnz = parse_int(size_toks[2], size_lineno, "entry count")
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise MatrixMarketError(size_lineno, "negative size")
        if len(entries) != nnz:
            lineno = entries[-1][0] if entries else size_lineno
            raise MatrixMarketError(lineno, f"expected {nnz} entries, found {len(entries)}")
        ri, ci, vi = [], [], []
        for lineno, toks in entries:
            if len(toks) != 3:
                raise MatrixMarketError(lineno, "coordinate entry needs 'i j value'")
            i = parse_int(toks[0], lineno, "row index")
            j = parse_int(toks[1], lineno, "column index")
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise MatrixMarketError(lineno, f"index ({i}, {j}) out of range for {nrows}x{ncols}")
            v = parse_float(toks[2], lineno)
            if symmetry == "symmetric" and i < j:
                raise MatrixMarketError(lineno, "symmetric storage must list the lower triangle")
            ri.append(i - 1)
            ci.append(j - 1)
            vi.append(v)
            if symmetry == "symmetric" and i != j:
                ri.append(j - 1)
                ci.append(i - 1)
                vi.append(v)
        return SparseMat.from_coo(nrows, ncols, ri, ci, vi, symmetric=(symmetry == "symmetric"))

    if len(size_toks) != 2:
        raise MatrixMarketError(size_lineno, "array size line needs 'rows cols'")
    nrows = parse_int(size_toks[0], size_lineno, "row count")
    ncols = parse_int(size_toks[1], size_lineno, "column count")
    if symmetry == "symmetric" and nrows != ncols:
        raise MatrixMarketError(size_lineno, "symmetric array storage requires a square matrix")
    vals = []
    for lineno, toks in entries:
        for tok in toks:
            vals.append(parse_float(tok, lineno))
    expected = nrows * ncols if symmetry == "general" else nrows * (nrows + 1) // 2
    if len(vals) != expected:
        lineno = entries[-1][0] if entries else size_lineno
        raise MatrixMarketError(lineno, f"expected {expected} values, found {len(vals)}")
    dense = np.zeros((nrows, ncols))
    if symmetry == "general":
        dense[:] = np.asarray(vals).reshape((ncols, nrows)).T
    else:
        cols, rows = np.triu_indices(nrows)
        dense[rows, cols] = vals
        dense[cols, rows] = vals
    return SparseMat.from_dense(dense, symmetric=(symmetry == "symmetric"))


def reference_read_vector(text):
    """Oracle for ``read_vector`` on plain text: one value per token."""
    vals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        for tok in line.split():
            try:
                val = float(tok)
            except ValueError:
                raise MatrixMarketError(lineno, f"expected a real value, got {tok!r}") from None
            if not np.isfinite(val):
                raise MatrixMarketError(lineno, f"non-finite value {tok!r}")
            vals.append(val)
    return np.asarray(vals, dtype=np.float64)


GEN = "%%MatrixMarket matrix coordinate real general\n"
SYM = "%%MatrixMarket matrix coordinate real symmetric\n"
ARR = "%%MatrixMarket matrix array real general\n"
ARR_SYM = "%%MatrixMarket matrix array real symmetric\n"

# (id, text, line, message): each input has exactly one error
READ_ERRORS = [
    ("no-header", "2 2 1\n1 1 1\n", 1, "missing %%MatrixMarket header"),
    ("empty-text", "\n  \n", 1, "missing %%MatrixMarket header"),
    ("header-after-blanks", "\n\n%%MatrixMarket matrix coordinate\n", 3,
     "malformed header '%%MatrixMarket matrix coordinate'"),
    ("header-not-matrix", "%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1\n", 1,
     "malformed header '%%MatrixMarket vector coordinate real general'"),
    ("header-six-fields", "%%MatrixMarket matrix coordinate real general x\n", 1,
     "malformed header '%%MatrixMarket matrix coordinate real general x'"),
    ("format", "%%MatrixMarket matrix dense real general\n2 2\n", 1, "unsupported format 'dense'"),
    ("field", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n", 1,
     "unsupported field 'integer' (only real)"),
    ("symmetry", "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1\n", 1,
     "unsupported symmetry 'hermitian'"),
    ("no-size-line", GEN + "% only a comment\n\n", 4, "missing size line"),
    ("no-size-line-array", ARR, 2, "missing size line"),
    ("coordinate-size-two-tokens", GEN + "2 2\n1 1 1\n", 2,
     "coordinate size line needs 'rows cols nnz'"),
    ("coordinate-size-four-tokens", GEN + "2 2 1 1\n1 1 1\n", 2,
     "coordinate size line needs 'rows cols nnz'"),
    ("array-size-three-tokens", ARR + "2 2 4\n1\n2\n3\n4\n", 2,
     "array size line needs 'rows cols'"),
    ("row-count", GEN + "two 2 1\n1 1 1\n", 2, "expected an integer row count, got 'two'"),
    ("column-count", GEN + "2 2.0 1\n1 1 1\n", 2, "expected an integer column count, got '2.0'"),
    ("entry-count", GEN + "2 2 1e0\n1 1 1\n", 2, "expected an integer entry count, got '1e0'"),
    ("array-column-count", ARR + "2 x\n1\n", 2, "expected an integer column count, got 'x'"),
    ("negative-size", GEN + "2 -2 0\n", 2, "negative size"),
    ("negative-entry-count", GEN + "2 2 -1\n", 2, "negative size"),
    ("too-few-entries", GEN + "2 2 3\n1 1 1\n2 2 1\n", 4, "expected 3 entries, found 2"),
    ("too-many-entries", GEN + "2 2 1\n1 1 1\n% c\n2 2 1\n\n", 5, "expected 1 entries, found 2"),
    ("no-entries", GEN + "2 2 1\n", 2, "expected 1 entries, found 0"),
    ("entry-two-tokens", GEN + "2 2 2\n1 1 1\n2 2\n", 4, "coordinate entry needs 'i j value'"),
    ("entry-four-tokens", GEN + "2 2 1\n1 1 1 0\n", 3, "coordinate entry needs 'i j value'"),
    ("row-index", GEN + "2 2 2\n1 1 1\n1.0 2 1\n", 4, "expected an integer row index, got '1.0'"),
    ("column-index", GEN + "2 2 1\n1 x 1\n", 3, "expected an integer column index, got 'x'"),
    ("index-out-of-range", GEN + "2 2 2\n1 1 1\n3 1 5\n", 4, "index (3, 1) out of range for 2x2"),
    ("index-zero", GEN + "2 3 1\n1 0 5\n", 3, "index (1, 0) out of range for 2x3"),
    ("index-beyond-int64", GEN + "2 2 1\n99999999999999999999 1 1\n", 3,
     "index (99999999999999999999, 1) out of range for 2x2"),
    ("index-spelled-plus", GEN + "2 2 1\n+3 1_0 1\n", 3, "index (3, 10) out of range for 2x2"),
    ("value", GEN + "2 2 1\n1 1 abc\n", 3, "expected a real value, got 'abc'"),
    ("value-inf", GEN + "2 2 1\n1 1 inf\n", 3, "non-finite value 'inf'"),
    ("value-nan", GEN + "2 2 2\n1 1 1\n2 2 -NaN\n", 4, "non-finite value '-NaN'"),
    ("upper-triangle", SYM + "2 2 2\n1 2 -1\n2 2 2\n", 3,
     "symmetric storage must list the lower triangle"),
    ("array-value", ARR + "2 1\n1\n2 x\n", 4, "expected a real value, got 'x'"),
    ("array-value-inf", ARR + "1 1\n-inf\n", 3, "non-finite value '-inf'"),
    ("array-too-few", ARR + "2 2\n1\n3\n2\n", 5, "expected 4 values, found 3"),
    ("array-too-many", ARR + "1 2\n1 2\n3\n", 4, "expected 2 values, found 3"),
    ("array-no-values", ARR + "2 2\n", 2, "expected 4 values, found 0"),
    ("array-symmetric-too-few", ARR_SYM + "2 2\n2\n-1\n", 4, "expected 3 values, found 2"),
    ("array-symmetric-not-square", ARR_SYM + "2 3\n1\n2\n3\n4\n5\n6\n", 2,
     "symmetric array storage requires a square matrix"),
    ("comments-and-blanks-in-body", GEN + "2 2 3\n% c\n1 1 1\n\n   \n% 2 2 x\n2 x 1\n1 2 3\n", 8,
     "expected an integer column index, got 'x'"),
    ("crlf", GEN.replace("\n", "\r\n") + "2 2 2\r\n1 1 1\r\n2 2 z\r\n", 4,
     "expected a real value, got 'z'"),
    ("cr-only", "%%MatrixMarket matrix coordinate real general\r2 2 1\r1 3 1\r", 3,
     "index (1, 3) out of range for 2x2"),
]

VECTOR_ERRORS = [
    ("vector-nan", "1\n\nnan\n", 3, "non-finite value 'nan'"),
    ("vector-text", "1 2\n% c\n3 four\n", 3, "expected a real value, got 'four'"),
    ("vector-crlf-inf", "1\r\n2\r\n+inf\r\n", 3, "non-finite value '+inf'"),
]

# (id, text, line, message): two errors, and the check order decides which
# one is named (entry count, tokens per line, row index, column index, index
# range, value, lower triangle); the per-token oracle names the earlier line
READ_PRECEDENCE = [
    ("tokens-before-value", GEN + "2 2 2\n1 1 abc\n2 2\n", 4,
     "coordinate entry needs 'i j value'"),
    ("row-index-before-range", GEN + "2 2 2\n3 1 1\n1.5 1 1\n", 4,
     "expected an integer row index, got '1.5'"),
    ("column-index-before-range", GEN + "2 2 2\n0 1 1\n1 y 1\n", 4,
     "expected an integer column index, got 'y'"),
    ("range-before-value", GEN + "2 2 2\n1 1 x\n1 3 1\n", 4, "index (1, 3) out of range for 2x2"),
    ("value-before-triangle", SYM + "2 2 2\n1 2 1\n2 2 nan\n", 4, "non-finite value 'nan'"),
]

# (id, text, message): size-line errors, each named on line 2.  The per-token
# oracle checked none but the last (it raised numpy's ValueError, an
# OverflowError or a value-count error); the last pins that a negative size is
# reported before one beyond int64
SIZE_ERRORS = [
    ("array-negative-rows", ARR + "-1 0\n", "negative size"),
    ("array-negative-product", ARR + "-2 2\n", "negative size"),
    ("array-negative-columns", ARR + "2 -1\n1\n", "negative size"),
    ("array-negative-beyond-int64", ARR + "-99999999999999999999 1\n", "negative size"),
    ("array-rows-beyond-int64", ARR + "99999999999999999999 1\n1\n", "size out of range"),
    ("coordinate-columns-beyond-int64", GEN + "2 99999999999999999999 1\n1 1 1\n",
     "size out of range"),
    ("coordinate-rows-beyond-int64", GEN + "99999999999999999999 2 1\n1 1 1\n",
     "size out of range"),
    ("coordinate-entries-beyond-int64", GEN + "2 2 99999999999999999999\n1 1 1\n",
     "size out of range"),
    ("coordinate-rows-beyond-any-array", GEN + "4611686018427387903 1 1\n1 1 1\n",
     "size 4611686018427387903x1 too large to allocate"),
    ("negative-before-beyond-int64", GEN + "-1 99999999999999999999 1\n1 1 1\n",
     "negative size"),
]

# inputs the reader accepts, each with its own trap
READ_VALID = [
    ("banded7", None),
    ("symmetric", SYM + "2 2 3\n1 1 2\n2 1 -1\n2 2 2\n"),
    ("symmetric-diagonal", SYM + "3 3 2\n1 1 2\n3 3 4\n"),
    ("symmetric-duplicates", SYM + "3 3 5\n2 1 1e-16\n2 1 1\n2 1 -1\n3 3 1\n2 1 3\n"),
    ("general-duplicates", GEN + "2 2 4\n1 2 0.1\n1 2 0.2\n1 2 0.3\n2 1 1\n"),
    ("stored-zero", GEN + "2 2 2\n1 1 0\n2 2 -0\n"),
    ("spellings", GEN + "3 3 4\n+1 0_1 1E-3\n2 +2 .5\n3 3 -0.0\n١ ٢ 1_0\n"),
    ("whitespace", GEN + "  2\t2  2 \n\t1 1   1.5\n2\t2\t-2.5   \n"),
    ("comments-and-blanks-in-body", GEN + "% c\n\n2 2 1\n\n% 1 1 x\n   \n1 2 3.5\n% end\n"),
    ("blanks-before-header", "\n  \n" + GEN + "1 1 1\n1 1 7\n"),
    ("crlf", GEN.replace("\n", "\r\n") + "2 2 2\r\n1 1 1\r\n2 1 -3\r\n"),
    ("upper-case-header", "%%MatrixMarket MATRIX Coordinate REAL Symmetric\n2 2 1\n2 1 4\n"),
    ("empty-3x4", GEN + "3 4 0\n"),
    ("empty-0x0", GEN + "0 0 0\n"),
    ("rectangular", GEN + "2 3 2\n1 3 1\n2 1 2\n"),
    ("array-general", ARR + "2 2\n1\n3\n2\n4\n"),
    ("array-several-per-line", ARR + "2 3\n1 2\n3 4 5 6\n"),
    ("array-symmetric", ARR_SYM + "2 2\n2\n-1\n2\n"),
    ("array-empty", ARR + "0 3\n"),
]


def cases(table):
    """pytest parameters from ``(id, *values)`` rows."""
    return [pytest.param(*row[1:], id=row[0]) for row in table]


def read_outcome(read, text):
    """What ``read`` does with ``text``: its result, or (type, line, message)."""
    try:
        return read(text)
    except Exception as exc:  # any exception: the oracle's is the expectation
        return type(exc), getattr(exc, "lineno", None), str(exc)


def assert_same_matrix(mat, ref):
    assert mat.shape == ref.shape
    assert mat.symmetric == ref.symmetric
    assert_same_arrays(mat, ref)


class TestReadErrors:
    @pytest.mark.parametrize("text, lineno, message", cases(READ_ERRORS))
    def test_error_names_its_line(self, text, lineno, message):
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(text)
        assert info.value.lineno == lineno
        assert str(info.value) == f"line {lineno}: {message}"
        assert read_outcome(reference_read, text) == (MatrixMarketError, lineno, str(info.value))

    @pytest.mark.parametrize("text, lineno, message", cases(READ_PRECEDENCE))
    def test_check_order_decides_between_two_errors(self, text, lineno, message):
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(text)
        assert (info.value.lineno, str(info.value)) == (lineno, f"line {lineno}: {message}")
        assert read_outcome(reference_read, text)[1] < lineno

    @pytest.mark.parametrize("text, message", cases(SIZE_ERRORS))
    def test_size_line_error_names_it(self, text, message):
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(text)
        assert (info.value.lineno, str(info.value)) == (2, f"line 2: {message}")

    def test_size_beyond_memory_names_size_line(self, monkeypatch):
        # the real call would ask for a 22.4 GiB row pointer
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB")

        monkeypatch.setattr(SparseMat, "from_coo", out_of_memory)
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(GEN + "3000000000 3000000000 1\n1 1 1\n")
        assert str(info.value) == "line 2: size 3000000000x3000000000 too large to allocate"

    @pytest.mark.parametrize("text, lineno, message", cases(VECTOR_ERRORS))
    def test_vector_error_names_its_line(self, text, lineno, message):
        with pytest.raises(MatrixMarketError) as info:
            read_vector(text)
        assert info.value.lineno == lineno
        assert str(info.value) == f"line {lineno}: {message}"
        assert read_outcome(reference_read_vector, text) == (MatrixMarketError, lineno,
                                                              str(info.value))

    @pytest.mark.parametrize("text", cases(READ_VALID))
    def test_valid_input_matches_reference(self, text, banded7_text):
        text = banded7_text if text is None else text
        assert_same_matrix(read_matrix_market(text), reference_read(text))

    @pytest.mark.parametrize("text", ["", "\n", "1.5\n-2\n3e-4\n",
                                      "% c\n 1 2\t3 \n\n+4 1_0\r\n-0\n"])
    def test_plain_vector_matches_reference(self, text):
        v = read_vector(text)
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, reference_read_vector(text))


@st.composite
def stored_entries(draw, symmetric):
    """(shape, entries) of a random sparse matrix; symmetric storage lists
    the lower triangle, each position at most once."""
    nrows = draw(st.integers(0, 8))
    ncols = nrows if symmetric else draw(st.integers(0, 8))
    if nrows == 0 or ncols == 0:
        return (nrows, ncols), []
    position = st.tuples(st.integers(1, nrows), st.integers(1, ncols))
    if symmetric:
        position = position.map(lambda ij: (max(ij), min(ij)))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    entries = draw(st.lists(st.tuples(position, value), max_size=20, unique_by=lambda e: e[0]))
    return (nrows, ncols), entries


class TestRoundTripStorage:
    @pytest.mark.parametrize("symmetric", [False, True])
    @given(data=st.data())
    def test_random_matrix_round_trip(self, symmetric, data):
        (nrows, ncols), entries = data.draw(stored_entries(symmetric))
        kind = "symmetric" if symmetric else "general"
        text = (f"%%MatrixMarket matrix coordinate real {kind}\n{nrows} {ncols} {len(entries)}\n"
                + "".join(f"{i} {j} {v:.17g}\n" for (i, j), v in entries))
        mat = read_matrix_market(text)
        assert_same_matrix(mat, reference_read(text))
        dense = np.zeros((nrows, ncols))
        for (i, j), v in entries:
            dense[i - 1, j - 1] = v
            if symmetric:
                dense[j - 1, i - 1] = v
        np.testing.assert_array_equal(mat.scipy().toarray(), dense)
        again = read_matrix_market(write_matrix_market(mat))
        assert not again.symmetric
        assert again.shape == mat.shape
        assert_same_arrays(again, mat)
