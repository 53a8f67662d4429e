"""Sparse CSR matrices, sparsity graphs, block-diagonal SuperLU factors, Matrix Market I/O.

The on-disk format is Matrix Market (coordinate or array, real, general or
symmetric storage).  A read converts each kind of token with one numpy call
and runs each check over all entries at once, in the order entry count,
tokens per line, row index, column index, range, value, lower triangle.  The
writer emits general coordinate format with 17 significant digits, so a
write/read round trip reproduces every float64 exactly.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

# Largest row count of an explicit dense copy: SparseMat.to_dense, spectral.select_pou_modes
# (the one place that densifies a whole local block) and coarse.galerkin_coarse check it.
DENSE_GUARD = 5000

# SuperLU options for a block diagonal of more than one block.  SuperLU's panel work arrays
# hold the row count times the panel width (Demmel, Eisenstat, Gilbert, Li and Liu, SIAM J.
# Matrix Anal. Appl. 20, 1999), and the one-level matrix stacks every subdomain's rows: a
# panel one column wide keeps its fill and cuts SuperLU's transient memory.
BLOCK_DIAGONAL_OPTIONS = {"panel_size": 1}


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message names the offending line."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = int(lineno)


class SparseMat:
    """Immutable real sparse matrix in CSR form.

    Column indices are sorted and duplicate-free within each row.
    ``symmetric`` is read from the values once, at construction: the matrix
    is square and every stored value equals that of the transpose exactly.
    """

    def __init__(self, csr):
        if not sp.issparse(csr):
            raise TypeError("expected a scipy sparse matrix")
        csr = csr.tocsr().astype(np.float64)
        csr.sum_duplicates()  # sorts the indices first
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite")
        self._csr = csr
        self.symmetric = csr.shape[0] == csr.shape[1] and (csr != csr.T).nnz == 0
        for arr in (csr.data, csr.indices, csr.indptr):
            arr.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals):
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("column index out of range")
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
        return cls(coo.tocsr())

    @classmethod
    def from_dense(cls, arr):
        return cls(sp.csr_matrix(np.asarray(arr, dtype=np.float64)))

    # -- basic queries -----------------------------------------------------

    @property
    def nrows(self):
        return self._csr.shape[0]

    @property
    def ncols(self):
        return self._csr.shape[1]

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    def scipy(self):
        """The underlying scipy CSR matrix (read-only buffers)."""
        return self._csr

    # -- arithmetic --------------------------------------------------------

    def matvec(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.ncols,):
            raise ValueError(f"dimension mismatch: matrix is {self.shape}, vector has shape {v.shape}")
        return self._csr @ v

    def to_dense(self):
        if self.nrows > DENSE_GUARD:
            raise ValueError(
                f"refusing to densify a matrix with {self.nrows} rows (guard is {DENSE_GUARD})"
            )
        return self._csr.toarray()

    def __repr__(self):
        sym = ", symmetric" if self.symmetric else ""
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz}{sym})"


def symmetrized_graph(matrix):
    """Symmetrized sparsity pattern as a boolean scipy CSR matrix.

    Nodes are the rows of the (square) matrix; an edge {i, j}, i != j, is
    present whenever entry (i, j) or (j, i) is numerically nonzero.  The
    result has sorted column indices, no stored zeros and no self-loops, so
    it can go straight into ``scipy.sparse.csgraph`` and sparse products.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("sparsity graph requires a square matrix")
    pattern = matrix.scipy() != 0
    pattern = (pattern + pattern.T).tocsr()
    pattern.setdiag(False)
    pattern.eliminate_zeros()
    pattern.sort_indices()
    return pattern


def factor_blocks(blocks, spd):
    """One SuperLU factor of the block-diagonal matrix of square sparse ``blocks``.

    Returns ``(lu, failed)``, ``failed`` being the first block that fails its
    test or None (``lu`` is None when a block is exactly singular: structurally
    singular, refused before SuperLU sees it, or with an exactly zero pivot).
    With ``spd`` (symmetric blocks only) a block must keep symmetric pivoting
    with positive pivots, i.e. be positive definite; without it a block must
    keep every pivot above n * eps * max|U| of that block.  Elimination never
    couples two blocks.
    More than one block is factored with ``BLOCK_DIAGONAL_OPTIONS``, one
    block with SuperLU's defaults.
    The pivot read holds scipy's CSC copies of L and U and nothing more; the
    factor keeps neither: its ``.L`` and ``.U`` are empty.
    """
    return _factor_owned(list(blocks), spd)


def _factor_owned(blocks, spd, options=None):
    """``factor_blocks`` on a list this call owns: it empties the list once
    SuperLU has returned, so a block the caller holds no other reference to
    is freed before the pivot read makes its CSC copies of L and U.  max|U| is
    taken in place in U's copy by a ``reduceat`` over its columns (each stores
    its pivot).  The search for a failing block factors each block with the
    ``options`` the whole was factored with."""
    if options is None:
        options = BLOCK_DIAGONAL_OPTIONS if len(blocks) > 1 else {}
    sizes = np.array([b.shape[0] for b in blocks])
    # splu sorts the indices of a CSC argument in place: a single block goes to
    # it as it is only when already CSC in canonical format, else as a copy
    a = sp.block_diag(blocks, format="csc") if len(blocks) > 1 else blocks[0]
    if not (a.format == "csc" and a.has_canonical_format):
        a = sp.csc_matrix(a, copy=True)
    try:
        # structurally singular is exactly singular; SuperLU may print from BLAS before it says so
        if _structurally_singular(a):
            raise RuntimeError("Factor is exactly singular")
        if spd:
            lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True}, **options)
        else:
            lu = splu(a, **options)
    except RuntimeError:  # exactly singular: find the block on its own
        failed = 0 if len(blocks) == 1 else next(
            (i for i, b in enumerate(blocks)
             if _factor_owned([b], spd, options)[1] is not None), None)
        if failed is None:
            raise
        return None, failed
    del a
    blocks.clear()
    starts = np.cumsum(sizes) - sizes
    pivots = lu.U.diagonal()[lu.perm_c]  # in the original column order
    if spd:
        bad = (lu.perm_r != lu.perm_c) | (pivots <= 0)
    else:
        u = lu.U  # the cached copy emptied below: |U| is taken in its own data
        assert np.diff(u.indptr).all(), "every column of U stores its pivot"
        colmax = np.maximum.reduceat(np.abs(u.data, out=u.data), u.indptr[:-1])[lu.perm_c]
        limit = sizes * np.finfo(float).eps * np.maximum.reduceat(colmax, starts)
        bad = np.abs(pivots) <= np.repeat(limit, sizes)
    for cached in (lu.L, lu.U):  # CSC copies scipy made at the first read; solve never reads them
        cached.__init__((0, 0))
    bad = np.flatnonzero(bad)
    return lu, (int(np.searchsorted(starts, bad[0], side="right")) - 1 if bad.size else None)


def _structurally_singular(a):
    """Whether the square CSC matrix ``a`` has no perfect matching of rows to
    columns.  A zero-free diagonal is one, so only a diagonal with a zero
    needs csgraph's search; it gets ``a.T``, a CSR view, which csgraph takes
    without the copy it makes of a CSC matrix."""
    return not a.diagonal().all() and csgraph.structural_rank(a.T) < a.shape[0]


def _find_malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none (macOS,
    musl, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_malloc_trim = _find_malloc_trim()


def release_free_heap():
    """Give the heap's free memory back to the OS.

    glibc serves large temporaries from its heap once its mmap threshold has
    risen, and keeps them resident after they are freed; ``galerkin_coarse`` calls
    this where it has just dropped large ones.  A no-op without ``malloc_trim``.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


# -- Matrix Market ---------------------------------------------------------


def _body(lines, first):
    """The lines after index ``first`` that are neither blank nor comments:
    their line numbers, their tokens as one flat list and each one's count."""
    stripped = [line.strip() for line in lines[first:]]
    linenos = [k for k, line in enumerate(stripped, first + 1) if line and line[0] != "%"]
    kept = [stripped[k - first - 1] for k in linenos]
    counts = np.array([len(line.split()) for line in kept], dtype=np.int64)
    return np.array(linenos, dtype=np.int64), " ".join(kept).split(), counts


def _numbers(tokens, linenos, what=None):
    """``tokens`` parsed as ``float`` parses them into finite float64 values,
    or as ``int`` does into int64 when ``what`` names them.  ``linenos`` and
    ``what`` hold one entry per token or one for all; the first bad token
    raises, naming its line."""
    try:
        values = np.array(tokens, dtype=np.float64 if what is None else np.int64)
        if what is not None or np.isfinite(values).all():
            return values
    except (ValueError, OverflowError):
        pass
    n = len(tokens)
    for tok, lineno, name in zip(tokens, np.broadcast_to(linenos, n), np.broadcast_to(what, n)):
        try:
            value = int(tok) if name else float(tok)
        except ValueError:
            expected = f"an integer {name}" if name else "a real value"
            raise MatrixMarketError(lineno, f"expected {expected}, got {tok!r}") from None
        if not name and not np.isfinite(value):
            raise MatrixMarketError(lineno, f"non-finite value {tok!r}")
    return np.array([int(tok) for tok in tokens], dtype=object)  # integers beyond int64


def _sizes(tokens, lineno, names):
    """The size line's integers, named by ``names``; a negative one raises
    ``negative size`` and one beyond int64 ``size out of range``."""
    sizes = _numbers(tokens, lineno, names).tolist()
    if min(sizes) < 0:
        raise MatrixMarketError(lineno, "negative size")
    if max(sizes) > np.iinfo(np.int64).max:
        raise MatrixMarketError(lineno, "size out of range")
    return sizes


def _first(bad, linenos, message):
    """Raise ``message`` naming the line of the first True in ``bad``."""
    if bad.any():
        raise MatrixMarketError(linenos[np.argmax(bad)], message(np.argmax(bad)))


def read_matrix_market(text):
    """Parse Matrix Market text into a SparseMat.

    Supports coordinate and array formats, real field, general or symmetric
    storage.  Symmetric storage must list only the lower triangle; it is
    expanded on read.  Whether the result is symmetric is read from its
    values, as for any ``SparseMat``, whatever the storage.

    Each error is a ``MatrixMarketError`` naming a line.  The size line's
    values, in either format, must be integers, none negative (``negative
    size``) or beyond int64 (``size out of range``).  After the header and
    the size line, a coordinate body is checked one property at a time
    over all entries, in this order: entry count, tokens per line, row index,
    column index, index range, value, lower triangle.  The first entry that
    fails a check is named, so of two errors the earlier check's is reported.
    A coordinate matrix whose sizes no process can allocate raises ``too
    large to allocate`` last, naming the size line.
    """
    lines = text.splitlines()
    header_lineno, header = next(
        ((k, line.strip()) for k, line in enumerate(lines, 1) if line.strip()), (1, ""))
    if not header.startswith("%%MatrixMarket"):
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
    symmetric = symmetry == "symmetric"

    linenos, tokens, counts = _body(lines, header_lineno)
    if not linenos.size:
        raise MatrixMarketError(len(lines) + 1, "missing size line")
    size_lineno, last_lineno = linenos[0], linenos[-1]

    if fmt == "coordinate":
        if counts[0] != 3:
            raise MatrixMarketError(size_lineno, "coordinate size line needs 'rows cols nnz'")
        nrows, ncols, nnz = _sizes(tokens[:3], size_lineno,
                                   ("row count", "column count", "entry count"))
        linenos, counts, tokens = linenos[1:], counts[1:], tokens[3:]
        if linenos.size != nnz:
            raise MatrixMarketError(last_lineno, f"expected {nnz} entries, found {linenos.size}")
        _first(counts != 3, linenos, lambda k: "coordinate entry needs 'i j value'")
        rows = _numbers(tokens[0::3], linenos, "row index")
        cols = _numbers(tokens[1::3], linenos, "column index")
        _first((rows < 1) | (rows > nrows) | (cols < 1) | (cols > ncols), linenos,
               lambda k: f"index ({rows[k]}, {cols[k]}) out of range for {nrows}x{ncols}")
        vals = _numbers(tokens[2::3], linenos)
        if symmetric:
            _first(rows < cols, linenos,
                   lambda k: "symmetric storage must list the lower triangle")
            # each entry followed by its mirror image off the diagonal, in file order
            keep = np.repeat(rows != cols, 2)
            keep[0::2] = True
            rows, cols, vals = (np.stack(p, axis=1).ravel()[keep]
                                for p in ((rows, cols), (cols, rows), (vals, vals)))
        too_large = MatrixMarketError(size_lineno, f"size {nrows}x{ncols} too large to allocate")
        if nrows >= np.iinfo(np.intp).max // 8:  # numpy refuses CSR's nrows + 1 row pointers
            raise too_large
        try:
            return SparseMat.from_coo(nrows, ncols, rows - 1, cols - 1, vals)
        except MemoryError:
            raise too_large from None

    # array format: dense values in column-major order
    if counts[0] != 2:
        raise MatrixMarketError(size_lineno, "array size line needs 'rows cols'")
    nrows, ncols = _sizes(tokens[:2], size_lineno, ("row count", "column count"))
    if symmetric and nrows != ncols:
        raise MatrixMarketError(size_lineno, "symmetric array storage requires a square matrix")
    vals = _numbers(tokens[2:], np.repeat(linenos[1:], counts[1:]))
    expected = nrows * (nrows + 1) // 2 if symmetric else nrows * ncols
    if vals.size != expected:
        raise MatrixMarketError(last_lineno, f"expected {expected} values, found {vals.size}")
    dense = np.zeros((nrows, ncols))
    if symmetric:
        # the lower triangle column by column is the upper one row by row, transposed
        cols, rows = np.triu_indices(nrows)
        dense[rows, cols] = dense[cols, rows] = vals
    else:
        dense[:] = vals.reshape((ncols, nrows)).T
    return SparseMat.from_dense(dense)


def write_matrix_market(matrix):
    """Serialize to general coordinate format with 17 significant digits."""
    csr = matrix.scipy()
    rows = np.repeat(np.arange(1, matrix.nrows + 1), np.diff(csr.indptr))
    return "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        f"{matrix.nrows} {matrix.ncols} {matrix.nnz}",
        *map("{} {} {:.17g}".format, rows.tolist(), (csr.indices + 1).tolist(), csr.data.tolist()),
    ]) + "\n"


def load_matrix_market(path):
    return read_matrix_market(Path(path).read_text())


def save_matrix_market(path, matrix):
    Path(path).write_text(write_matrix_market(matrix))


def read_vector(text):
    """Parse a vector from Matrix Market array text or one value per line."""
    if text.lstrip().startswith("%%MatrixMarket"):
        mat = read_matrix_market(text)
        if mat.ncols != 1:
            raise ValueError(f"expected a single-column vector, got {mat.ncols} columns")
        return mat.scipy().toarray().ravel()
    linenos, tokens, counts = _body(text.splitlines(), 0)
    return _numbers(tokens, np.repeat(linenos, counts))


def write_vector(vec):
    return "\n".join(map("{:.17g}".format, np.asarray(vec, dtype=np.float64).tolist())) + "\n"


def load_vector(path):
    return read_vector(Path(path).read_text())
