"""Sparse CSR matrices, sparsity graphs, block-diagonal SuperLU factors, Matrix Market I/O.

The on-disk format is Matrix Market (coordinate or array, real, general or
symmetric storage).  The writer always emits general coordinate format with 17
significant digits so that a write/read round trip reproduces every float64
exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Largest row count for which an explicit dense copy is allowed.  Everything
# in this package that densifies a block goes through SparseMat.to_dense or
# works on subdomain blocks that are small by construction.
DENSE_GUARD = 5000


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message names the offending line."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class SparseMat:
    """Immutable real sparse matrix in CSR form.

    Column indices are sorted and duplicate-free within each row.  When
    ``symmetric=True`` the stored values are verified to equal those of the
    transpose; construction fails otherwise.
    """

    def __init__(self, csr, symmetric=False):
        if not sp.issparse(csr):
            raise TypeError("expected a scipy sparse matrix")
        csr = csr.tocsr().astype(np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite")
        if symmetric:
            if csr.shape[0] != csr.shape[1]:
                raise ValueError("symmetric flag requires a square matrix")
            if (csr != csr.T).nnz != 0:
                raise ValueError("symmetric flag set but values are not symmetric")
        self._csr = csr
        self.symmetric = bool(symmetric)
        for arr in (csr.data, csr.indices, csr.indptr):
            arr.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals, symmetric=False):
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("column index out of range")
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
        return cls(coo.tocsr(), symmetric=symmetric)

    @classmethod
    def from_dense(cls, arr, symmetric=False):
        arr = np.asarray(arr, dtype=np.float64)
        return cls(sp.csr_matrix(arr), symmetric=symmetric)

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

    @property
    def indptr(self):
        return self._csr.indptr

    @property
    def indices(self):
        return self._csr.indices

    @property
    def data(self):
        return self._csr.data

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

    def is_numerically_symmetric(self):
        if self.nrows != self.ncols:
            return False
        return (self._csr != self._csr.T).nnz == 0

    def as_symmetric(self):
        """Return a copy with the verified symmetry flag set."""
        return SparseMat(self._csr, symmetric=True)

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


def factor_blocks(blocks, symmetric):
    """One SuperLU factor of the block-diagonal matrix of square sparse ``blocks``.

    Returns ``(lu, failed)``, ``failed`` being the first block that fails its
    test or None (``lu`` is None after an exactly zero pivot column).  A
    symmetric block must keep symmetric pivoting with positive pivots, i.e. be
    positive definite; any other block must keep every pivot above
    n * eps * max|U| of that block.  Elimination never couples two blocks.
    The factor keeps no copy of L or U: its ``.L`` and ``.U`` are empty.
    """
    # splu sorts the indices of a CSC argument in place: a single block goes to
    # it as it is only when already CSC in canonical format, else as a copy
    a = sp.block_diag(blocks, format="csc") if len(blocks) > 1 else blocks[0]
    if not (a.format == "csc" and a.has_canonical_format):
        a = sp.csc_matrix(a, copy=True)
    try:
        if symmetric:
            lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        else:
            lu = splu(a)
    except RuntimeError:  # exactly singular: find the block on its own
        failed = [0] if len(blocks) == 1 else [
            i for i, b in enumerate(blocks) if factor_blocks([b], symmetric)[1] is not None]
        if not failed:
            raise
        return None, failed[0]
    del a
    sizes = np.array([b.shape[0] for b in blocks])
    starts = np.cumsum(sizes) - sizes
    pivots = lu.U.diagonal()[lu.perm_c]  # in the original column order
    if symmetric:
        bad = (lu.perm_r != lu.perm_c) | (pivots <= 0)
    else:
        colmax = abs(lu.U).max(axis=0).toarray().ravel()[lu.perm_c]
        limit = sizes * np.finfo(float).eps * np.maximum.reduceat(colmax, starts)
        bad = np.abs(pivots) <= np.repeat(limit, sizes)
    for cached in (lu.L, lu.U):  # CSC copies scipy made at the first read; solve never reads them
        cached.__init__((0, 0))
    bad = np.flatnonzero(bad)
    return lu, (int(np.searchsorted(starts, bad[0], side="right")) - 1 if bad.size else None)


# -- Matrix Market ---------------------------------------------------------


def _tokenize(text):
    """Yield (lineno, tokens) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield lineno, line.split()


def _parse_float(tok, lineno):
    try:
        val = float(tok)
    except ValueError:
        raise MatrixMarketError(lineno, f"expected a real value, got {tok!r}") from None
    if not np.isfinite(val):
        raise MatrixMarketError(lineno, f"non-finite value {tok!r}")
    return val


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise MatrixMarketError(lineno, f"expected an integer {what}, got {tok!r}") from None


def read_matrix_market(text):
    """Parse Matrix Market text into a SparseMat.

    Supports coordinate and array formats, real field, general or symmetric
    storage.  Symmetric storage must list only the lower triangle; it is
    expanded on read and the result carries the verified symmetry flag.
    """
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

    body = [(ln, toks) for ln, toks in _tokenize(text) if ln > header_lineno]
    if not body:
        raise MatrixMarketError(len(lines) + 1, "missing size line")
    size_lineno, size_toks = body[0]
    entries = body[1:]

    if fmt == "coordinate":
        if len(size_toks) != 3:
            raise MatrixMarketError(size_lineno, "coordinate size line needs 'rows cols nnz'")
        nrows = _parse_int(size_toks[0], size_lineno, "row count")
        ncols = _parse_int(size_toks[1], size_lineno, "column count")
        nnz = _parse_int(size_toks[2], size_lineno, "entry count")
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise MatrixMarketError(size_lineno, "negative size")
        if len(entries) != nnz:
            lineno = entries[-1][0] if entries else size_lineno
            raise MatrixMarketError(lineno, f"expected {nnz} entries, found {len(entries)}")
        ri, ci, vi = [], [], []
        for lineno, toks in entries:
            if len(toks) != 3:
                raise MatrixMarketError(lineno, "coordinate entry needs 'i j value'")
            i = _parse_int(toks[0], lineno, "row index")
            j = _parse_int(toks[1], lineno, "column index")
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise MatrixMarketError(lineno, f"index ({i}, {j}) out of range for {nrows}x{ncols}")
            v = _parse_float(toks[2], lineno)
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

    # array format: dense values in column-major order
    if len(size_toks) != 2:
        raise MatrixMarketError(size_lineno, "array size line needs 'rows cols'")
    nrows = _parse_int(size_toks[0], size_lineno, "row count")
    ncols = _parse_int(size_toks[1], size_lineno, "column count")
    if symmetry == "symmetric" and nrows != ncols:
        raise MatrixMarketError(size_lineno, "symmetric array storage requires a square matrix")
    vals = []
    for lineno, toks in entries:
        for tok in toks:
            vals.append(_parse_float(tok, lineno))
    if symmetry == "general":
        expected = nrows * ncols
    else:
        expected = nrows * (nrows + 1) // 2
    if len(vals) != expected:
        lineno = entries[-1][0] if entries else size_lineno
        raise MatrixMarketError(lineno, f"expected {expected} values, found {len(vals)}")
    dense = np.zeros((nrows, ncols))
    if symmetry == "general":
        dense[:] = np.asarray(vals).reshape((ncols, nrows)).T
    else:
        # the lower triangle column by column is the upper one row by row, transposed
        cols, rows = np.triu_indices(nrows)
        dense[rows, cols] = vals
        dense[cols, rows] = vals
    return SparseMat.from_dense(dense, symmetric=(symmetry == "symmetric"))


def write_matrix_market(matrix):
    """Serialize to general coordinate format with 17 significant digits."""
    out = ["%%MatrixMarket matrix coordinate real general"]
    out.append(f"{matrix.nrows} {matrix.ncols} {matrix.nnz}")
    csr = matrix.scipy()
    for i in range(matrix.nrows):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        for j, v in zip(csr.indices[lo:hi], csr.data[lo:hi]):
            out.append(f"{i + 1} {j + 1} {v:.17g}")
    return "\n".join(out) + "\n"


def load_matrix_market(path):
    with open(path, "r") as fh:
        return read_matrix_market(fh.read())


def save_matrix_market(path, matrix):
    with open(path, "w") as fh:
        fh.write(write_matrix_market(matrix))


def read_vector(text):
    """Parse a vector from Matrix Market array text or one value per line."""
    stripped = text.lstrip()
    if stripped.startswith("%%MatrixMarket"):
        mat = read_matrix_market(text)
        if mat.ncols != 1:
            raise ValueError(f"expected a single-column vector, got {mat.ncols} columns")
        return mat.scipy().toarray().ravel()
    vals = []
    for lineno, toks in _tokenize(text):
        for tok in toks:
            vals.append(_parse_float(tok, lineno))
    return np.asarray(vals, dtype=np.float64)


def write_vector(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return "\n".join(f"{v:.17g}" for v in vec) + "\n"


def load_vector(path):
    with open(path, "r") as fh:
        return read_vector(fh.read())
