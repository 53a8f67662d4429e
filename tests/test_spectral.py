import numpy as np
import pytest
from scipy.linalg import cholesky, eigh, subspace_angles

from tlschwarz import (
    ProblemSpec,
    build_harmonic,
    extend_overlap,
    extract_local_blocks,
    generate,
    select_harmonic_modes,
    select_pou_modes,
    setup,
    svd_harmonic_modes,
    sym_gevp,
    symmetrized_graph,
)
from tlschwarz.spectral import _fix_signs, _select_above

from conftest import full_harmonic_pencil, interior_mask, laplace1d, random_partition, random_spd

from test_subdomain import fixture_1d3, make_map


def subdomain_pieces(n, n_sub, delta, seed):
    mat = random_spd(n, seed=seed)
    maps = extend_overlap(symmetrized_graph(mat), random_partition(n, n_sub, seed=seed + 1), delta)
    out = []
    for smap in maps:
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        out.append((blocks, interior_mask(smap), build_harmonic(blocks)))
    return out


class TestSymGevp:
    def test_closed_form_2x2(self):
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = np.diag([1.0, 2.0])
        vals, vecs = sym_gevp(b, m)
        expected = np.array([(3 + np.sqrt(3)) / 2, (3 - np.sqrt(3)) / 2])
        np.testing.assert_allclose(vals, expected, rtol=1e-14)
        np.testing.assert_allclose(vecs.T @ m @ vecs, np.eye(2), atol=1e-14)
        for j in range(2):
            resid = b @ vecs[:, j] - vals[j] * (m @ vecs[:, j])
            assert np.abs(resid).max() < 1e-13

    def test_descending_order_and_signs(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 9))
        lhs = x + x.T
        rhs = x @ x.T + 9 * np.eye(9)
        vals, vecs = sym_gevp(lhs, rhs)
        assert np.all(np.diff(vals) <= 0)
        for j in range(9):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sign_ties_go_to_first_index(self):
        vecs = np.array([[-0.5, 0.5, 0.0, 1.0], [0.5, -0.5, -2.0, 0.0]])
        out = _fix_signs(vecs)
        assert out is vecs
        np.testing.assert_array_equal(out, [[0.5, 0.5, 0.0, 1.0], [-0.5, -0.5, 2.0, 0.0]])

    def test_signs_match_column_loop(self):
        rng = np.random.default_rng(4)
        vecs = rng.integers(-3, 4, size=(7, 40)).astype(np.float64)  # many magnitude ties
        expected = vecs.copy()
        for j in range(expected.shape[1]):
            col = expected[:, j]
            if col[np.argmax(np.abs(col))] < 0:
                expected[:, j] = -col
        np.testing.assert_array_equal(_fix_signs(vecs), expected)

    def test_signs_of_empty_blocks(self):
        for shape in ((0, 0), (3, 0)):
            assert _fix_signs(np.zeros(shape)).shape == shape

    def test_residuals_random(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = rng.integers(2, 15)
            x = rng.standard_normal((n, n))
            lhs = 0.5 * (x + x.T)
            y = rng.standard_normal((n, n))
            rhs = y @ y.T + n * np.eye(n)
            vals, vecs = sym_gevp(lhs, rhs)
            resid = lhs @ vecs - rhs @ vecs * vals
            assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(vals).max())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sym_gevp(np.eye(3), np.eye(2))


class TestPouModes:
    def test_1d_fixture_spectrum(self):
        blocks, _ = fixture_1d3()
        basis = select_pou_modes(blocks, threshold=1.4)
        np.testing.assert_allclose(basis.all_values, [1.5, 1.0, 0.0], atol=1e-13)
        assert basis.n_selected == 1
        np.testing.assert_allclose(basis.all_values[:basis.n_selected], [1.5], atol=1e-13)
        assert basis.largest_unselected == pytest.approx(1.0, abs=1e-13)

    def test_threshold_on_eigenvalue_excludes_it(self):
        blocks, _ = fixture_1d3()
        lam = select_pou_modes(blocks, 1.4).all_values[0]
        basis = select_pou_modes(blocks, float(lam))
        assert basis.n_selected == 0
        assert basis.largest_unselected == pytest.approx(lam)

    def test_all_ones_mask_gives_unit_spectrum(self):
        # every node interior: D = I, so the pencil is (A, A)
        blocks = extract_local_blocks(laplace1d(3), make_map([0, 1, 2], [], 3), True)
        basis = select_pou_modes(blocks, threshold=1.1)
        np.testing.assert_allclose(basis.all_values, 1.0, atol=1e-13)
        assert basis.n_selected == 0

    def test_multiplicities_match_rank_counts(self):
        # zeros of the pencil count overlap nodes; ones count the kernel
        # dimension of (A - D A D); both fall out of plain matrix ranks
        for seed in range(6):
            pieces = subdomain_pieces(40, 3, 1, seed=30 + seed)
            for blocks, mask, _ in pieces:
                d, a = np.diag(mask), blocks.a.toarray()
                dad = d @ a @ d
                vals = select_pou_modes(blocks, 1e6).all_values
                n = blocks.n_local
                n_zero = int(np.sum(np.abs(vals) < 1e-8))
                n_one = int(np.sum(np.abs(vals - 1.0) < 1e-8))
                assert n_zero == n - np.linalg.matrix_rank(dad, tol=1e-8)
                assert n_one == n - np.linalg.matrix_rank(a - dad, tol=1e-8)
                assert np.all(vals > -1e-10)

    def test_deflated_mask_energy_bound(self):
        # after removing the selected modes, the masked energy of any vector
        # is at most the largest unselected eigenvalue times its energy
        rng = np.random.default_rng(44)
        for blocks, mask, _ in subdomain_pieces(50, 4, 2, seed=50):
            basis = select_pou_modes(blocks, threshold=1.2)
            z = basis.vectors
            d, a = np.diag(mask), blocks.a.toarray()
            dad = d @ a @ d
            nu = basis.largest_unselected
            for _ in range(20):
                v = rng.standard_normal(blocks.n_local)
                w = v - z @ (z.T @ (a @ v))
                lhs = w @ dad @ w
                rhs = nu * (v @ a @ v)
                assert lhs <= rhs * (1 + 1e-8) + 1e-12

    def test_selected_vectors_a_orthonormal(self):
        for blocks, mask, _ in subdomain_pieces(40, 3, 1, seed=70):
            basis = select_pou_modes(blocks, threshold=1.1)
            if basis.n_selected:
                gram = basis.vectors.T @ blocks.a.toarray() @ basis.vectors
                np.testing.assert_allclose(gram, np.eye(basis.n_selected), atol=1e-10)

    def test_rejects_bad_threshold_and_nonsymmetric(self):
        blocks, _ = fixture_1d3()
        with pytest.raises(ValueError):
            select_pou_modes(blocks, 1.0)
        ns = type(blocks)(
            subdomain=0, a=blocks.a, n_interior=2, layer_sizes=(1,), spd=False
        )
        with pytest.raises(ValueError):
            select_pou_modes(ns, 1.5)


@pytest.mark.parametrize("kwargs, message", [
    ({"tau": float("nan"), "coarse": "gevp"}, "threshold must be positive"),
    ({"tau": float("nan"), "coarse": "svd"}, "threshold must be positive"),
    ({"nu": float("nan")}, "threshold must exceed 1"),
])
def test_nan_threshold_refused(kwargs, message):
    # a comparison with NaN is False: a NaN threshold would select nothing
    mat, _ = generate(ProblemSpec("poisson2d", 12))
    with pytest.raises(ValueError, match=message):
        setup(mat, 4, **kwargs)


def test_select_above_guards_ties():
    # a value a rounding step above the threshold is a tie and stays out; one
    # clearly above it is kept
    threshold = 0.3
    vals = threshold * np.array([1.0 + 1e-11, 1.0 + 1e-13, 1.0])
    assert np.array_equal(_select_above(vals, np.eye(3), threshold), np.eye(3)[:, :1])


class TestHarmonicModes:
    def test_1d_fixture_sigma(self):
        blocks, ext = fixture_1d3()
        basis = select_harmonic_modes(blocks, ext, threshold=0.01)
        assert basis.n_selected == 1
        np.testing.assert_allclose(basis.all_values[:basis.n_selected], [np.sqrt(0.5)], rtol=1e-12)
        # one value per boundary-ring node and none for the inner zeros: with
        # the ring's one mode kept, nothing is left out
        assert basis.all_values.size == blocks.n_boundary == 1
        assert basis.largest_unselected == 0.0
        assert select_harmonic_modes(blocks, ext, threshold=0.8).n_selected == 0

    def test_rank_bounded_by_boundary_ring(self):
        for blocks, _, ext in subdomain_pieces(60, 4, 2, seed=80):
            basis = select_harmonic_modes(blocks, ext, threshold=1e-12)
            assert basis.n_selected <= blocks.n_boundary
            nonzero = np.sum(basis.all_values > 1e-10)
            assert nonzero <= blocks.n_boundary

    def test_matches_cholesky_svd_oracle(self):
        # reduce the pencil by the Cholesky factor of the block and compare
        # both the weighted singular values and the selected span
        tau = 0.15
        for blocks, mask, ext in subdomain_pieces(50, 3, 2, seed=90):
            basis = select_harmonic_modes(blocks, ext, tau)
            a = blocks.a.toarray()
            lfac = cholesky(a, lower=True)
            masked = ext * mask[:, None]
            gram = masked.T @ a @ masked
            lhs = np.zeros_like(a)
            ni = blocks.n_inner
            lhs[ni:, ni:] = 0.5 * (gram + gram.T)
            y = np.linalg.solve(lfac, np.linalg.solve(lfac, lhs).T)
            vals, u = eigh(0.5 * (y + y.T))
            sig = np.sqrt(np.clip(vals[::-1], 0, None))
            nb = blocks.n_boundary
            np.testing.assert_allclose(basis.all_values, sig[:nb], atol=1e-9)
            np.testing.assert_allclose(sig[nb:], 0.0, atol=1e-9)
            k = int(np.sum(sig > tau))
            assert basis.n_selected == k
            if k:
                oracle_vecs = np.linalg.solve(lfac.T, u[:, ::-1][:, :k])
                angles = subspace_angles(basis.vectors, oracle_vecs)
                assert angles.max() < 1e-6

    def test_a_orthonormal(self):
        for blocks, _, ext in subdomain_pieces(40, 3, 1, seed=100):
            basis = select_harmonic_modes(blocks, ext, threshold=0.05)
            if basis.n_selected:
                gram = basis.vectors.T @ blocks.a.toarray() @ basis.vectors
                np.testing.assert_allclose(gram, np.eye(basis.n_selected), atol=1e-10)

    def test_rejects_bad_threshold(self):
        blocks, ext = fixture_1d3()
        with pytest.raises(ValueError):
            select_harmonic_modes(blocks, ext, 0.0)

    def test_rejects_nonsymmetric(self):
        blocks, ext = fixture_1d3()
        ns = type(blocks)(
            subdomain=0, a=blocks.a, n_interior=2, layer_sizes=(1,), spd=False
        )
        with pytest.raises(ValueError, match="require a symmetric block"):
            select_harmonic_modes(ns, ext, 0.1)

    def test_boundary_pencil_matches_full_pencil(self):
        # the n_boundary pencil selects the span of the n_local pencil, and
        # its values are the n_local pencil's but for the n_inner zeros
        mat, _ = generate(ProblemSpec("poisson2d", 20))
        pre = setup(mat, 16, tau=0.1)
        for smap in pre.maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            ext = build_harmonic(blocks)
            basis = select_harmonic_modes(blocks, ext, 0.1)
            sigmas, oracle = full_harmonic_pencil(blocks, interior_mask(smap), ext, 0.1)
            assert basis.n_selected == oracle.shape[1] > 0
            assert subspace_angles(basis.vectors, oracle).max() < 1e-10
            nb = blocks.n_boundary
            assert basis.all_values.size == nb
            np.testing.assert_allclose(basis.all_values, sigmas[:nb], atol=1e-7)
            np.testing.assert_allclose(sigmas[nb:], 0.0, atol=1e-7)


class TestSvdModes:
    def test_1d_fixture(self):
        blocks, ext = fixture_1d3()
        basis = svd_harmonic_modes(blocks, ext, threshold=0.1)
        assert basis.n_selected == 1
        np.testing.assert_allclose(basis.all_values[:basis.n_selected], [np.sqrt(5.0) / 3.0],
                                   rtol=1e-12)
        np.testing.assert_allclose(
            basis.vectors[:, 0], [1 / np.sqrt(5), 2 / np.sqrt(5), 0.0], rtol=1e-12
        )
        assert svd_harmonic_modes(blocks, ext, threshold=0.8).n_selected == 0

    def test_vectors_interior_supported_and_orthonormal(self):
        for blocks, _, ext in subdomain_pieces(50, 4, 2, seed=110):
            basis = svd_harmonic_modes(blocks, ext, threshold=1e-10)
            k = basis.n_selected
            if k:
                np.testing.assert_allclose(
                    basis.vectors.T @ basis.vectors, np.eye(k), atol=1e-12
                )
                assert np.all(basis.vectors[blocks.n_interior:, :] == 0)

    def test_threshold_on_value_excludes_it(self):
        blocks, ext = fixture_1d3()
        sigma = svd_harmonic_modes(blocks, ext, 0.1).all_values[0]
        assert svd_harmonic_modes(blocks, ext, float(sigma)).n_selected == 0

    @pytest.mark.parametrize("threshold", [0.0, -0.1])
    def test_rejects_bad_threshold(self, threshold):
        blocks, ext = fixture_1d3()
        with pytest.raises(ValueError, match="threshold must be positive"):
            svd_harmonic_modes(blocks, ext, threshold)

    def test_empty_boundary(self):
        mat = laplace1d(4)
        smap = make_map(np.arange(4), [np.array([], dtype=np.int64)], 4)
        blocks = extract_local_blocks(mat, smap, mat.symmetric)
        basis = svd_harmonic_modes(blocks, build_harmonic(blocks), 0.1)
        assert basis.n_selected == 0
        assert basis.vectors.shape == (4, 0)


def test_mode_counts_shrink_with_more_overlap():
    from tlschwarz import ProblemSpec, generate, partition_graph

    mat, _ = generate(ProblemSpec("poisson2d", 12))
    g = symmetrized_graph(mat)
    part = partition_graph(g, 4)
    totals = []
    for delta in (1, 3, 5):
        maps = extend_overlap(g, part, delta)
        count = 0
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            basis = select_harmonic_modes(blocks, build_harmonic(blocks), 0.1)
            count += basis.n_selected
        totals.append(count)
    assert totals[0] >= totals[1] >= totals[2]
    assert totals[2] < totals[0]
