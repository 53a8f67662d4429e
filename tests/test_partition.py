import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from tlschwarz import (
    Partition,
    SubdomainMap,
    color_subdomains,
    extend_overlap,
    partition_graph,
    symmetrized_graph,
)

from tlschwarz import partition

from conftest import laplace1d, random_partition, random_spd


def path_graph(n):
    return symmetrized_graph(laplace1d(n))


class TestPartition:
    def test_path7_two_subdomains(self):
        part = partition_graph(path_graph(7), 2)
        np.testing.assert_array_equal(np.flatnonzero(part.owner == 0), [0, 1, 2, 3])
        np.testing.assert_array_equal(np.flatnonzero(part.owner == 1), [4, 5, 6])

    def test_every_node_owned_once(self):
        g = symmetrized_graph(random_spd(60, seed=1))
        for n_sub in (1, 3, 7):
            part = partition_graph(g, n_sub)
            counts = np.bincount(part.owner, minlength=n_sub)
            assert counts.sum() == 60
            assert (counts > 0).all()

    def test_deterministic(self):
        g = symmetrized_graph(random_spd(50, seed=2))
        p1 = partition_graph(g, 5)
        p2 = partition_graph(g, 5)
        np.testing.assert_array_equal(p1.owner, p2.owner)

    def test_singleton_subdomains(self):
        part = partition_graph(path_graph(4), 4)
        assert sorted(np.flatnonzero(part.owner == i).tolist() for i in range(4)) == [
            [0], [1], [2], [3]]

    def test_grid_balance(self):
        from tlschwarz import ProblemSpec, generate

        mat, _ = generate(ProblemSpec("poisson2d", 12))
        part = partition_graph(symmetrized_graph(mat), 9)
        sizes = np.bincount(part.owner)
        assert sizes.max() <= 2 * int(np.ceil(144 / 9))
        assert sizes.min() >= 1

    def test_disconnected_components(self):
        block = sp.block_diag([laplace1d(6).scipy(), laplace1d(3).scipy()]).tocsr()
        from tlschwarz import SparseMat

        g = symmetrized_graph(SparseMat(block, symmetric=True))
        part = partition_graph(g, 3)
        # components must not be split across owners they do not contain
        owners_a = set(part.owner[:6].tolist())
        owners_b = set(part.owner[6:].tolist())
        assert owners_a.isdisjoint(owners_b)
        assert len(owners_a) == 2 and len(owners_b) == 1

    def test_out_of_range_counts(self):
        g = path_graph(5)
        with pytest.raises(ValueError):
            partition_graph(g, 0)
        with pytest.raises(ValueError):
            partition_graph(g, 6)

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Partition(3, np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="out of range"):
            Partition(2, np.array([0, 2]))
        with pytest.raises(ValueError, match="flat vector"):
            Partition(1, np.zeros((2, 2), dtype=int))
        for count in (0, 3):
            with pytest.raises(ValueError, match="subdomain count out of range"):
                Partition(count, np.array([0, 0]))

    def test_subdomain_map_validation(self):
        with pytest.raises(ValueError, match="subdomain 4 has empty interior"):
            SubdomainMap(4, 5, np.array([], dtype=int), (np.array([1]),))
        with pytest.raises(ValueError, match="subdomain 2 has repeated indices"):
            SubdomainMap(2, 5, np.array([0, 1]), (np.array([2, 1]),))


def budgets_by_rescan(sizes, n_parts):
    """The largest-remainder split as a rescan of every component per step."""
    total = sum(sizes)
    quotas = [s * n_parts / total for s in sizes]
    budget = [int(q) for q in quotas]
    if len(sizes) <= n_parts:
        budget = [max(1, b) for b in budget]
    while sum(budget) < n_parts:
        cand = [i for i in range(len(budget)) if budget[i] < sizes[i]]
        i = max(cand, key=lambda i: (quotas[i] - budget[i], sizes[i], -i))
        budget[i] += 1
    while sum(budget) > n_parts:
        floor = 1 if len(sizes) <= n_parts else 0
        cand = [i for i in range(len(budget)) if budget[i] > floor]
        i = min(cand, key=lambda i: (quotas[i] - budget[i], sizes[i], -i))
        budget[i] -= 1
    return budget


class TestComponentBudgets:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=40), st.data())
    def test_matches_rescan(self, sizes, data):
        n_parts = data.draw(st.integers(1, sum(sizes)))
        assert partition._component_budgets(sizes, n_parts) == budgets_by_rescan(sizes, n_parts)

    @pytest.mark.parametrize("n_parts", [2, 1001, 1500, 2000])
    def test_many_isolated_components(self, n_parts):
        # one large component plus 1000 isolated nodes, around N = #components
        sizes = [10000] + [1] * 1000
        budget = partition._component_budgets(sizes, n_parts)
        assert budget == budgets_by_rescan(sizes, n_parts)
        assert sum(budget) == n_parts


class TestOverlap:
    def test_banded7_delta1(self, banded7):
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        maps = extend_overlap(g, part, 1)
        np.testing.assert_array_equal(maps[0].indices, [0, 1, 2, 3])
        np.testing.assert_array_equal(maps[1].indices, [3, 4, 5, 6, 2])
        np.testing.assert_array_equal(maps[0].pou_mask, [1, 1, 1, 0])
        np.testing.assert_array_equal(maps[1].pou_mask, [1, 1, 1, 1, 0])

    def test_banded7_delta2(self, banded7):
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        maps = extend_overlap(g, part, 2)
        np.testing.assert_array_equal(maps[0].indices, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(maps[1].indices, [3, 4, 5, 6, 2, 1])
        np.testing.assert_array_equal(maps[1].layers[0], [2])
        np.testing.assert_array_equal(maps[1].layers[1], [1])
        np.testing.assert_array_equal(maps[1].pou_mask, [1, 1, 1, 1, 0, 0])

    def test_rings_are_exact_distances(self):
        mat = random_spd(80, seed=5)
        g = symmetrized_graph(mat)
        part = random_partition(80, 4, seed=6)
        dist = dijkstra(g, unweighted=True)  # independent all-pairs hop distances
        for delta in (1, 2, 3):
            maps = extend_overlap(g, part, delta)
            for smap in maps:
                d_int = dist[smap.interior].min(axis=0)
                for k, layer in enumerate(smap.layers, start=1):
                    expected = np.nonzero(d_int == k)[0]
                    np.testing.assert_array_equal(layer, expected)

    def test_layers_sorted_ascending(self):
        g = symmetrized_graph(random_spd(40, seed=9))
        maps = extend_overlap(g, partition_graph(g, 4), 2)
        for smap in maps:
            for layer in smap.layers:
                assert np.all(np.diff(layer) > 0)

    def test_saturation_leaves_trailing_layers_empty(self):
        g = path_graph(5)
        part = Partition(1, np.zeros(5, dtype=int))
        maps = extend_overlap(g, part, 3)
        assert maps[0].n_local == 5
        assert all(layer.size == 0 for layer in maps[0].layers)
        assert len(maps[0].layers) == 3

    def test_pou_identity(self):
        n = 70
        g = symmetrized_graph(random_spd(n, seed=12))
        part = random_partition(n, 5, seed=13)
        for delta in (1, 2):
            maps = extend_overlap(g, part, delta)
            total = np.zeros(n)
            for smap in maps:
                total[smap.indices] += smap.pou_mask
            np.testing.assert_array_equal(total, np.ones(n))

    def test_overlap_must_be_positive(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            extend_overlap(g, Partition(1, np.zeros(4, dtype=int)), 0)


class TestColoring:
    def test_two_overlapping_subdomains(self, banded7):
        g = symmetrized_graph(banded7)
        part = Partition(2, np.array([0, 0, 0, 1, 1, 1, 1]))
        k_c, colors = color_subdomains(extend_overlap(g, part, 1))
        assert k_c == 2
        assert colors[0] != colors[1]

    def test_no_subdomains_rejected(self):
        with pytest.raises(ValueError, match="no subdomains to color"):
            color_subdomains([])

    def test_single_subdomain(self):
        g = path_graph(6)
        k_c, colors = color_subdomains(extend_overlap(g, Partition(1, np.zeros(6, dtype=int)), 1))
        assert k_c == 1

    def test_disjoint_subdomains_one_color(self):
        # two components, no overlap reaches across, so one color suffices
        block = sp.block_diag([laplace1d(4).scipy(), laplace1d(4).scipy()]).tocsr()
        from tlschwarz import SparseMat

        g = symmetrized_graph(SparseMat(block, symmetric=True))
        part = Partition(2, np.array([0] * 4 + [1] * 4))
        k_c, _ = color_subdomains(extend_overlap(g, part, 2))
        assert k_c == 1

    def test_coloring_is_valid(self):
        n = 90
        g = symmetrized_graph(random_spd(n, seed=20))
        maps = extend_overlap(g, partition_graph(g, 8), 2)
        k_c, colors = color_subdomains(maps)
        cover = [set(smap.indices.tolist()) for smap in maps]
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                if cover[i] & cover[j]:
                    assert colors[i] != colors[j]
        assert k_c == colors.max() + 1

    def test_kc_bounds_node_multiplicity_colors(self):
        # every node is covered by subdomains of pairwise different colors
        n = 60
        g = symmetrized_graph(random_spd(n, seed=21))
        maps = extend_overlap(g, random_partition(n, 6, seed=22), 1)
        k_c, colors = color_subdomains(maps)
        per_node = [[] for _ in range(n)]
        for smap in maps:
            for node in smap.indices:
                per_node[node].append(colors[smap.index])
        for cs in per_node:
            assert len(cs) == len(set(cs))
            assert len(cs) <= k_c
