"""Region nodes (``region_pool``) and spatial pyramid pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pndnet.tensor as T
from pndnet.errors import ArgumentError
from pndnet.tensor import Rng, Tensor, _pool_bins


def rand_map(rng, h, w, c):
    return Tensor(rng.uniform(-1, 1, (h, w, c)))


def cells(x, grid, factor=1):
    """``region_pool`` as a [grid, grid, C] map of cell means."""
    return T.region_pool(x, grid, factor).data.reshape(grid, grid, x.shape[2])


class TestUpsampleFeatures:
    """With one cell per upsampled pixel, the cell means are the
    nearest-upsampled map itself."""

    def test_factor_two_replication(self):
        rng = Rng(0)
        x = rand_map(rng, 28, 28, 3)
        out = cells(x, 56, 2)
        np.testing.assert_array_equal(out[::2, ::2], x.data)
        np.testing.assert_array_equal(out[1::2, 1::2], x.data)

    def test_identity(self):
        rng = Rng(1)
        x = rand_map(rng, 7, 7, 2)
        np.testing.assert_array_equal(cells(x, 7), x.data)

    def test_channel_means_preserved_for_integer_factors(self):
        rng = Rng(2)
        x = Tensor(rng.integers(0, 100, (6, 6, 3)).astype(np.float64))
        np.testing.assert_allclose(cells(x, 1, 3)[0, 0], x.data.mean(axis=(0, 1)), rtol=1e-15)


class TestExtractRegions:
    """Region cells are the adaptive bins of the upsampled extent."""

    def test_four_disjoint_tiles(self):
        rng = Rng(3)
        x = rand_map(rng, 56, 56, 2)
        expected = [x.data[r0:r1, c0:c1].mean(axis=(0, 1))
                    for r0, r1 in ((0, 28), (28, 56)) for c0, c1 in ((0, 28), (28, 56))]
        np.testing.assert_allclose(T.region_pool(x, 2, 1).data, expected, atol=1e-12)

    def test_single_region_is_whole_map(self):
        rng = Rng(4)
        x = rand_map(rng, 10, 12, 1)
        np.testing.assert_allclose(T.region_pool(x, 1, 1).data[0], x.data.mean(axis=(0, 1)), atol=1e-12)

    def test_adaptive_boundaries_for_odd_extent(self):
        rng = Rng(5)
        x = rand_map(rng, 5, 5, 1)
        out = cells(x, 2)
        np.testing.assert_allclose(out[0, 0], x.data[0:3, 0:3].mean(axis=(0, 1)), atol=1e-12)
        np.testing.assert_allclose(out[1, 1], x.data[2:5, 2:5].mean(axis=(0, 1)), atol=1e-12)

    def test_grid_out_of_range(self):
        rng = Rng(6)
        with pytest.raises(ArgumentError):
            T.region_pool(rand_map(rng, 4, 4, 1), 5, 1)
        with pytest.raises(ArgumentError):
            T.region_pool(rand_map(rng, 4, 4, 1), 0, 1)

    def test_exact_tiling_when_divisible(self):
        # every source pixel lies in exactly one cell, so the area-weighted
        # coverage of each pixel is its factor^2 upsampled copies
        for factor in (1, 2):
            rows = T._coverage_table(12, factor, 3, np.dtype(np.float64))
            areas = (np.ones((3, 3)) * (12 * factor // 3) ** 2).reshape(-1, 1)
            weights = np.einsum("ri,cj->rcij", rows, rows).reshape(9, 144)
            np.testing.assert_allclose((weights * areas).sum(axis=0), factor ** 2)


class TestRegionDescriptors:
    def test_constant_map(self):
        x = Tensor(np.full((8, 8, 3), 2.5))
        out = T.region_pool(x, 2, 2)
        np.testing.assert_allclose(out.data, 2.5)
        assert out.shape == (4, 3)

    def test_single_region_equals_gap(self):
        rng = Rng(8)
        x = rand_map(rng, 6, 6, 4)
        out = T.region_pool(x, 1, 2)
        np.testing.assert_allclose(out.data[0], x.data.mean(axis=(0, 1)), atol=1e-12)

    def test_matches_brute_force_means(self):
        rng = Rng(9)
        x = rand_map(rng, 9, 9, 2)
        out = T.region_pool(x, 3, 1).data
        cell_bounds = [(r, c) for r in _pool_bins(9, 3) for c in _pool_bins(9, 3)]
        for row, ((r0, r1), (c0, c1)) in enumerate(cell_bounds):
            for ch in range(2):
                acc = sum(float(x.data[r, c, ch]) for r in range(r0, r1) for c in range(c0, c1))
                assert abs(out[row, ch] - acc / ((r1 - r0) * (c1 - c0))) < 1e-6


class TestSpp:
    def test_levels_two_three_gives_thirteen_nodes(self):
        rng = Rng(10)
        assert T.spp_max_pool(rand_map(rng, 56, 56, 8), (2, 3)).shape == (13, 8)

    def test_worked_example(self):
        # rows run (level, bin row, bin col): level 1, then level 2 row-major
        x = Tensor(np.arange(1.0, 17.0).reshape(4, 4, 1))
        nodes = T.spp_max_pool(x, (1, 2))
        np.testing.assert_array_equal(nodes.data[:, 0], [16.0, 6.0, 8.0, 14.0, 16.0])

    def test_single_level_one_is_global_max(self):
        rng = Rng(11)
        x = rand_map(rng, 7, 5, 3)
        nodes = T.spp_max_pool(x, (1,))
        np.testing.assert_array_equal(nodes.data[0], x.data.max(axis=(0, 1)))

    def test_empty_levels_rejected(self):
        rng = Rng(12)
        with pytest.raises(ArgumentError):
            T.spp_max_pool(rand_map(rng, 4, 4, 1), ())
        with pytest.raises(ArgumentError):
            T.spp_max_pool(rand_map(rng, 4, 4, 1), (2, 0))

    @settings(max_examples=100, deadline=None)
    @given(levels=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
           extra_h=st.integers(0, 30), extra_w=st.integers(0, 30), c=st.integers(1, 5))
    def test_node_count_independent_of_shape(self, levels, extra_h, extra_w, c):
        # P = sum of n^2 for any map at least as large as the largest level
        h, w = max(levels) + extra_h, max(levels) + extra_w
        nodes = T.spp_max_pool(rand_map(Rng(extra_h * 31 + extra_w), h, w, c), levels)
        assert nodes.shape == (sum(n * n for n in levels), c)

    def test_nodes_dominate_their_bins(self):
        rng = Rng(14)
        x = rand_map(rng, 12, 12, 2)
        nodes = T.spp_max_pool(x, (2, 3))
        row = 0
        for n in (2, 3):
            rows, cols = _pool_bins(12, n), _pool_bins(12, n)
            for r0, r1 in rows:
                for c0, c1 in cols:
                    patch = x.data[r0:r1, c0:c1]
                    node = nodes.data[row]
                    assert np.all(node[None, None, :] >= patch)
                    assert np.all(node == patch.max(axis=(0, 1)))
                    row += 1

    def test_channel_permutation_covariance(self):
        rng = Rng(15)
        x = rand_map(rng, 10, 10, 5)
        perm = Rng(16).permutation(5)
        base = T.spp_max_pool(x, (2, 3)).data
        permuted = T.spp_max_pool(Tensor(x.data[:, :, perm]), (2, 3)).data
        np.testing.assert_array_equal(permuted, base[:, perm])

    def test_nodes_differentiable(self):
        from pndnet.gradcheck import grad_check
        from oracles import separated_maxima

        x = separated_maxima(Rng(17), (6, 6, 2), bins=3)
        err = grad_check(lambda a: T.spp_max_pool(a, (1, 3)), [x])
        assert err < 1e-4
