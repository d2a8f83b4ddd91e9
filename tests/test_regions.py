"""Region extraction, descriptors, and spatial pyramid pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pndnet.tensor as T
from pndnet.errors import ArgumentError
from pndnet.regions import extract_regions, region_descriptors, spp, upsample_features
from pndnet.tensor import Rng, Tensor


def rand_map(rng, h, w, c):
    return Tensor(rng.uniform(-1, 1, (h, w, c)))


class TestUpsampleFeatures:
    def test_factor_two_replication(self):
        rng = Rng(0)
        x = rand_map(rng, 28, 28, 3)
        out = upsample_features(x, 56, 56)
        np.testing.assert_array_equal(out.data[::2, ::2], x.data)
        np.testing.assert_array_equal(out.data[1::2, 1::2], x.data)

    def test_identity(self):
        rng = Rng(1)
        x = rand_map(rng, 7, 9, 2)
        np.testing.assert_array_equal(upsample_features(x, 7, 9).data, x.data)

    def test_channel_means_preserved_for_integer_factors(self):
        rng = Rng(2)
        # integer-valued entries keep the mean sums exact in f64
        x = Tensor(rng.integers(0, 100, (6, 6, 3)).astype(np.float64))
        out = upsample_features(x, 18, 12)
        np.testing.assert_array_equal(out.data.mean(axis=(0, 1)), x.data.mean(axis=(0, 1)))


class TestExtractRegions:
    def test_four_disjoint_tiles(self):
        rng = Rng(3)
        rs = extract_regions(rand_map(rng, 56, 56, 2), 2)
        assert rs.count == 4
        assert rs.intervals == [((0, 28), (0, 28)), ((0, 28), (28, 56)),
                                ((28, 56), (0, 28)), ((28, 56), (28, 56))]

    def test_single_region_is_whole_map(self):
        rng = Rng(4)
        rs = extract_regions(rand_map(rng, 10, 12, 1), 1)
        assert rs.intervals == [((0, 10), (0, 12))]

    def test_adaptive_boundaries_for_odd_extent(self):
        rng = Rng(5)
        rs = extract_regions(rand_map(rng, 5, 5, 1), 2)
        rows = [r for r, _ in rs.intervals[:2]]
        assert rows[0] == (0, 3) and rs.intervals[2][0] == (2, 5)

    def test_grid_out_of_range(self):
        rng = Rng(6)
        with pytest.raises(ArgumentError):
            extract_regions(rand_map(rng, 4, 4, 1), 5)
        with pytest.raises(ArgumentError):
            extract_regions(rand_map(rng, 4, 4, 1), 0)

    def test_descriptor_mode_validated(self):
        rng = Rng(17)
        x = rand_map(rng, 4, 4, 1)
        with pytest.raises(ArgumentError):
            extract_regions(x, 2, mode="max")
        identity_regions = extract_regions(x, 2, mode="identity")
        with pytest.raises(ArgumentError):
            region_descriptors(identity_regions, x)

    def test_exact_tiling_when_divisible(self):
        rng = Rng(7)
        rs = extract_regions(rand_map(rng, 12, 12, 1), 3)
        covered = np.zeros((12, 12), dtype=int)
        for (r0, r1), (c0, c1) in rs.intervals:
            covered[r0:r1, c0:c1] += 1
        np.testing.assert_array_equal(covered, 1)


class TestRegionDescriptors:
    def test_constant_map(self):
        x = Tensor(np.full((8, 8, 3), 2.5))
        rs = extract_regions(x, 2)
        out = region_descriptors(rs, x)
        np.testing.assert_allclose(out.data, 2.5)
        assert out.shape == (4, 3)

    def test_single_region_equals_gap(self):
        rng = Rng(8)
        x = rand_map(rng, 6, 6, 4)
        out = region_descriptors(extract_regions(x, 1), x)
        np.testing.assert_allclose(out.data[0], x.data.mean(axis=(0, 1)), atol=1e-12)

    def test_matches_brute_force_means(self):
        rng = Rng(9)
        x = rand_map(rng, 9, 9, 2)
        rs = extract_regions(x, 3)
        out = region_descriptors(rs, x).data
        for row, ((r0, r1), (c0, c1)) in enumerate(rs.intervals):
            for ch in range(2):
                acc = sum(float(x.data[r, c, ch]) for r in range(r0, r1) for c in range(c0, c1))
                assert abs(out[row, ch] - acc / ((r1 - r0) * (c1 - c0))) < 1e-6


class TestSpp:
    def test_levels_two_three_gives_thirteen_nodes(self):
        rng = Rng(10)
        nf = spp(rand_map(rng, 56, 56, 8), (2, 3))
        assert nf.count == 13
        assert nf.tensor.shape == (13, 8)

    def test_worked_example(self):
        x = Tensor(np.arange(1.0, 17.0).reshape(4, 4, 1))
        nf = spp(x, (1, 2))
        np.testing.assert_array_equal(nf.tensor.data[:, 0], [16.0, 6.0, 8.0, 14.0, 16.0])
        assert nf.provenance == [(1, 0, 0), (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)]

    def test_single_level_one_is_global_max(self):
        rng = Rng(11)
        x = rand_map(rng, 7, 5, 3)
        nf = spp(x, (1,))
        np.testing.assert_array_equal(nf.tensor.data[0], x.data.max(axis=(0, 1)))

    def test_empty_levels_rejected(self):
        rng = Rng(12)
        with pytest.raises(ArgumentError):
            spp(rand_map(rng, 4, 4, 1), ())
        with pytest.raises(ArgumentError):
            spp(rand_map(rng, 4, 4, 1), (2, 0))

    @settings(max_examples=100, deadline=None)
    @given(levels=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
           extra_h=st.integers(0, 30), extra_w=st.integers(0, 30), c=st.integers(1, 5))
    def test_node_count_independent_of_shape(self, levels, extra_h, extra_w, c):
        # P = sum of n^2 for any map at least as large as the largest level
        h, w = max(levels) + extra_h, max(levels) + extra_w
        nf = spp(rand_map(Rng(extra_h * 31 + extra_w), h, w, c), levels)
        assert nf.count == sum(n * n for n in levels) == len(nf.provenance)
        assert nf.tensor.shape == (nf.count, c)

    def test_nodes_dominate_their_bins(self):
        rng = Rng(14)
        x = rand_map(rng, 12, 12, 2)
        nf = spp(x, (2, 3))
        from pndnet.tensor import _pool_bins

        row = 0
        for n in (2, 3):
            rows, cols = _pool_bins(12, n), _pool_bins(12, n)
            for r0, r1 in rows:
                for c0, c1 in cols:
                    patch = x.data[r0:r1, c0:c1]
                    node = nf.tensor.data[row]
                    assert np.all(node[None, None, :] >= patch)
                    assert np.all(node == patch.max(axis=(0, 1)))
                    row += 1

    def test_channel_permutation_covariance(self):
        rng = Rng(15)
        x = rand_map(rng, 10, 10, 5)
        perm = Rng(16).permutation(5)
        base = spp(x, (2, 3)).tensor.data
        permuted = spp(Tensor(x.data[:, :, perm]), (2, 3)).tensor.data
        np.testing.assert_array_equal(permuted, base[:, perm])

    def test_nodes_differentiable(self):
        from pndnet.gradcheck import grad_check
        from pndnet.gradcheck import _separated_maxima

        x = _separated_maxima(Rng(17), (6, 6, 2), bins=3)
        err = grad_check(lambda a: spp(a, (1, 3)).tensor, [x])
        assert err < 1e-4
