"""Fast paths against their slow oracles.

* the block op's pool, behind an identity conv, against a per-bin loop pool,
* SPP on the backbone map against SPP on its nearest-upsampled map,
* region means of the upsampled map, taken on the backbone map, against a
  brute-force coverage matrix,
* the projection, the block op on a grid of 1x1 bins, against the conv ->
  bias -> ReLU chain,
* the block op (conv + bias, pool, then ReLU) against the loop pool of that
  chain, on both its phase-slab and adaptive paths, with and without a graph,
  in one band and in several,
* the whole-map raster im2col conv against the per-kernel-offset loop,
* the references against central differences,
* both ReLUs against ``np.where(pre > 0, pre, 0)`` on signed zeros,
* the one-op SPP, with and without a graph, against one loop pool, reshape
  and concat per level,
* the one-op head against its chain of GAP, norm, dropout and projection ops,
* the one-op GCN layers, dense and rank-1, against their chains of matmul,
  ReLU (and mean and row broadcast) ops.

The oracles live in ``oracles.py``. Every backbone conv runs through
``conv2d_bias_pool_relu``, which computes its conv in bands of rows; the
oracle ``conv2d`` records the conv step alone, over the whole map in raster
order, as the chains' first op.
"""

import contextlib
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pndnet.tensor as T
from pndnet.errors import ArgumentError, DimensionError, NumericalError
from pndnet.gradcheck import TOLERANCE
from pndnet.graph import gcn_layer_forward, gcn_layer_forward_rank1
from pndnet.head import head_logits, init_head
from pndnet.tensor import Rng, Tensor, _pool_bins

from oracles import (REFERENCE_CHECKS, add, chain, chain_gcn_layer, chain_gcn_layer_rank1,
                     chain_head_logits, chain_spp, conv2d, loop_adaptive_max_pool2d, loop_conv2d,
                     relu, upsample_nearest)

DTYPES = (np.float32, np.float64)


def draw_map(seed: int, shape, dtype, ties: bool) -> np.ndarray:
    """Uniform values, or (``ties``) a few small integers so maxima repeat."""
    rng = Rng(seed)
    if ties:
        return rng.integers(-2, 3, shape).astype(dtype)
    return rng.uniform(-1, 1, shape).astype(dtype)


def value_and_grad(op, data: np.ndarray, weight_seed: int):
    """Forward value and input gradient under distinct upstream weights, so
    a gradient routed to the wrong element cannot go unnoticed."""
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    out.backward(Rng(weight_seed).uniform(0.5, 1.5, out.shape).astype(data.dtype))
    return out.data, x.grad


map_cases = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),     # h, w, c
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.integers(0, 2),
)


def identity_block(x: Tensor, n: int) -> Tensor:
    """The block op with a 1x1 identity kernel and zero bias: on a strictly
    positive map the pre-activation is the map itself and the ReLU passes
    every bin, so the op is its n x n adaptive max pool alone."""
    c = x.data.shape[2]
    kernel = Tensor(np.eye(c, dtype=x.data.dtype).reshape(1, 1, c, c))
    return T.conv2d_bias_pool_relu(x, kernel, Tensor(np.zeros(c, dtype=x.data.dtype)), n)


class TestSeparablePoolOracle:
    """The block op's pool against the loop: separable wherever n does not
    divide both extents (n above the extent included), phase slabs where it
    does."""

    @settings(max_examples=300, deadline=None)
    @given(case=map_cases, n_extra=st.integers(0, 43))
    def test_bit_identical_to_loop(self, case, n_extra):
        h, w, c, seed, dtype, kind = case
        n = 1 + n_extra % (max(h, w) + 3)        # 1 .. a bit above the extent
        data = draw_map(seed, (h, w, c), dtype, ties=kind == 0) + 3   # strictly positive
        fast, fast_grad = value_and_grad(lambda a: identity_block(a, n), data, seed + 1)
        slow, slow_grad = value_and_grad(lambda a: loop_adaptive_max_pool2d(a, n), data, seed + 1)
        assert fast.dtype == slow.dtype == fast_grad.dtype == dtype
        assert fast.tobytes() == slow.tobytes() and fast_grad.tobytes() == slow_grad.tobytes()

    @pytest.mark.parametrize("shape, n", [((7, 5, 2), 3), ((5, 7, 1), 4), ((3, 2, 2), 5)])
    def test_tie_heavy_overlapping_and_oversized_grids(self, shape, n):
        data = np.ones(shape)   # every element ties: all gradient goes to bin corners
        fast, fast_grad = value_and_grad(lambda a: identity_block(a, n), data, 0)
        slow, slow_grad = value_and_grad(lambda a: loop_adaptive_max_pool2d(a, n), data, 0)
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(fast_grad, slow_grad)


class TestPoolBinLaw:
    @given(extent=st.integers(1, 200), n=st.integers(1, 210))
    def test_bins_cover_the_extent(self, extent, n):
        bins = _pool_bins(extent, n)
        starts = [a for a, _ in bins]
        ends = [b for _, b in bins]
        assert len(bins) == n
        assert all(a < b for a, b in bins)                      # non-empty
        assert starts[0] == 0 and ends[-1] == extent
        assert starts == sorted(starts) and ends == sorted(ends)
        assert all(nxt <= end for nxt, end in zip(starts[1:], ends))   # no gaps


class TestBinTableCache:
    @given(extent=st.integers(1, 200), n=st.integers(1, 210))
    def test_cached_equals_fresh_and_is_read_only(self, extent, n):
        table = T._bin_table(extent, n)
        fresh = T._bin_table.__wrapped__(extent, n)
        assert table is T._bin_table(extent, n)
        assert table.dtype == fresh.dtype and table.shape == fresh.shape
        assert table.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 1


class TestUpsampleSkipOracle:
    """``spp_max_pool(upsample_nearest(x, f*h, f*w), L)`` equals
    ``spp_max_pool(x, L)``.

    Each bin of the upsampled map covers exactly the backbone elements of the
    same bin, in the same row-major order, so values and routing agree for
    any levels. Gradients are bit-identical for one level whose bins do not
    overlap. Otherwise several bins can route to one backbone element: the
    upsampled path first sums, per upsampled copy, the bins routed to that
    copy and only then folds the copies onto the element, so the float
    additions group differently and may differ in the last bit.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=map_cases, factor=st.integers(1, 3),
           levels=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    def test_values_and_gradients(self, case, factor, levels):
        h, w, c, seed, dtype, kind = case
        h, w = 1 + h % 12, 1 + w % 12
        data = draw_map(seed, (h, w, c), dtype, ties=kind == 0)

        def direct(x):
            return T.spp_max_pool(x, levels)

        def upsampled(x):
            return T.spp_max_pool(upsample_nearest(x, factor * h, factor * w), levels)

        fast, fast_grad = value_and_grad(direct, data, seed + 1)
        slow, slow_grad = value_and_grad(upsampled, data, seed + 1)
        np.testing.assert_array_equal(fast, slow)
        if len(levels) == 1 and h % levels[0] == 0 and w % levels[0] == 0:
            np.testing.assert_array_equal(fast_grad, slow_grad)
        else:
            rtol = 1e-6 if dtype == np.float32 else 1e-14
            np.testing.assert_allclose(fast_grad, slow_grad, rtol=rtol, atol=0)


def coverage_matrix(h: int, w: int, grid: int, factor: int) -> np.ndarray:
    """[grid^2, h*w] brute-force weights of ``region_pool``: entry (k, i*w + j)
    counts the pixels of cell k of the ``factor``-times upsampled map whose
    nearest source is (i, j), divided by the cell's area."""
    m = np.zeros((grid * grid, h * w))
    cells = [(r, c) for r in _pool_bins(factor * h, grid) for c in _pool_bins(factor * w, grid)]
    for k, ((r0, r1), (c0, c1)) in enumerate(cells):
        for u in range(r0, r1):
            for v in range(c0, c1):
                m[k, (u // factor) * w + v // factor] += 1
        m[k] /= (r1 - r0) * (c1 - c0)
    return m


region_cases = st.tuples(
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 3),       # h, w, c
    st.integers(1, 3), st.integers(0, 2 ** 16),                    # factor, grid before reduction
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES),
)


class TestRegionPoolOracle:
    """``region_pool(x, grid, factor)`` is the linear map M of the cell means
    of x's nearest-upsampled map: values M x and input gradients M^T g, to
    rounding (|x| <= 1)."""

    @settings(max_examples=300, deadline=None)
    @given(case=region_cases)
    @example(case=(5, 7, 2, 1, 0, 1, np.float64))     # grid 1: the baseline's global mean
    @example(case=(3, 3, 2, 3, 8, 2, np.float32))     # grid = factor * h: one cell per upsampled pixel
    @example(case=(5, 3, 1, 2, 3, 3, np.float64))     # 10x6 on a 4x4 grid: cells overlap on both axes
    @example(case=(8, 8, 3, 2, 1, 4, np.float32))     # the tiny model's map, g = 2
    def test_matches_coverage_matrix(self, case):
        h, w, c, factor, grid, seed, dtype = case
        grid = 1 + grid % (factor * min(h, w))
        data = draw_map(seed, (h, w, c), dtype, ties=False)
        out, grad = value_and_grad(lambda a: T.region_pool(a, grid, factor), data, seed + 1)
        weights = Rng(seed + 1).uniform(0.5, 1.5, (grid * grid, c)).astype(dtype)
        m = coverage_matrix(h, w, grid, factor)
        atol = 1e-5 if dtype == np.float32 else 1e-12
        assert out.dtype == grad.dtype == dtype and out.shape == (grid * grid, c)
        np.testing.assert_allclose(out, m @ data.reshape(h * w, c).astype(np.float64), rtol=0, atol=atol)
        np.testing.assert_allclose(grad.reshape(h * w, c), m.T @ weights.astype(np.float64),
                                   rtol=0, atol=atol)

    @given(extent=st.integers(1, 40), factor=st.integers(1, 3), n=st.integers(1, 120),
           dtype=st.sampled_from(DTYPES))
    def test_table_cached_read_only_and_rows_sum_to_one(self, extent, factor, n, dtype):
        n = 1 + (n - 1) % (factor * extent)
        table = T._coverage_table(extent, factor, n, np.dtype(dtype))
        assert table is T._coverage_table(extent, factor, n, np.dtype(dtype))
        assert table.dtype == dtype and table.shape == (n, extent)
        with pytest.raises(ValueError):
            table[0, 0] = 1
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=1e-6)

    def test_rejects_bad_shapes_grids_and_factors(self):
        with pytest.raises(DimensionError):
            T.region_pool(Tensor(np.zeros((4, 4))), 2, 1)
        for grid, factor in ((0, 1), (5, 1), (9, 2), (2, 0), (1, -1)):
            with pytest.raises(ArgumentError):
                T.region_pool(Tensor(np.zeros((4, 6, 1))), grid, factor)
        T.region_pool(Tensor(np.zeros((4, 6, 1))), 8, 2)   # the largest grid a 4-row map allows at factor 2


def projection(x, k, b, pad):
    """The block op on a grid of 1x1 bins, as the backbone runs its projection."""
    return T.conv2d_bias_pool_relu(x, k, b, x.data.shape[0] + 2 * pad - k.data.shape[0] + 1, pad=pad)


class TestFusedConvBiasRelu:
    """The projection: the block op on a grid of 1x1 bins is the conv ->
    bias -> ReLU chain, bit for bit, and rejects the same inputs."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from(DTYPES), ties=st.booleans(),
           hw=st.integers(1, 7), cin=st.integers(1, 3), cout=st.integers(1, 3),
           ksize=st.sampled_from((1, 3)))
    def test_bit_identical_to_chain(self, seed, dtype, ties, hw, cin, cout, ksize):
        pad = ksize // 2
        results = []
        for op in (projection, chain):
            x = Tensor(draw_map(seed, (hw, hw, cin), dtype, ties), requires_grad=True)
            k = Tensor(draw_map(seed + 1, (ksize, ksize, cin, cout), dtype, ties), requires_grad=True)
            b = Tensor(draw_map(seed + 2, (cout,), dtype, ties), requires_grad=True)
            out = op(x, k, b, pad)
            out.backward(Rng(seed + 3).uniform(0.5, 1.5, out.shape).astype(dtype))
            results.append((out.data, x.grad, k.grad, b.grad))
        for fused, reference in zip(*results):
            assert fused.dtype == reference.dtype == dtype
            np.testing.assert_array_equal(fused, reference)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_preactivation_raises(self, sign):
        # the sum of nine f32 values of 3e38 overflows to +-inf; ReLU would map
        # -inf to a finite 0, so the check must look at the pre-activation
        x = Tensor(np.full((3, 3, 1), sign * 3e38, dtype=np.float32))
        k = Tensor(np.ones((3, 3, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(NumericalError, match="conv2d_bias_pool_relu"):
            projection(x, k, b, 1)

    def test_nan_bias_raises(self):
        x = Tensor(np.ones((2, 2, 1)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(NumericalError, match="conv2d_bias_pool_relu"):
            projection(x, k, Tensor(np.array([np.nan])), 0)

    def test_bias_shape_checked(self):
        x = Tensor(np.ones((2, 2, 1)))
        k = Tensor(np.ones((1, 1, 1, 2)))
        with pytest.raises(DimensionError, match="bias"):
            projection(x, k, Tensor(np.ones(3)), 0)


fused_pool_cases = st.tuples(
    st.integers(1, 3), st.integers(0, 1),                  # kernel, pad
    st.integers(1, 8), st.integers(1, 8),                  # cin, cout
    st.integers(0, 9), st.integers(0, 9),                  # rows, cols beyond the smallest map
    st.integers(0, 40),                                    # grid, reduced modulo the map
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.booleans(),
)


def block_case_shape(case) -> tuple[int, int, int]:
    """Input rows and columns of a ``fused_pool_cases`` draw, and its grid."""
    ksize, pad, _, _, extra_h, extra_w, grid = case[:7]
    h, w = max(ksize - 2 * pad, 1) + extra_h, max(ksize - 2 * pad, 1) + extra_w
    ho, wo = h + 2 * pad - ksize + 1, w + 2 * pad - ksize + 1
    return h, w, 1 + grid % max(ho, wo)


def rounding_scale(x: np.ndarray, k: np.ndarray, dpre: np.ndarray, pad: int):
    """Per-element sums of the absolute terms of the block op's input,
    kernel and bias gradients, given the gradient ``dpre`` of its conv
    output: the oracle conv's gradients of |x| and |k| under |dpre|, and
    the sum of |dpre| over the map. Summed in another order, each gradient
    moves by a small multiple of its scale times the unit roundoff."""
    ax, ak = Tensor(np.abs(x), requires_grad=True), Tensor(np.abs(k), requires_grad=True)
    conv2d(ax, ak, pad).backward(np.abs(dpre))
    return ax.grad, ak.grad, np.abs(dpre).sum(axis=(0, 1))


def chain_value_and_grads(x, k, b, n, pad, weights):
    """The loop pool of the conv -> bias -> ReLU chain: output, the input,
    kernel and bias gradients under upstream ``weights``, and the gradient
    of the conv output."""
    x, k, b = (Tensor(a, requires_grad=True) for a in (x, k, b))
    c = conv2d(x, k, pad)
    out = loop_adaptive_max_pool2d(relu(add(c, b)), n)
    out.backward(weights)
    return out.data, (x.grad, k.grad, b.grad), c.grad


def block_value_and_grads(x, k, b, n, pad, weights):
    """The block op's output and its input, kernel and bias gradients under
    upstream ``weights``."""
    x, k, b = (Tensor(a, requires_grad=True) for a in (x, k, b))
    out = T.conv2d_bias_pool_relu(x, k, b, n, pad=pad)
    out.backward(weights)
    return out.data, (x.grad, k.grad, b.grad)


banded_cases = st.tuples(
    st.sampled_from((3, 5, 7)),                            # n: odd, so some band is a remainder
    st.integers(1, 3), st.integers(1, 3),                  # sh, sw: tile rows and columns
    st.sampled_from(((1, 0), (3, 0), (1, 1), (3, 1))),     # kernel, pad
    st.integers(1, 3), st.integers(1, 4),                  # cin, cout
    st.integers(2, 6),                                     # pooled rows per band, reduced below n
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.booleans(),
)


class TestConvBiasPoolRelu:
    """``conv2d_bias_pool_relu`` against the loop pool of the conv -> bias -> ReLU chain.

    Pooling commutes with ReLU, and where a bin's maximum is positive both
    orders select the same first maximum, so values are exact; tie-heavy
    integer maps exercise the tie-break on both sides of the kink. In one
    band the input and kernel gradients are exact too. The bias gradient
    sums the masked pooled gradient in bin order, and across bands the
    kernel and input gradients sum band by band, so those agree with the
    chain to rounding, within ``rounding_scale``.
    """

    @settings(max_examples=200, deadline=None)
    @given(case=fused_pool_cases)
    @example(case=(3, 1, 2, 3, 6, 4, 2, 5, np.float32, False))   # 7x5 map, n=3: overlapping bins
    @example(case=(3, 1, 2, 3, 4, 4, 4, 6, np.float64, True))    # 5x5 map, n=5: identity pool
    @example(case=(3, 1, 2, 3, 7, 5, 1, 11, np.float32, True))   # 8x6 map, n=2: 4x3 tiles
    @example(case=(3, 1, 1, 2, 16, 15, 0, 12, np.float64, True))  # 17x16 map, n=1: 272 phases, uint16 offsets
    @example(case=(3, 1, 2, 2, 7, 6, 1, 13, np.float32, True))   # 8x7 map, n=2: rows divide, columns do not
    @example(case=(1, 0, 2, 1, 2, 8, 2, 0, np.float32, False))   # 3x9 map, n=3, 27 GEMM rows: a partial panel
    def test_bit_identical_to_pooled_chain(self, case):
        ksize, pad, cin, cout, _, _, _, seed, dtype, ties = case
        h, w, n = block_case_shape(case)
        assert (h + 2) * (w + 2) <= T._BAND_ROWS   # the conv output is one band
        x, k, b = (draw_map(seed + i, shape, dtype, ties)
                   for i, shape in enumerate(((h, w, cin), (ksize, ksize, cin, cout), (cout,))))
        weights = Rng(seed + 3).uniform(0.5, 1.5, (n, n, cout)).astype(dtype)
        fused, (dx, dk, db) = block_value_and_grads(x, k, b, n, pad, weights)
        reference, (rx, rk, rb), dpre = chain_value_and_grads(x, k, b, n, pad, weights)
        assert fused.dtype == reference.dtype == dtype
        assert fused.shape == reference.shape and fused.tobytes() == reference.tobytes()
        for got, want in ((dx, rx), (dk, rk)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        rtol = 1e-6 if dtype == np.float32 else 1e-12
        assert db.dtype == dtype and np.all(np.abs(db - rb) <= rtol * rounding_scale(x, k, dpre, pad)[2])

    @settings(max_examples=200, deadline=None)
    @given(case=banded_cases)
    @example(case=(3, 2, 2, (3, 1), 2, 3, 2, 0, np.float32, True))    # 6x6 map: bands of 2 and 1 pooled rows
    @example(case=(7, 3, 1, (1, 0), 1, 2, 3, 1, np.float64, False))   # 21x7 map: 3, 3, 1
    def test_bands_match_the_raster_oracle(self, case):
        # a band size of a few pooled rows splits these small maps into
        # several bands plus a remainder: values stay exact, with and
        # without a graph, and the gradients agree to rounding
        n, sh, sw, (ksize, pad), cin, cout, step, seed, dtype, ties = case
        step = 2 + step % (n - 2)
        h, w = n * sh - 2 * pad + ksize - 1, n * sw - 2 * pad + ksize - 1
        x, k, b = (draw_map(seed + i, shape, dtype, ties)
                   for i, shape in enumerate(((h, w, cin), (ksize, ksize, cin, cout), (cout,))))
        weights = Rng(seed + 3).uniform(0.5, 1.5, (n, n, cout)).astype(dtype)
        reference, want, dpre = chain_value_and_grads(x, k, b, n, pad, weights)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(T, "_BAND_ROWS", step * sh * n * sw)
            fused, got = block_value_and_grads(x, k, b, n, pad, weights)
            with T.no_grad():
                plain = T.conv2d_bias_pool_relu(*(Tensor(a, requires_grad=True) for a in (x, k, b)), n, pad=pad)
        assert plain._backward is None
        for values in (fused, plain.data):
            assert values.dtype == dtype and values.tobytes() == reference.tobytes()
        rtol = 1e-6 if dtype == np.float32 else 1e-12
        for g, r, scale in zip(got, want, rounding_scale(x, k, dpre, pad)):
            assert g.dtype == dtype and np.all(np.abs(g - r) <= rtol * scale)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("bad", [3e38, -3e38, np.nan])
    def test_non_finite_preactivation_raises(self, bad):
        # a 1x1 kernel of 2 doubles one element of a map of ones to +inf,
        # -inf or NaN; the pool selects the 2 before it for -inf and NaN
        x = np.ones((2, 2, 1), dtype=np.float32)
        x[0, 1, 0] = bad
        k = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(NumericalError, match="conv2d_bias_pool_relu"):
            T.conv2d_bias_pool_relu(Tensor(x), k, b, 1)
        for grad_mode in (contextlib.nullcontext, T.no_grad):   # recorded, and no graph under no_grad()
            with grad_mode(), pytest.raises(NumericalError, match="conv2d_bias_pool_relu"):
                T.conv2d_bias_pool_relu(Tensor(x, requires_grad=True), k, b, 1)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("path", ["tiles", "bands", "adaptive"])
    @pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "bias -inf"])
    def test_unselected_non_finite_value_raises_on_every_path(self, bad, path):
        # one bad conv output in the last row of a map of twos: a NaN, a
        # GEMM overflow to +inf, or to -inf (doubling -3e38) or a -inf of
        # the bias (-2e38 on -2e38) that no bin selects; a forward without
        # a graph pools before the bias, and its guard must still see it
        h, n = {"tiles": (8, 2), "bands": (8, 4), "adaptive": (7, 3)}[path]
        x = np.ones((h, h, 1), dtype=np.float32)
        x[-1, 1, 0] = {"nan": np.nan, "+inf": 3e38, "-inf": -3e38, "bias -inf": -1e38}[bad]
        k = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        b = Tensor(np.full(1, -2e38 if bad == "bias -inf" else 0.0, dtype=np.float32))
        with pytest.MonkeyPatch.context() as patch:
            if path == "bands":
                patch.setattr(T, "_BAND_ROWS", 16)   # 4 bands of one row of 2x2 tiles
            for grad, grad_mode in ((True, contextlib.nullcontext), (True, T.no_grad),
                                    (False, contextlib.nullcontext)):
                with grad_mode(), pytest.raises(NumericalError, match="conv2d_bias_pool_relu"):
                    T.conv2d_bias_pool_relu(Tensor(x, requires_grad=grad), k, b, n)

    @pytest.mark.parametrize("n", [2, 4, 6])   # 3x3 tiles, adaptive bins, 1x1 bins
    def test_overflowing_guard_over_finite_values_passes(self, n):
        # channel 0 holds -3e38 under a zero bias, channel 1 values near
        # 3.2e38 under a bias of -3e38: min(conv) + min(bias) overflows,
        # but every biased value is finite, so the op returns its bytes
        rng = Rng(4)
        x = np.stack([rng.uniform(-1, 1, (6, 6)), rng.uniform(3.1e38, 3.3e38, (6, 6))], axis=2).astype(np.float32)
        x[4, 1, 0] = -3e38
        k = Tensor(np.eye(2, dtype=np.float32).reshape(1, 1, 2, 2))
        b = Tensor(np.array([0.0, -3e38], dtype=np.float32))
        with np.errstate(over="ignore"):
            assert np.float32(x.min()) + b.data.min() == -np.inf   # the guard trips
        outputs = []
        for grad, grad_mode in ((True, contextlib.nullcontext), (True, T.no_grad),
                                (False, contextlib.nullcontext)):
            with grad_mode():
                outputs.append(T.conv2d_bias_pool_relu(Tensor(x, requires_grad=grad), k, b, n).data)
        recorded, *plain = outputs
        assert np.isfinite(recorded).all() and (recorded[..., 1] > 0).all()
        for got in plain:
            assert got.tobytes() == recorded.tobytes()

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("n", [2, 4, 8])   # 2x2 tiles, one 4x4 tile per bin, and 1x1 bins
    @pytest.mark.parametrize("view", ["rows", "channels", "transposed"])
    def test_strided_input_equals_contiguous_copy(self, view, n, pad):
        # the window view needs a contiguous buffer: an unpadded band of a
        # strided map is copied first, a padded band is copied anyway
        base = draw_map(7, (16, 16, 6), np.float32, ties=False)
        x = {"rows": base[::2, :8, :2], "channels": base[:8, :8, ::3],
             "transposed": base[:8, :8, :2].transpose(1, 0, 2)}[view]
        assert not x.flags.c_contiguous
        k = draw_map(8, (1 + 2 * pad, 1 + 2 * pad, 2, 3), np.float32, ties=False)
        b = draw_map(9, (3,), np.float32, ties=False)
        weights = Rng(10).uniform(0.5, 1.5, (n, n, 3)).astype(np.float32)
        strided = block_value_and_grads(x, k, b, n, pad, weights)
        contiguous = block_value_and_grads(np.ascontiguousarray(x), k, b, n, pad, weights)
        assert strided[0].tobytes() == contiguous[0].tobytes()
        for got, want in zip(strided[1], contiguous[1]):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(case=fused_pool_cases, zeros=st.booleans())
    @example(case=(3, 1, 2, 3, 7, 5, 1, 11, np.float32, True), zeros=True)   # 8x6 map, n=2: 4x3 tiles
    @example(case=(3, 1, 2, 2, 7, 6, 1, 13, np.float64, True), zeros=True)   # 8x7 map, n=2: adaptive path
    def test_forward_without_graph_equals_recorded(self, case, zeros):
        # without a graph the phase path takes a plain maximum and no offsets;
        # the output bytes must not depend on it, signed zeros included
        ksize, pad, cin, cout, _, _, _, seed, dtype, ties = case
        h, w, n = block_case_shape(case)
        draw = (lambda s, shape: signed_zero_map(s, shape, dtype)) if zeros else (
            lambda s, shape: draw_map(s, shape, dtype, ties))
        arrays = draw(seed, (h, w, cin)), draw(seed + 1, (ksize, ksize, cin, cout)), draw(seed + 2, (cout,))
        outputs = []
        for grad, grad_mode in ((True, contextlib.nullcontext), (True, T.no_grad),
                                (False, contextlib.nullcontext)):
            with grad_mode():
                out = T.conv2d_bias_pool_relu(*(Tensor(a, requires_grad=grad) for a in arrays), n, pad=pad)
            assert (out._backward is not None) == (outputs == [])   # only the first forward records
            outputs.append(out.data)
        recorded, *plain = outputs
        for got in plain:
            assert got.dtype == dtype and got.tobytes() == recorded.tobytes()

    @pytest.mark.parametrize("enter", ["before", "during"])
    def test_records_while_another_thread_is_in_no_grad(self, enter):
        # another thread's no_grad() block, entered before the op or while
        # its first band's GEMM runs and held until the op returns, leaves
        # this thread recording: the op keeps its offsets and backpropagates
        gemm, calls = T._band_gemm, []
        inside, done = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                inside.set()
                done.wait(10)

        other = threading.Thread(target=hold_no_grad)

        def waiting_gemm(*args):
            if enter == "during" and not calls:
                other.start()
            calls.append(len(args[0]))
            assert inside.wait(10)
            return gemm(*args)

        x, k, b = (Tensor(draw_map(s, shape, np.float64, True), requires_grad=True)
                   for s, shape in ((1, (4, 6, 2)), (2, (3, 3, 2, 3)), (3, (3,))))
        if enter == "before":
            other.start()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(T, "_band_gemm", waiting_gemm)
                patch.setattr(T, "_BAND_ROWS", 12)   # two bands of one pooled row
                out = T.conv2d_bias_pool_relu(x, k, b, 2, pad=1)
            assert other.is_alive()   # the block is still open
        finally:
            done.set()
            if other.ident is not None:   # started
                other.join(10)
        assert calls == [12, 12]   # the op ran through the spied GEMM, band by band
        assert not other.is_alive()
        assert out._backward is not None
        out.backward(np.ones_like(out.data))
        assert x.grad is not None and k.grad is not None and b.grad is not None

    @settings(max_examples=150, deadline=None)
    @given(case=fused_pool_cases, step=st.integers(1, 3))
    @example(case=(3, 1, 2, 3, 7, 5, 1, 11, np.float32, True), step=1)    # 8x6 map, n=2: 4x3 tiles
    @example(case=(1, 0, 1, 2, 16, 15, 0, 12, np.float64, False), step=1)  # 17x16 map, n=1: 272 phases
    def test_conv_backward_receives_the_chain_gradient(self, case, step):
        # on small integers every sum is exact in any order, so the three
        # gradients equal the chain's byte for byte only if each band's
        # conv backward receives exactly the chain's gradient of the conv
        # output in its rows: every element written once, selected or not
        # (odd channels are dead; upstream weights take both signs)
        ksize, pad, cin, cout, _, _, _, seed, dtype, _ = case
        h, w, n = block_case_shape(case)
        x = signed_zero_map(seed, (h, w, cin), dtype)
        k = signed_zero_map(seed + 1, (ksize, ksize, cin, cout), dtype)
        b = (signed_zero_map(seed + 2, (cout,), dtype) - 1000 * (np.arange(cout) % 2)).astype(dtype)
        weights = Rng(seed + 3).integers(-3, 4, (n, n, cout)).astype(dtype)
        ho, wo = h + 2 * pad - ksize + 1, w + 2 * pad - ksize + 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(T, "_BAND_ROWS", step * wo * max(ho // n, 1))
            fused, got = block_value_and_grads(x, k, b, n, pad, weights)
        reference, want, _ = chain_value_and_grads(x, k, b, n, pad, weights)
        assert fused.tobytes() == reference.tobytes()
        for g, r in zip(got, want):
            assert g.dtype == dtype and g.tobytes() == r.tobytes()


def conv_value_and_grads(conv, x_data, k_data, weight_seed):
    """Forward value, kernel gradient and input gradient under distinct
    upstream weights."""
    x = Tensor(x_data.copy(), requires_grad=True)
    k = Tensor(k_data.copy(), requires_grad=True)
    out = conv(x, k)
    out.backward(Rng(weight_seed).uniform(0.5, 1.5, out.shape).astype(x_data.dtype))
    return out.data, k.grad, x.grad


conv_cases = st.tuples(
    st.integers(0, 2),                                     # pad
    st.integers(1, 4), st.integers(1, 4),                  # kh, kw
    st.integers(1, 8), st.integers(1, 8),                  # cin, cout
    st.integers(0, 6), st.integers(0, 6),                  # rows, cols beyond the smallest map
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.booleans(),
)


class TestIm2colConvOracle:
    """The raster oracle ``conv2d`` against the per-offset loop. The GEMM
    sums each output over the (kh, kw, cin) axis in one order, the loop over
    kh*kw partial GEMMs, so forward and kernel gradient agree to rounding;
    the input gradient keeps the loop and is bit-identical.

    Rounding error of a sum of products scales with the sum of their absolute
    values, not with the result, which cancellation can make far smaller. So
    each element's bound is ``rtol`` times that sum: the same conv over |x|
    and |k| for the forward, and |cols|^T |g| for the kernel gradient (the
    upstream weights are positive, so that is the |x| conv's kernel gradient).
    """

    @settings(max_examples=300, deadline=None)
    @given(case=conv_cases)
    @example(case=(0, 2, 3, 4, 5, 0, 0, 3, np.float64, False))   # a 2x3 kernel covering the whole map
    @example(case=(0, 2, 4, 8, 1, 0, 0, 8, np.float32, False))   # 64 products cancelling to a 1x1 output
    def test_matches_offset_loop(self, case):
        pad, kh, kw, cin, cout, extra_h, extra_w, seed, dtype, ties = case
        # the smallest map that fits the kernel gives a 1x1 output when pad is 0
        h, w = max(kh - 2 * pad, 1) + extra_h, max(kw - 2 * pad, 1) + extra_w
        x_data = draw_map(seed, (h, w, cin), dtype, ties)
        k_data = draw_map(seed + 1, (kh, kw, cin, cout), dtype, ties)

        def loop(a, k):
            return loop_conv2d(a, k, 1, pad)

        fast = conv_value_and_grads(lambda a, k: conv2d(a, k, pad), x_data, k_data, seed + 2)
        slow = conv_value_and_grads(loop, x_data, k_data, seed + 2)
        scale = conv_value_and_grads(loop, np.abs(x_data), np.abs(k_data), seed + 2)
        rtol = 1e-6 if dtype == np.float32 else 1e-12
        for got, want, cond in zip(fast[:2], slow[:2], scale[:2]):   # forward, kernel gradient
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.all(np.abs(got - want) <= rtol * cond)
        np.testing.assert_array_equal(fast[2], slow[2])     # input gradient


class TestReferenceGradients:
    """The references pass central differences over ten seeds, on the inputs
    their fast forms were once checked on."""

    @staticmethod
    def worst(name: str) -> float:
        return max(REFERENCE_CHECKS[name](seed) for seed in range(10))

    def test_loop_conv2d(self):
        assert self.worst("loop_conv2d") <= TOLERANCE

    def test_loop_adaptive_max_pool2d(self):
        assert self.worst("loop_adaptive_max_pool2d") <= TOLERANCE

    def test_conv2d(self):
        assert self.worst("conv2d") <= TOLERANCE

    def test_upsample_nearest(self):
        assert self.worst("upsample_nearest") <= TOLERANCE


def signed_zero_map(seed: int, shape, dtype) -> np.ndarray:
    """Tie-heavy small integers, where every zero draws its sign at random;
    the first two elements are -0.0 and +0.0."""
    rng = Rng(seed)
    data = rng.integers(-2, 3, shape).astype(dtype)
    data = np.where(data == 0, np.where(rng.uniform(size=shape) < 0.5, -0.0, 0.0), data).astype(dtype)
    data.flat[:2] = (-0.0, 0.0)
    return data


class TestReluSignedZeros:
    """``np.maximum`` may return -0.0 for a -0.0 input; both ReLUs must give
    the bytes of ``np.where(pre > 0, pre, 0)``, which has no -0.0."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from(DTYPES))
    def test_relu(self, seed, dtype):
        pre = signed_zero_map(seed, (5, 7, 3), dtype)
        out = relu(Tensor(pre)).data
        assert not np.signbit(out).any()
        assert out.dtype == dtype and out.tobytes() == np.where(pre > 0, pre, 0).astype(dtype).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from(DTYPES), cin=st.integers(1, 3))
    def test_conv2d_bias_relu(self, seed, dtype, cin):
        # products of tiny values underflow to zeros that keep the product's
        # sign, so the GEMM returns a mix of -0.0 and +0.0 (how many of each
        # depends on how the BLAS accumulates); a -0.0 bias keeps them, and
        # the +-1 biases put values on both sides of the kink
        tiny = np.sqrt(np.nextafter(dtype(0), dtype(1))) / 4   # |product| <= 1/4 of the least subnormal
        x = Tensor(signed_zero_map(seed, (5, 5, cin), dtype) * tiny)
        k = Tensor(signed_zero_map(seed + 1, (3, 3, cin, 4), dtype) * tiny)
        b = Tensor(np.array([-0.0, 1.0, -0.0, -1.0], dtype=dtype))
        pre = add(conv2d(x, k, 1), b).data
        out = projection(x, k, b, 1).data
        assert not np.signbit(out).any()
        assert out.dtype == dtype and out.tobytes() == np.where(pre > 0, pre, 0).astype(dtype).tobytes()


class TestSppMaxPoolOracle:
    """``spp_max_pool`` against the per-level pool -> reshape -> concat chain.

    Both take each bin's first maximum in row-major order, and the op's
    backward scatters each level into its own buffer and accumulates the
    levels in order, as the chain's backward does, so values and input
    gradients are bit-identical: for ties, signed zeros, overlapping bins and
    grids finer than the map.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=map_cases, levels=st.lists(st.integers(1, 14), min_size=1, max_size=3, unique=True))
    @example(case=(8, 8, 3, 5, np.float32, 1), levels=[2, 3])          # the tiny model's map
    @example(case=(7, 5, 2, 6, np.float64, 0), levels=[1, 2, 3])       # overlapping bins, ties
    @example(case=(3, 2, 2, 7, np.float32, 0), levels=[4, 1, 5])       # n above both extents
    def test_bit_identical_to_chain(self, case, levels):
        h, w, c, seed, dtype, kind = case
        h, w = 1 + h % 14, 1 + w % 14
        data = signed_zero_map(seed, (h, w, c), dtype) if kind == 2 else draw_map(
            seed, (h, w, c), dtype, ties=kind == 0)
        fast, fast_grad = value_and_grad(lambda a: T.spp_max_pool(a, levels), data, seed + 1)
        slow, slow_grad = value_and_grad(lambda a: chain_spp(a, levels), data, seed + 1)
        assert fast.dtype == slow.dtype == dtype
        assert fast.shape == slow.shape == (sum(n * n for n in levels), c)
        assert fast.tobytes() == slow.tobytes()
        assert fast_grad.dtype == dtype and fast_grad.tobytes() == slow_grad.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=map_cases, levels=st.lists(st.integers(1, 14), min_size=1, max_size=3, unique=True),
           rectified=st.booleans())
    @example(case=(8, 8, 3, 5, np.float32, 0), levels=[2, 3], rectified=True)     # the tiny model's map
    @example(case=(7, 5, 2, 6, np.float64, 2), levels=[1, 2, 3], rectified=False)  # signed zeros, overlapping bins
    @example(case=(3, 2, 2, 7, np.float32, 2), levels=[4, 1, 5], rectified=True)   # n above both extents
    def test_forward_without_graph_equals_recorded_and_chain(self, case, levels, rectified):
        # without a graph the op takes max reductions and no indices where
        # no element has its sign bit set (``rectified``: the backbone's map,
        # whose zeros are +0.0), and first maxima where one has, since a
        # zero maximum must keep the sign of its bin's first zero; the bytes
        # equal the recorded op's and the chain's either way
        h, w, c, seed, dtype, kind = case
        h, w = 1 + h % 14, 1 + w % 14
        data = signed_zero_map(seed, (h, w, c), dtype) if kind == 2 else draw_map(
            seed, (h, w, c), dtype, ties=kind == 0)
        if rectified:
            data = np.maximum(data, 0) + 0   # zeros as the block op leaves them
            assert not np.signbit(data).any()
        recorded = T.spp_max_pool(Tensor(data, requires_grad=True), levels)
        with T.no_grad():
            plain = T.spp_max_pool(Tensor(data, requires_grad=True), levels)
        chained = chain_spp(Tensor(data), levels)
        assert recorded._backward is not None and plain._backward is None
        for got in (plain.data, chained.data):
            assert got.dtype == dtype and got.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)])
    def test_zero_maximum_keeps_its_first_zeros_sign(self, zeros, dtype):
        # numpy's max returns +0.0 for [-0.0, +0.0]; both modes return the
        # first zero, as the chain's first maximum does
        data = np.array(zeros, dtype=dtype).reshape(1, 2, 1)
        for grad_mode in (contextlib.nullcontext, T.no_grad):
            with grad_mode():
                out = T.spp_max_pool(Tensor(data, requires_grad=True), (1, 2))
            assert out.data.tobytes() == data.reshape(-1)[[0, 0, 1, 0, 1]].tobytes()   # bins 0; 0, 1, 0, 1

    @pytest.mark.parametrize("shape, levels", [((7, 5, 2), (1, 2, 3)), ((3, 2, 2), (4, 5)), ((1, 1, 3), (1, 2))])
    def test_all_ties_route_to_bin_corners(self, shape, levels):
        data = np.zeros(shape)
        fast, fast_grad = value_and_grad(lambda a: T.spp_max_pool(a, levels), data, 0)
        slow, slow_grad = value_and_grad(lambda a: chain_spp(a, levels), data, 0)
        assert fast.tobytes() == slow.tobytes() and fast_grad.tobytes() == slow_grad.tobytes()

    @given(h=st.integers(1, 40), w=st.integers(1, 40), n=st.integers(1, 45))
    def test_table_cached_read_only_and_row_major(self, h, w, n):
        table = T._spp_table(h, w, n)
        assert table is T._spp_table(h, w, n)
        assert table.tobytes() == T._spp_table.__wrapped__(h, w, n).tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 1
        bins = [(r0, r1, c0, c1) for r0, r1 in _pool_bins(h, n) for c0, c1 in _pool_bins(w, n)]
        for row, (r0, r1, c0, c1) in zip(table, bins):
            expected = [r * w + cc for r in range(r0, r1) for cc in range(c0, c1)]
            _, first = np.unique(row, return_index=True)
            assert row[np.sort(first)].tolist() == expected   # repeats only after the first occurrence

    def test_rejects_bad_shapes_and_levels(self):
        with pytest.raises(DimensionError):
            T.spp_max_pool(Tensor(np.zeros((4, 4))), (2,))
        for levels in ((), (2, 0)):
            with pytest.raises(ArgumentError):
                T.spp_max_pool(Tensor(np.zeros((4, 4, 1))), levels)


def head_value_and_grads(op, seed, dtype, mode, norm, rate, detached=False):
    """Logits, the gradients of the node matrix and of each parameter under
    distinct upstream weights, and the next draws of the dropout stream. The
    node matrix has 1, 7 or 13 rows for seeds 0, 1 and 2."""
    head = init_head(12, 5, Rng(seed), dropout_rate=rate, norm=norm, dtype=dtype)
    head.scale.data[:] = Rng(seed + 1).uniform(0.5, 1.5, 12)   # away from the initial ones and zeros
    head.shift.data[:] = Rng(seed + 2).uniform(-0.5, 0.5, 12)
    if detached:
        head = replace(head, **{name: getattr(head, name).detach()
                                for name in ("scale", "shift", "weight", "bias")})
    nodes = Tensor(Rng(seed + 3).uniform(-2, 2, (1 + 6 * seed, 12)).astype(dtype), requires_grad=True)
    rng = Rng(seed + 4)
    logits = op(head, nodes, mode, rng)
    logits.backward(Rng(seed + 5).uniform(0.5, 1.5, logits.shape).astype(dtype))
    grads = [nodes.grad] + [t.grad for _, t in head.parameters()]
    return logits.data, grads, rng.uniform(size=4)


class TestHeadLogitsOracle:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("norm", ["layer", "none"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_chain(self, seed, mode, norm, rate, dtype):
        fused = head_value_and_grads(head_logits, seed, dtype, mode, norm, rate)
        chain = head_value_and_grads(chain_head_logits, seed, dtype, mode, norm, rate)
        assert fused[0].dtype == dtype and fused[0].tobytes() == chain[0].tobytes()
        for got, want in zip(fused[1], chain[1]):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(fused[2], chain[2])   # the same draws consumed

    @pytest.mark.parametrize("norm", ["layer", "none"])
    def test_detached_parameters_get_no_gradient(self, norm):
        fused = head_value_and_grads(head_logits, 3, np.float32, "eval", norm, 0.3, detached=True)
        chain = head_value_and_grads(chain_head_logits, 3, np.float32, "eval", norm, 0.3, detached=True)
        assert all(g is None for g in fused[1][1:])
        assert fused[1][0].tobytes() == chain[1][0].tobytes()

    def test_feature_width_checked(self):
        head = init_head(4, 2, Rng(0))
        # the wrong width, a pooled vector, no nodes
        for shape in ((3, 5), (4,), (0, 4)):
            with pytest.raises(DimensionError, match="node matrix"):
                head_logits(head, Tensor(np.zeros(shape, dtype=np.float32)), "eval")


GCN_OPS = {"dense": (gcn_layer_forward, chain_gcn_layer, "gcn_layer"),
           "rank1": (gcn_layer_forward_rank1, chain_gcn_layer_rank1, "gcn_layer_rank1")}


def gcn_value_and_grads(op, seed, p, dtype, ties, grads):
    """A GCN layer's output and its node and weight gradients under distinct
    upstream weights; ``grads`` names the inputs that require grad."""
    nodes = Tensor(draw_map(seed, (p, 5), dtype, ties), requires_grad="nodes" in grads)
    weight = Tensor(draw_map(seed + 1, (5, 3), dtype, ties), requires_grad="weight" in grads)
    out = op(nodes, weight)
    out.backward(Rng(seed + 2).uniform(0.5, 1.5, out.shape).astype(dtype))
    return out.data, nodes.grad, weight.grad


class TestGcnLayerOracle:
    """``gcn_layer`` and ``gcn_layer_rank1``, each one recorded op, against
    the chains they fuse: the same expressions in the same order, so values
    and gradients are bit-identical, for signed zeros at the ReLU kink
    (``ties``) too, and an input that does not require grad gets no
    gradient work."""

    @pytest.mark.parametrize("grads", [("nodes", "weight"), ("nodes",), ("weight",)])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("p", [1, 4, 13])
    @pytest.mark.parametrize("path", sorted(GCN_OPS))
    def test_bit_identical_to_chain(self, path, p, dtype, grads):
        fused_op, chain_op, _ = GCN_OPS[path]
        for seed in range(4):
            ties = seed % 2 == 1   # small integers: exact zeros before the ReLU
            fused = gcn_value_and_grads(fused_op, seed, p, dtype, ties, grads)
            reference = gcn_value_and_grads(chain_op, seed, p, dtype, ties, grads)
            assert fused[0].dtype == dtype and fused[0].tobytes() == reference[0].tobytes()
            for got, want, name in zip(fused[1:], reference[1:], ("nodes", "weight")):
                assert (got is None) == (want is None) == (name not in grads)
                if got is not None:
                    assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("bad", ["overflow", "-overflow", "nan"])
    @pytest.mark.parametrize("path", sorted(GCN_OPS))
    def test_non_finite_product_raises_naming_the_op(self, path, bad):
        # four nodes of half the f32 maximum: their column sum, and so the
        # rank-1 mean, overflows, and a weight of 3 overflows the dense
        # product; the ReLU would map -inf to a finite 0, so the check looks
        # at the pre-ReLU product. A NaN node spreads to every row of the
        # propagated mean.
        half = np.finfo(np.float32).max / 2
        nodes = np.full((4, 2), -half if bad == "-overflow" else half, dtype=np.float32)
        if bad == "nan":
            nodes[1, 0] = np.nan
        weight = Tensor(3 * np.eye(2, dtype=np.float32), requires_grad=True)
        fused_op, chain_op, name = GCN_OPS[path]
        with pytest.raises(NumericalError):
            chain_op(Tensor(nodes, requires_grad=True), weight)
        for grad_mode in (contextlib.nullcontext, T.no_grad):
            with grad_mode(), pytest.raises(NumericalError, match=f"produced by {name}$"):
                fused_op(Tensor(nodes, requires_grad=True), weight)
