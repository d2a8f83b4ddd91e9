"""Fast paths against their slow oracles.

* the separable adaptive max pool against the per-bin loop it replaced,
* SPP on the backbone map against SPP on its nearest-upsampled map,
* the fused conv + bias + ReLU op against the three-op chain,
* the block op (conv + bias, pool, then ReLU) against pooling the fused op,
* the one-GEMM im2col conv against the per-kernel-offset loop it replaced,
* both ReLUs against ``np.where(pre > 0, pre, 0)`` on signed zeros.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pndnet.tensor as T
from pndnet.errors import DimensionError, NumericalError
from pndnet.regions import spp
from pndnet.tensor import Rng, Tensor, _accumulate, _pool_bins, _record

DTYPES = (np.float32, np.float64)


def loop_adaptive_max_pool2d(x: Tensor, n: int) -> Tensor:
    """Reference pool: one argmax per bin, first maximum in row-major order."""
    h, w, c = x.data.shape
    rows = _pool_bins(h, n)
    cols = _pool_bins(w, n)
    out = np.empty((n, n, c), dtype=x.data.dtype)
    arg_r = np.empty((n, n, c), dtype=np.intp)
    arg_c = np.empty((n, n, c), dtype=np.intp)
    for r, (r0, r1) in enumerate(rows):
        for cc, (c0, c1) in enumerate(cols):
            patch = x.data[r0:r1, c0:c1, :]
            flat = patch.reshape(-1, c)
            idx = flat.argmax(axis=0)
            out[r, cc] = flat[idx, np.arange(c)]
            pr, pc = np.unravel_index(idx, patch.shape[:2])
            arg_r[r, cc] = pr + r0
            arg_c[r, cc] = pc + c0

    def backward(g):
        dx = np.zeros_like(x.data)
        ch = np.arange(c)
        for r in range(n):
            for cc in range(n):
                np.add.at(dx, (arg_r[r, cc], arg_c[r, cc], ch), g[r, cc])
        _accumulate(x, dx)

    return _record(out, (x,), backward, "loop_adaptive_max_pool2d")


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
    weights = Tensor(Rng(weight_seed).uniform(0.5, 1.5, out.shape).astype(data.dtype))
    T.tensor_sum(T.mul(out, weights)).backward()
    return out.data, x.grad


map_cases = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),     # h, w, c
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.integers(0, 2),
)


class TestSeparablePoolOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=map_cases, n_extra=st.integers(0, 43))
    def test_bit_identical_to_loop(self, case, n_extra):
        h, w, c, seed, dtype, kind = case
        n = 1 + n_extra % (max(h, w) + 3)        # 1 .. a bit above the extent
        data = draw_map(seed, (h, w, c), dtype, ties=kind == 0)
        fast, fast_grad = value_and_grad(lambda a: T.adaptive_max_pool2d(a, n), data, seed + 1)
        slow, slow_grad = value_and_grad(lambda a: loop_adaptive_max_pool2d(a, n), data, seed + 1)
        assert fast.dtype == slow.dtype == dtype
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(fast_grad, slow_grad)

    @pytest.mark.parametrize("shape, n", [((7, 5, 2), 3), ((5, 7, 1), 4), ((3, 2, 2), 5)])
    def test_tie_heavy_overlapping_and_oversized_grids(self, shape, n):
        data = np.zeros(shape)   # every element ties: all gradient goes to bin corners
        fast, fast_grad = value_and_grad(lambda a: T.adaptive_max_pool2d(a, n), data, 0)
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


class TestUpsampleSkipOracle:
    """``spp(upsample_nearest(x, f*h, f*w), L)`` equals ``spp(x, L)``.

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
            return spp(x, levels).tensor

        def upsampled(x):
            return spp(T.upsample_nearest(x, factor * h, factor * w), levels).tensor

        fast, fast_grad = value_and_grad(direct, data, seed + 1)
        slow, slow_grad = value_and_grad(upsampled, data, seed + 1)
        np.testing.assert_array_equal(fast, slow)
        if len(levels) == 1 and h % levels[0] == 0 and w % levels[0] == 0:
            np.testing.assert_array_equal(fast_grad, slow_grad)
        else:
            rtol = 1e-6 if dtype == np.float32 else 1e-14
            np.testing.assert_allclose(fast_grad, slow_grad, rtol=rtol, atol=0)


def chain(x, k, b, pad):
    return T.relu(T.add(T.conv2d(x, k, stride=1, pad=pad), b))


class TestFusedConvBiasRelu:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from(DTYPES), ties=st.booleans(),
           hw=st.integers(1, 7), cin=st.integers(1, 3), cout=st.integers(1, 3),
           ksize=st.sampled_from((1, 3)))
    def test_bit_identical_to_chain(self, seed, dtype, ties, hw, cin, cout, ksize):
        pad = ksize // 2
        results = []
        for op in (T.conv2d_bias_relu, chain):
            x = Tensor(draw_map(seed, (hw, hw, cin), dtype, ties), requires_grad=True)
            k = Tensor(draw_map(seed + 1, (ksize, ksize, cin, cout), dtype, ties), requires_grad=True)
            b = Tensor(draw_map(seed + 2, (cout,), dtype, ties), requires_grad=True)
            out = op(x, k, b, pad=pad)
            weights = Tensor(Rng(seed + 3).uniform(0.5, 1.5, out.shape).astype(dtype))
            T.tensor_sum(T.mul(out, weights)).backward()
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
        with pytest.raises(NumericalError, match="conv2d_bias_relu"):
            T.conv2d_bias_relu(x, k, b, pad=1)

    def test_nan_bias_raises(self):
        x = Tensor(np.ones((2, 2, 1)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(NumericalError, match="conv2d_bias_relu"):
            T.conv2d_bias_relu(x, k, Tensor(np.array([np.nan])))

    def test_bias_shape_checked(self):
        x = Tensor(np.ones((2, 2, 1)))
        k = Tensor(np.ones((1, 1, 1, 2)))
        with pytest.raises(DimensionError, match="bias"):
            T.conv2d_bias_relu(x, k, Tensor(np.ones(3)))


fused_pool_cases = st.tuples(
    st.integers(1, 3), st.integers(0, 1),                  # kernel, pad
    st.integers(1, 8), st.integers(1, 8),                  # cin, cout
    st.integers(0, 9), st.integers(0, 9),                  # rows, cols beyond the smallest map
    st.integers(0, 40),                                    # grid, reduced modulo the map
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.booleans(),
)


def block_value_and_grads(op, seed, dtype, ties, shape, ksize, cout):
    """Output, then input, kernel and bias gradients under distinct upstream weights."""
    x = Tensor(draw_map(seed, shape, dtype, ties), requires_grad=True)
    k = Tensor(draw_map(seed + 1, (ksize, ksize, shape[2], cout), dtype, ties), requires_grad=True)
    b = Tensor(draw_map(seed + 2, (cout,), dtype, ties), requires_grad=True)
    out = op(x, k, b)
    weights = Tensor(Rng(seed + 3).uniform(0.5, 1.5, out.shape).astype(dtype))
    T.tensor_sum(T.mul(out, weights)).backward()
    return out.data, x.grad, k.grad, b.grad


class TestConvBiasPoolRelu:
    """``conv2d_bias_pool_relu`` against ``adaptive_max_pool2d(conv2d_bias_relu(...))``.

    Pooling commutes with ReLU, and where a bin's maximum is positive both
    orders select the same first maximum, so values and all three gradients
    are exact; tie-heavy integer maps exercise the tie-break on both sides of
    the kink.
    """

    @settings(max_examples=200, deadline=None)
    @given(case=fused_pool_cases)
    @example(case=(3, 1, 2, 3, 6, 4, 2, 5, np.float32, False))   # 7x5 map, n=3: overlapping bins
    @example(case=(3, 1, 2, 3, 4, 4, 4, 6, np.float64, True))    # 5x5 map, n=5: identity pool
    def test_bit_identical_to_pooled_chain(self, case):
        ksize, pad, cin, cout, extra_h, extra_w, grid, seed, dtype, ties = case
        h, w = max(ksize - 2 * pad, 1) + extra_h, max(ksize - 2 * pad, 1) + extra_w
        ho, wo = h + 2 * pad - ksize + 1, w + 2 * pad - ksize + 1
        n = 1 + grid % max(ho, wo)
        results = [block_value_and_grads(op, seed, dtype, ties, (h, w, cin), ksize, cout) for op in (
            lambda x, k, b: T.conv2d_bias_pool_relu(x, k, b, n, pad=pad),
            lambda x, k, b: T.adaptive_max_pool2d(T.conv2d_bias_relu(x, k, b, pad=pad), n))]
        (fused, *fused_grads), (reference, *reference_grads) = results
        assert fused.dtype == reference.dtype == dtype
        assert fused.shape == reference.shape and fused.tobytes() == reference.tobytes()
        for got, want in zip(fused_grads, reference_grads):
            assert got.dtype == dtype and np.array_equal(got, want)

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


def loop_conv2d(x: Tensor, kernel: Tensor, stride: int, pad: int) -> Tensor:
    """Reference conv: one [ho*wo, cin] x [cin, cout] GEMM per kernel offset."""
    h, w, cin = x.data.shape
    kh, kw, _, cout = kernel.data.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0)))
    windows = [(u, v, np.s_[u:u + (ho - 1) * stride + 1:stride, v:v + (wo - 1) * stride + 1:stride])
               for u in range(kh) for v in range(kw)]
    out = np.zeros((ho, wo, cout), dtype=x.data.dtype)
    for u, v, win in windows:
        out += (xp[win].reshape(-1, cin) @ kernel.data[u, v]).reshape(ho, wo, cout)

    def backward(g):
        gflat = g.reshape(-1, cout)
        dk = np.zeros_like(kernel.data)
        dxp = np.zeros_like(xp)
        for u, v, win in windows:
            dk[u, v] = xp[win].reshape(-1, cin).T @ gflat
            dxp[win] += (gflat @ kernel.data[u, v].T).reshape(ho, wo, cin)
        _accumulate(kernel, dk)
        _accumulate(x, dxp[pad:pad + h, pad:pad + w])

    return _record(out, (x, kernel), backward, "loop_conv2d")


def conv_value_and_grads(conv, x_data, k_data, weight_seed):
    """Forward value, kernel gradient and input gradient under distinct
    upstream weights."""
    x = Tensor(x_data.copy(), requires_grad=True)
    k = Tensor(k_data.copy(), requires_grad=True)
    out = conv(x, k)
    weights = Tensor(Rng(weight_seed).uniform(0.5, 1.5, out.shape).astype(x_data.dtype))
    T.tensor_sum(T.mul(out, weights)).backward()
    return out.data, k.grad, x.grad


conv_cases = st.tuples(
    st.integers(1, 3), st.integers(0, 2),                  # stride, pad
    st.integers(1, 4), st.integers(1, 4),                  # kh, kw
    st.integers(1, 8), st.integers(1, 8),                  # cin, cout
    st.integers(0, 6), st.integers(0, 6),                  # rows, cols beyond the smallest map
    st.integers(0, 2 ** 32 - 1), st.sampled_from(DTYPES), st.booleans(),
)


class TestIm2colConvOracle:
    """The GEMM sums each output over the (kh, kw, cin) axis in one order, the
    loop over kh*kw partial GEMMs, so forward and kernel gradient agree to
    rounding; the input gradient keeps the loop and is bit-identical."""

    @settings(max_examples=300, deadline=None)
    @given(case=conv_cases)
    @example(case=(1, 0, 2, 3, 4, 5, 0, 0, 3, np.float64, False))   # a 2x3 kernel covering the whole map
    def test_matches_offset_loop(self, case):
        stride, pad, kh, kw, cin, cout, extra_h, extra_w, seed, dtype, ties = case
        # the smallest map that fits the kernel gives a 1x1 output when pad is 0
        h, w = max(kh - 2 * pad, 1) + extra_h, max(kw - 2 * pad, 1) + extra_w
        x_data = draw_map(seed, (h, w, cin), dtype, ties)
        k_data = draw_map(seed + 1, (kh, kw, cin, cout), dtype, ties)
        fast = conv_value_and_grads(lambda a, k: T.conv2d(a, k, stride=stride, pad=pad), x_data, k_data, seed + 2)
        slow = conv_value_and_grads(lambda a, k: loop_conv2d(a, k, stride, pad), x_data, k_data, seed + 2)
        rtol = 1e-6 if dtype == np.float32 else 1e-12
        for got, want in zip(fast[:2], slow[:2]):           # forward, kernel gradient
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()
        np.testing.assert_array_equal(fast[2], slow[2])     # input gradient


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
        out = T.relu(Tensor(pre)).data
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
        x = Tensor(signed_zero_map(seed, (5, 7, cin), dtype) * tiny)
        k = Tensor(signed_zero_map(seed + 1, (3, 3, cin, 4), dtype) * tiny)
        b = Tensor(np.array([-0.0, 1.0, -0.0, -1.0], dtype=dtype))
        pre = T.add(T.conv2d(x, k, pad=1), b).data
        out = T.conv2d_bias_relu(x, k, b, pad=1).data
        assert not np.signbit(out).any()
        assert out.dtype == dtype and out.tobytes() == np.where(pre > 0, pre, 0).astype(dtype).tobytes()
