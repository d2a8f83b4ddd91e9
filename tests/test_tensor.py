"""Tensor op contracts: worked examples, error paths, and invariants."""

import math
import threading

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.errors import ArgumentError, DimensionError, NumericalError
from pndnet.gradcheck import grad_check
from pndnet.tensor import Rng, Tensor
from oracles import add, conv2d, dropout, layer_norm, matmul, relu, reshape


def t(data, grad=False, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


def pool(x: Tensor, n: int) -> Tensor:
    """One pyramid level: the n x n adaptive max pool of ``spp_max_pool`` as [n, n, C]."""
    return reshape(T.spp_max_pool(x, (n,)), (n, n, x.shape[2]))


class TestMatmul:
    """The chains' matmul, ``oracles.matmul``."""

    def test_identity(self):
        b = t([[5.0, 6.0], [7.0, 8.0]])
        out = matmul(t(np.eye(2)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_direct_arithmetic(self):
        out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = Rng(0)
        a = t(rng.uniform(-1, 1, (3, 4)), grad=True)
        b = t(rng.uniform(-1, 1, (4, 5)))
        T.tensor_sum(matmul(a, b)).backward()
        expected = np.ones((3, 5)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
        err = grad_check(lambda x: matmul(x, b), [a])
        assert err < 1e-4

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))


class TestConv2d:
    """The raster conv oracle, ``oracles.conv2d``: the block op's conv step alone."""

    def test_direct_arithmetic(self):
        x = t(np.arange(1.0, 10.0).reshape(3, 3, 1))
        k = t(np.ones((2, 2, 1, 1)))
        out = conv2d(x, k, 0)
        np.testing.assert_array_equal(out.data[..., 0], [[12.0, 16.0], [24.0, 28.0]])

    def test_one_by_one_identity_kernel(self):
        rng = Rng(1)
        x = t(rng.uniform(-1, 1, (4, 5, 3)))
        k = t(np.eye(3).reshape(1, 1, 3, 3))
        out = conv2d(x, k, 0)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_output_shape_formula(self):
        x = t(np.zeros((7, 9, 2)))
        k = t(np.zeros((3, 3, 2, 4)))
        out = conv2d(x, k, 1)
        assert out.shape == (7 + 2 - 3 + 1, 9 + 2 - 3 + 1, 4)

    def test_kernel_gradient_finite_difference(self):
        rng = Rng(2)
        x = t(rng.uniform(-1, 1, (5, 5, 2)), grad=True)
        k = t(rng.uniform(-1, 1, (3, 3, 2, 3)), grad=True)
        err = grad_check(lambda a, b: conv2d(a, b, 0), [x, k])
        assert err < 1e-4

    def test_kernel_larger_than_padded_input(self):
        x, k, b = t(np.zeros((3, 3, 1))), t(np.zeros((5, 5, 1, 1))), t(np.zeros(1))
        with pytest.raises(DimensionError, match="larger than padded"):
            conv2d(x, k, 0)
        with pytest.raises(DimensionError, match="larger than padded"):
            T.conv2d_bias_pool_relu(x, k, b, 1)


class TestRelu:
    """The chains' ReLU, ``oracles.relu``."""

    def test_examples(self):
        np.testing.assert_array_equal(relu(t([-1.0, 2.0])).data, [0.0, 2.0])
        x = t([[0.5, 1.0], [0.0, 3.0]])
        np.testing.assert_array_equal(relu(x).data, x.data)

    def test_gradient_mask(self):
        x = t([-2.0, -0.5, 0.7, 3.0], grad=True)
        T.tensor_sum(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])
        err = grad_check(relu, [t([-2.0, -0.5, 0.7, 3.0], grad=True)])
        assert err < 1e-4


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_direct_arithmetic(self):
        out = T.softmax(t([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = Rng(3)
        x = rng.uniform(-5, 5, (4, 6))
        base = T.softmax(t(x), axis=1).data
        shifted = T.softmax(t(x + 123.456), axis=1).data
        np.testing.assert_allclose(shifted, base, atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = Rng(4)
        out = T.softmax(t(rng.uniform(-5, 5, (8, 5))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_extreme_inputs_stay_finite(self):
        out = T.softmax(t([[1000.0, -1000.0], [0.0, 800.0]]), axis=1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_bad_axis(self):
        with pytest.raises(ArgumentError):
            T.softmax(t([1.0, 2.0]), axis=5)


class TestAdaptiveMaxPool:
    def test_quadrant_maxima(self):
        x = t(np.arange(1.0, 17.0).reshape(4, 4, 1))
        out = pool(x, 2)
        np.testing.assert_array_equal(out.data[..., 0], [[6.0, 8.0], [14.0, 16.0]])

    def test_global_max(self):
        x = t(np.arange(1.0, 17.0).reshape(4, 4, 1))
        assert pool(x, 1).data.reshape(()) == 16.0

    def test_overlapping_bins_for_odd_extent(self):
        # H=5, n=2: bins [0,3) and [2,5)
        assert T._pool_bins(5, 2) == [(0, 3), (2, 5)]
        x = t(np.arange(25.0).reshape(5, 5, 1))
        out = pool(x, 2)
        assert out.data[0, 0, 0] == x.data[:3, :3].max()
        assert out.data[1, 1, 0] == x.data[2:, 2:].max()

    def test_identity_when_n_equals_extent(self):
        rng = Rng(5)
        x = t(rng.uniform(-1, 1, (4, 4, 2)))
        np.testing.assert_array_equal(pool(x, 4).data, x.data)

    def test_grid_larger_than_extent(self):
        x = t(np.array([[1.0], [2.0]]).reshape(2, 1, 1))
        out = pool(x, 3)
        assert out.shape == (3, 3, 1)

    def test_nonpositive_grid(self):
        with pytest.raises(ArgumentError):
            pool(t(np.zeros((2, 2, 1))), 0)

    def test_gradient_routes_to_first_max_on_ties(self):
        x = t(np.ones((2, 2, 1)), grad=True)
        T.tensor_sum(pool(x, 1)).backward()
        np.testing.assert_array_equal(x.grad[..., 0], [[1.0, 0.0], [0.0, 0.0]])


class TestAvgPoolRegion:
    """``region_pool``: the per-channel mean of each region cell."""

    def test_constant_region(self):
        x = t(np.full((4, 4, 3), 5.0))
        np.testing.assert_array_equal(T.region_pool(x, 1, 1).data, [[5.0] * 3])

    def test_full_extent_equals_gap(self):
        rng = Rng(6)
        x = t(rng.uniform(-1, 1, (6, 5, 4)))
        out = T.region_pool(x, 1, 3)
        np.testing.assert_allclose(out.data[0], x.data.mean(axis=(0, 1)), atol=1e-12)

    def test_matches_scalar_summation_oracle(self):
        # 8x8 upsampled 2x on a 5x5 grid: cell (1, 2) spans upsampled rows
        # [3, 7) and columns [6, 10), i.e. source rows 1, 2, 2, 3 and
        # columns 3, 3, 4, 4
        rng = Rng(7)
        x = t(rng.uniform(-1, 1, (8, 8, 2)))
        out = T.region_pool(x, 5, 2).data[1 * 5 + 2]
        for ch in range(2):
            acc = 0.0
            for r in (1, 2, 2, 3):
                for c in (3, 3, 4, 4):
                    acc += float(x.data[r, c, ch])
            assert abs(out[ch] - acc / 16.0) < 1e-12

    def test_empty_interval(self):
        with pytest.raises(ArgumentError):
            T.region_pool(t(np.zeros((4, 4, 1))), 0, 1)


class TestUpsampleNearest:
    """At one cell per upsampled pixel, ``region_pool`` is nearest upsampling."""

    def test_two_by_two_blocks(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        out = T.region_pool(x, 4, 2).data.reshape(4, 4)
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
        np.testing.assert_array_equal(out, expected)

    def test_identity(self):
        rng = Rng(8)
        x = t(rng.uniform(-1, 1, (5, 5, 2)))
        np.testing.assert_array_equal(T.region_pool(x, 5, 1).data.reshape(5, 5, 2), x.data)

    def test_gradient_is_replication_count(self):
        x = t(np.zeros((2, 2, 1)), grad=True)
        T.tensor_sum(T.region_pool(x, 6, 3)).backward()
        # every source cell feeds 3 output rows and 3 output columns
        np.testing.assert_array_equal(x.grad, np.full((2, 2, 1), 9.0))

    def test_shrink_rejected(self):
        with pytest.raises(ArgumentError):
            T.region_pool(t(np.zeros((4, 4, 1))), 2, 0)


class TestLayerNorm:
    """The oracle ``layer_norm`` runs ``T._normalize``, as ``head_logits`` does."""

    def test_two_point_example(self):
        out = layer_norm(t([1.0, 3.0]), axis=-1, eps=1e-12)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_constant_vector_is_zero(self):
        out = layer_norm(t([4.0, 4.0, 4.0]), axis=-1)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_moments(self):
        rng = Rng(9)
        out = layer_norm(t(rng.uniform(-3, 3, (5, 64))), axis=-1).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)


class TestDropout:
    """The oracle ``dropout`` applies ``T._dropout_factor``, as ``head_logits`` does."""

    def test_rate_zero_identity(self):
        x = t([1.0, 2.0])
        assert dropout(x, 0.0, "train", Rng(0)) is x

    def test_eval_identity(self):
        x = t([1.0, 2.0])
        assert dropout(x, 0.3, "eval") is x

    def test_statistics(self):
        x = t(np.ones(100_000))
        out = dropout(x, 0.3, "train", Rng(42)).data
        zero_fraction = float((out == 0).mean())
        assert abs(zero_fraction - 0.30) < 0.01
        assert abs(out.mean() - 1.0) < 0.02

    def test_rate_one_rejected(self):
        with pytest.raises(ArgumentError):
            dropout(t([1.0]), 1.0, "train", Rng(0))

    def test_fixed_seed_bit_identical_masks(self):
        x = t(np.ones((50, 50)))
        a = dropout(x, 0.3, "train", Rng(123)).data
        b = dropout(x, 0.3, "train", Rng(123)).data
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_sum_of_squares(self):
        x = t([1.0, -2.0, 3.0], grad=True)
        T.tensor_sum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_detached_input_gets_no_gradient(self):
        x = t([1.0, 2.0], grad=True)
        frozen = x.detach()
        y = T.tensor_sum(T.mul(frozen, frozen))
        y.backward()
        assert frozen.grad is None and x.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ArgumentError):
            t([1.0, 2.0], grad=True).backward()

    def test_composite_conv_relu_softmax_ce(self):
        from pndnet.head import cross_entropy

        rng = Rng(12)
        x = t(rng.uniform(0.3, 1.2, (4, 4, 1)), grad=True)
        k = t(rng.uniform(0.2, 0.8, (2, 2, 1, 2)), grad=True)
        bias = t(rng.uniform(-0.1, 0.1, 2), grad=True)
        target = np.zeros((1, 8))
        target[0, 2] = 1.0

        def op(a, b, c):
            z = T.conv2d_bias_pool_relu(a, b, c, 2)   # 3x3 map, overlapping 2x2 bins
            probs = T.softmax(reshape(z, (1, 8)), axis=1)
            return cross_entropy(probs, target).loss

        err = grad_check(op, [x, k, bias])
        assert err < 1e-4

    def test_gradient_accumulates_across_backward_calls(self):
        x = t([2.0], grad=True)
        T.tensor_sum(T.mul(x, x)).backward()
        T.tensor_sum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [8.0])


class TestSgdStep:
    def test_example(self):
        w = t([1.0])
        T.sgd_step(w, t([0.5]), 0.1)
        np.testing.assert_allclose(w.data, [0.95])

    def test_zero_gradient_unchanged(self):
        w = t([[1.0, 2.0]])
        T.sgd_step(w, t([[0.0, 0.0]]), 0.5)
        np.testing.assert_array_equal(w.data, [[1.0, 2.0]])

    def test_linearity(self):
        g1, g2 = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        a = t([1.0, 1.0])
        T.sgd_step(a, Tensor(g1), 0.1)
        T.sgd_step(a, Tensor(g2), 0.1)
        b = t([1.0, 1.0])
        T.sgd_step(b, Tensor(g1 + g2), 0.1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.sgd_step(t([1.0, 2.0]), t([1.0]), 0.1)


class TestFiniteness:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_is_reported(self):
        big = t([1e308])
        with pytest.raises(NumericalError, match="mul"):
            T.mul(big, big)

    def test_finite_ops_pass(self):
        rng = Rng(13)
        x = t(rng.uniform(-100, 100, (10, 10)))
        out = relu(add(x, x))
        assert np.all(np.isfinite(out.data))


class TestRng:
    def test_same_seed_same_sequence(self):
        a, b = Rng(99), Rng(99)
        np.testing.assert_array_equal(a.uniform(size=100), b.uniform(size=100))
        np.testing.assert_array_equal(a.permutation(50), b.permutation(50))

    def test_children_are_independent_and_stable(self):
        a = Rng(5).child("weights")
        b = Rng(5).child("weights")
        c = Rng(5).child("dropout")
        np.testing.assert_array_equal(a.uniform(size=10), b.uniform(size=10))
        assert not np.array_equal(Rng(5).child("weights").uniform(size=10),
                                  c.uniform(size=10))

    def test_algorithm_is_named(self):
        assert Rng.ALGORITHM == "pcg64"


class TestBroadcasting:
    """The oracle ``add`` reduces with ``T._unbroadcast``, as ``mul`` and ``head_logits`` do."""

    def test_add_bias_gradient_unbroadcasts(self):
        x = t(np.ones((3, 4)), grad=True)
        b = t(np.ones(4), grad=True)
        T.tensor_sum(add(x, b)).backward()
        np.testing.assert_array_equal(b.grad, [3.0] * 4)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_no_grad_disables_recording(self):
        x = t([1.0], grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad and y._parents == ()


def recording() -> bool:
    return T.mul(t([1.0], grad=True), t([2.0])).requires_grad


class TestNoGrad:
    def test_nested_blocks_restore_recording(self):
        with T.no_grad():
            with T.no_grad():
                assert not recording()
            assert not recording()
        assert recording() and T._GRAD_ENABLED

    def test_exception_inside_block_restores_recording(self):
        with pytest.raises(ValueError):
            with T.no_grad():
                raise ValueError("inside")
        assert recording() and T._GRAD_ENABLED

    def test_overlapping_blocks_in_two_threads_restore_recording(self):
        # A enters, B enters, A exits, B exits
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def thread_a():
            with T.no_grad():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def thread_b():
            a_in.wait(10)
            with T.no_grad():
                b_in.set()
                a_out.wait(10)
                seen.append(T._GRAD_ENABLED)   # B's block is still open

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(10)
        assert not any(th.is_alive() for th in threads)
        assert a_in.is_set() and b_in.is_set() and a_out.is_set()
        assert seen == [False]
        assert recording() and T._GRAD_ENABLED

    def test_thread_started_inside_a_block_records(self):
        # a new thread starts with recording on, whatever its parent's state
        seen = []
        with T.no_grad():
            child = threading.Thread(target=lambda: seen.append((recording(), T._GRAD_ENABLED)))
            child.start()
            child.join(10)
            assert not recording()
        assert seen == [(True, True)]
