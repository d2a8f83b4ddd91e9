"""Complete-graph analytics: propagation matrix, collapse, rank-1 fast path."""

import sys
import threading

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.errors import DimensionError
from pndnet.graph import (PROPAGATION_MACS, MacCounter, dense_mac_count,
                          gcn_forward, gcn_layer_forward, gcn_layer_forward_rank1,
                          init_gcn_weights, rank1_mac_count)
from pndnet.tensor import Rng, Tensor


def propagation(p: int, dtype=np.float64) -> np.ndarray:
    """The dense layer's P x P propagation matrix: its output on identity
    nodes through an identity weight, where the ReLU passes every entry."""
    eye = Tensor(np.eye(p, dtype=dtype))
    return gcn_layer_forward(eye, eye).data


class TestAdjacency:
    def test_complete_graph_entries(self):
        np.testing.assert_array_equal(propagation(4), np.full((4, 4), 0.25))

    def test_single_node(self):
        np.testing.assert_array_equal(propagation(1), [[1.0]])

    def test_default_p13(self):
        np.testing.assert_allclose(propagation(13), 1.0 / 13.0, atol=1e-15)
        np.testing.assert_allclose(propagation(13).sum(axis=1), 1.0, atol=1e-9)
        # f32 entries are 1/P rounded once, not a rounded f64 product
        np.testing.assert_array_equal(propagation(13, np.float32), np.float32(1.0 / 13.0))

    @pytest.mark.parametrize("p", range(1, 65))
    def test_row_stochastic(self, p):
        prop = propagation(p)
        np.testing.assert_allclose(prop.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(prop, prop.T)

    def test_nonpositive_count_rejected(self):
        for forward in (gcn_layer_forward, gcn_layer_forward_rank1):
            with pytest.raises(DimensionError):
                forward(Tensor(np.zeros((0, 3))), Tensor(np.eye(3)))


class TestLayerForward:
    def test_mean_then_identity(self):
        g = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        out = gcn_layer_forward(g, Tensor(np.eye(2)))
        np.testing.assert_allclose(out.data, [[1.0, 1.0], [1.0, 1.0]])

    def test_relu_kills_negative_column_mean(self):
        g = Tensor(np.array([[1.0, -4.0], [2.0, 1.0], [3.0, -3.0]]))
        out = gcn_layer_forward(g, Tensor(np.eye(2)))
        np.testing.assert_allclose(out.data[:, 1], 0.0)
        np.testing.assert_allclose(out.data[:, 0], 2.0)

    def test_collapse_rows_identical(self):
        rng = Rng(0)
        g = Tensor(rng.uniform(-1, 1, (13, 32)))
        out = gcn_layer_forward(g, Tensor(rng.uniform(-1, 1, (32, 32)))).data
        assert np.abs(out - out[0]).max() < 1e-6

    def test_shape_errors(self):
        for forward in (gcn_layer_forward, gcn_layer_forward_rank1):
            for nodes, weight in (((4, 2), (3, 3)), ((4, 3, 1), (3, 3)), ((12,), (3, 3)),
                                  ((4, 3), (3,)), ((4, 3), (3, 3, 1))):
                with pytest.raises(DimensionError):
                    forward(Tensor(np.zeros(nodes)), Tensor(np.zeros(weight)))


class TestRank1:
    def test_agrees_with_dense_on_random_instances(self):
        rng = Rng(1)
        for _ in range(20):
            p = int(rng.integers(1, 40))
            c = int(rng.integers(1, 48))
            cout = int(rng.integers(1, 48))
            g = Tensor(rng.uniform(-2, 2, (p, c)))
            weight = Tensor(rng.uniform(-1, 1, (c, cout)))
            dense = gcn_layer_forward(g, weight).data
            fast = gcn_layer_forward_rank1(g, weight).data
            assert np.abs(dense - fast).max() < 1e-5

    def test_single_node_trivial(self):
        g = Tensor(np.array([[1.0, -2.0]]))
        weight = Tensor(np.eye(2))
        np.testing.assert_allclose(gcn_layer_forward_rank1(g, weight).data,
                                   gcn_layer_forward(g, weight).data)

    def test_mac_accounting(self):
        p, c = 13, 2048
        rng = Rng(2)
        g = Tensor(rng.uniform(-1, 1, (p, c)))
        weight = Tensor(rng.uniform(-1, 1, (c, c)))
        # the counter is shared and never reset: a measurement reads its growth
        before = PROPAGATION_MACS.macs
        gcn_layer_forward(g, weight)
        assert PROPAGATION_MACS.macs - before == dense_mac_count(p, c, c) == p * p * c + p * c * c
        before = PROPAGATION_MACS.macs
        gcn_layer_forward_rank1(g, weight)
        assert PROPAGATION_MACS.macs - before == rank1_mac_count(p, c, c) == p * c + c * c
        assert rank1_mac_count(p, c, c) <= p * c + c * c


class TestMacCounter:
    def test_concurrent_adds_all_count(self):
        counter = MacCounter()

        def hammer():
            for _ in range(100_000):
                counter.add(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert counter.macs == 400_000


class TestStackForward:
    def test_two_identity_layers_on_nonnegative_input(self):
        rng = Rng(3)
        g = Tensor(rng.uniform(0.0, 1.0, (5, 4)))
        out = gcn_forward(g, [Tensor(np.eye(4)), Tensor(np.eye(4))]).data
        np.testing.assert_allclose(out, np.broadcast_to(g.data.mean(axis=0), (5, 4)), atol=1e-12)
        assert np.abs(out - out[0]).max() < 1e-6

    def test_depth_zero_passes_through(self):
        g = Tensor(np.arange(6.0).reshape(3, 2))
        out = gcn_forward(g, init_gcn_weights(2, 2, 0, Rng(0)))
        np.testing.assert_array_equal(out.data, g.data)

    def test_depth_one_runs(self):
        rng = Rng(4)
        g = Tensor(rng.uniform(-1, 1, (4, 6)))
        out = gcn_forward(g, init_gcn_weights(6, 6, 1, Rng(1)))
        assert out.shape == (4, 6)

    def test_node_permutation_invariance(self):
        rng = Rng(5)
        g = rng.uniform(-1, 1, (13, 16))
        weights = init_gcn_weights(16, 16, 2, Rng(2), dtype=np.float64)
        base = gcn_forward(Tensor(g), weights).data
        perm = Rng(6).permutation(13)
        permuted = gcn_forward(Tensor(g[perm]), weights).data
        assert np.abs(base - permuted).max() < 1e-6

    def test_width_change_shapes(self):
        rng = Rng(7)
        g = Tensor(rng.uniform(-1, 1, (13, 32)))
        weights = init_gcn_weights(32, 24, 2, Rng(3))
        assert [w.shape for w in weights] == [(32, 24), (24, 24)]
        assert gcn_forward(g, weights).shape == (13, 24)

    def test_rank1_stack_matches_dense_stack(self):
        rng = Rng(8)
        g = rng.uniform(-1, 1, (9, 12))
        weights = init_gcn_weights(12, 12, 2, Rng(4), dtype=np.float64)
        a = gcn_forward(Tensor(g), weights).data
        b = gcn_forward(Tensor(g), weights, rank1=True).data
        assert np.abs(a - b).max() < 1e-5
