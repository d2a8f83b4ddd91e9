"""Complete-graph analytics: propagation matrix, collapse, rank-1 fast path."""

import sys
import threading

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.errors import ArgumentError, DimensionError
from pndnet.graph import (PROPAGATION_MACS, GcnLayer, MacCounter,
                          build_complete_adjacency, build_gcn_stack,
                          dense_mac_count, gcn_forward, gcn_layer_forward,
                          gcn_layer_forward_rank1, rank1_mac_count)
from pndnet.tensor import Rng, Tensor


class TestAdjacency:
    def test_complete_graph_entries(self):
        spec = build_complete_adjacency(4)
        np.testing.assert_array_equal(spec.propagation, np.full((4, 4), 0.25))

    def test_single_node(self):
        spec = build_complete_adjacency(1)
        np.testing.assert_array_equal(spec.propagation, [[1.0]])

    def test_default_p13(self):
        spec = build_complete_adjacency(13)
        np.testing.assert_allclose(spec.propagation, 1.0 / 13.0, atol=1e-15)
        np.testing.assert_allclose(spec.propagation.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("p", range(1, 65))
    def test_row_stochastic(self, p):
        spec = build_complete_adjacency(p)
        np.testing.assert_allclose(spec.propagation.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(spec.propagation, spec.propagation.T)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ArgumentError):
            build_complete_adjacency(0)


class TestLayerForward:
    def test_mean_then_identity(self):
        spec = build_complete_adjacency(2)
        g = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        layer = GcnLayer(Tensor(np.eye(2)))
        out = gcn_layer_forward(g, spec, layer)
        np.testing.assert_allclose(out.data, [[1.0, 1.0], [1.0, 1.0]])

    def test_relu_kills_negative_column_mean(self):
        spec = build_complete_adjacency(3)
        g = Tensor(np.array([[1.0, -4.0], [2.0, 1.0], [3.0, -3.0]]))
        layer = GcnLayer(Tensor(np.eye(2)))
        out = gcn_layer_forward(g, spec, layer)
        np.testing.assert_allclose(out.data[:, 1], 0.0)
        np.testing.assert_allclose(out.data[:, 0], 2.0)

    def test_collapse_rows_identical(self):
        rng = Rng(0)
        spec = build_complete_adjacency(13)
        g = Tensor(rng.uniform(-1, 1, (13, 32)))
        layer = GcnLayer(Tensor(rng.uniform(-1, 1, (32, 32))))
        out = gcn_layer_forward(g, spec, layer).data
        assert np.abs(out - out[0]).max() < 1e-6

    def test_shape_errors(self):
        spec = build_complete_adjacency(4)
        layer = GcnLayer(Tensor(np.eye(3)))
        for forward in (gcn_layer_forward, gcn_layer_forward_rank1):
            for shape in ((5, 3), (4, 2), (4, 3, 1)):
                with pytest.raises(DimensionError):
                    forward(Tensor(np.zeros(shape)), spec, layer)


class TestRank1:
    def test_agrees_with_dense_on_random_instances(self):
        rng = Rng(1)
        for _ in range(20):
            p = int(rng.integers(1, 40))
            c = int(rng.integers(1, 48))
            cout = int(rng.integers(1, 48))
            spec = build_complete_adjacency(p)
            g = Tensor(rng.uniform(-2, 2, (p, c)))
            layer = GcnLayer(Tensor(rng.uniform(-1, 1, (c, cout))))
            dense = gcn_layer_forward(g, spec, layer).data
            fast = gcn_layer_forward_rank1(g, spec, layer).data
            assert np.abs(dense - fast).max() < 1e-5

    def test_single_node_trivial(self):
        spec = build_complete_adjacency(1)
        g = Tensor(np.array([[1.0, -2.0]]))
        layer = GcnLayer(Tensor(np.eye(2)))
        np.testing.assert_allclose(gcn_layer_forward_rank1(g, spec, layer).data,
                                   gcn_layer_forward(g, spec, layer).data)

    def test_mac_accounting(self):
        p, c = 13, 2048
        rng = Rng(2)
        spec = build_complete_adjacency(p)
        g = Tensor(rng.uniform(-1, 1, (p, c)))
        layer = GcnLayer(Tensor(rng.uniform(-1, 1, (c, c))))
        PROPAGATION_MACS.reset()
        gcn_layer_forward(g, spec, layer)
        assert PROPAGATION_MACS.macs == dense_mac_count(p, c, c) == p * p * c + p * c * c
        PROPAGATION_MACS.reset()
        gcn_layer_forward_rank1(g, spec, layer)
        assert PROPAGATION_MACS.macs == rank1_mac_count(p, c, c) == p * c + c * c
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
        counter.reset()
        assert counter.macs == 0


class TestStackForward:
    def test_two_identity_layers_on_nonnegative_input(self):
        rng = Rng(3)
        spec = build_complete_adjacency(5)
        g = Tensor(rng.uniform(0.0, 1.0, (5, 4)))
        stack = build_gcn_stack(4, 4, 2, Rng(0))
        for layer in stack.layers:
            layer.weight = Tensor(np.eye(4))
        out = gcn_forward(g, spec, stack).data
        np.testing.assert_allclose(out, np.broadcast_to(g.data.mean(axis=0), (5, 4)), atol=1e-12)
        assert np.abs(out - out[0]).max() < 1e-6

    def test_depth_zero_passes_through(self):
        spec = build_complete_adjacency(3)
        g = Tensor(np.arange(6.0).reshape(3, 2))
        out = gcn_forward(g, spec, build_gcn_stack(2, 2, 0, Rng(0)))
        np.testing.assert_array_equal(out.data, g.data)

    def test_depth_one_runs(self):
        rng = Rng(4)
        spec = build_complete_adjacency(4)
        g = Tensor(rng.uniform(-1, 1, (4, 6)))
        out = gcn_forward(g, spec, build_gcn_stack(6, 6, 1, Rng(1)))
        assert out.shape == (4, 6)

    def test_node_permutation_invariance(self):
        rng = Rng(5)
        spec = build_complete_adjacency(13)
        g = rng.uniform(-1, 1, (13, 16))
        stack = build_gcn_stack(16, 16, 2, Rng(2), dtype=np.float64)
        base = gcn_forward(Tensor(g), spec, stack).data
        perm = Rng(6).permutation(13)
        permuted = gcn_forward(Tensor(g[perm]), spec, stack).data
        assert np.abs(base - permuted).max() < 1e-6

    def test_width_change_shapes(self):
        rng = Rng(7)
        spec = build_complete_adjacency(13)
        g = Tensor(rng.uniform(-1, 1, (13, 32)))
        stack = build_gcn_stack(32, 24, 2, Rng(3))
        out = gcn_forward(g, spec, stack)
        assert out.shape == (13, 24)

    def test_rank1_stack_matches_dense_stack(self):
        rng = Rng(8)
        spec = build_complete_adjacency(9)
        g = rng.uniform(-1, 1, (9, 12))
        dense_stack = build_gcn_stack(12, 12, 2, Rng(4), dtype=np.float64)
        fast_stack = build_gcn_stack(12, 12, 2, Rng(4), dtype=np.float64, use_rank1=True)
        a = gcn_forward(Tensor(g), spec, dense_stack).data
        b = gcn_forward(Tensor(g), spec, fast_stack).data
        assert np.abs(a - b).max() < 1e-5
