"""Complete-graph propagation matrix and the two-layer GCN applied to nodes.

The model's graph is the complete graph on its P nodes. With self-loops its
adjacency is all-ones, every degree is P, and the symmetric-normalized
propagation matrix is (1/P) * J exactly. ``gcn_layer_forward_rank1``
exploits that closed form: one propagation step is a column mean broadcast
back to all rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError
from .tensor import Rng, Tensor


@dataclass
class MacCounter:
    """Multiply-add accounting for the propagation paths (bench/acceptance).

    Updates hold a lock, so concurrent propagation counts every multiply-add.
    """

    macs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(self, n: int):
        n = int(n)
        with self._lock:
            self.macs += n

    def reset(self):
        with self._lock:
            self.macs = 0


#: incremented by every propagation forward; reset it around a measurement.
PROPAGATION_MACS = MacCounter()


def dense_mac_count(p: int, c_in: int, c_out: int) -> int:
    """Multiply-adds of the dense path: (P x P)(P x Cin) then (P x Cin)(Cin x Cout)."""
    return p * p * c_in + p * c_in * c_out


def rank1_mac_count(p: int, c_in: int, c_out: int) -> int:
    """Multiply-adds of the rank-1 path: column mean then (1 x Cin)(Cin x Cout)."""
    return p * c_in + c_in * c_out


class GraphSpec:
    """The complete graph on P nodes with self-loops: propagation (1/P) J.

    Every degree is P, so the symmetric normalisation D^-1/2 (A + I) D^-1/2
    is exactly J/P; it is built as such, not as a product of square roots.
    """

    def __init__(self, p: int):
        if p <= 0:
            raise ArgumentError(f"node count must be positive, got {p}")
        self.p = p
        self.propagation = np.full((p, p), 1.0 / p)


def build_complete_adjacency(p: int) -> GraphSpec:
    """GraphSpec for the complete graph on ``p`` nodes (propagation = J/p)."""
    return GraphSpec(p)


@dataclass
class GcnLayer:
    """One graph-convolution layer: ReLU(propagation @ G @ W)."""

    weight: Tensor

    @property
    def c_in(self) -> int:
        return self.weight.shape[0]

    @property
    def c_out(self) -> int:
        return self.weight.shape[1]


def init_gcn_layer(c_in: int, c_out: int, rng: Rng, dtype=np.float32) -> GcnLayer:
    limit = 1.0 / np.sqrt(c_in)
    w = rng.uniform(-limit, limit, (c_in, c_out)).astype(dtype)
    return GcnLayer(Tensor(w, requires_grad=True))


@dataclass
class GcnStack:
    """Ordered GCN layers; length 0-2 covers the ablation configurations."""

    layers: list[GcnLayer] = field(default_factory=list)
    use_rank1: bool = False


def build_gcn_stack(c_in: int, width: int, depth: int, rng: Rng, dtype=np.float32,
                    use_rank1: bool = False) -> GcnStack:
    if depth < 0:
        raise ArgumentError(f"GCN depth must be >= 0, got {depth}")
    layers = []
    cur = c_in
    for i in range(depth):
        layers.append(init_gcn_layer(cur, width, rng.child(f"gcn:{i}"), dtype))
        cur = width
    return GcnStack(layers, use_rank1=use_rank1)


def _check_nodes(g: Tensor, spec: GraphSpec, layer: GcnLayer):
    if g.data.ndim != 2:
        raise DimensionError(f"node features must be [P, C], got {g.data.shape}")
    if g.shape[0] != spec.p:
        raise DimensionError(f"node count {g.shape[0]} != graph size {spec.p}")
    if g.shape[1] != layer.c_in:
        raise DimensionError(f"feature width {g.shape[1]} != layer input {layer.c_in}")


def gcn_layer_forward(g: Tensor, spec: GraphSpec, layer: GcnLayer) -> Tensor:
    """ReLU(propagation @ G @ W) through the dense propagation matrix."""
    _check_nodes(g, spec, layer)
    PROPAGATION_MACS.add(dense_mac_count(spec.p, layer.c_in, layer.c_out))
    prop = Tensor(spec.propagation.astype(g.data.dtype))
    return T.relu(T.matmul(T.matmul(prop, g), layer.weight))


def gcn_layer_forward_rank1(g: Tensor, spec: GraphSpec, layer: GcnLayer) -> Tensor:
    """Fast path for the complete graph: column mean, transform, broadcast.

    Agrees with the dense path within 1e-5 elementwise; costs
    P*Cin + Cin*Cout multiply-adds instead of P^2*Cin + P*Cin*Cout.
    """
    _check_nodes(g, spec, layer)
    PROPAGATION_MACS.add(rank1_mac_count(spec.p, layer.c_in, layer.c_out))
    m = T.mean(g, axis=0, keepdims=True)          # [1, Cin]
    z = T.relu(T.matmul(m, layer.weight))         # [1, Cout]
    return T.broadcast_rows(z, spec.p)


def gcn_forward(nodes: Tensor, spec: GraphSpec, stack: GcnStack) -> Tensor:
    """Apply the stack sequentially; with depth 0 the nodes pass through."""
    step = gcn_layer_forward_rank1 if stack.use_rank1 else gcn_layer_forward
    for layer in stack.layers:
        nodes = step(nodes, spec, layer)
    return nodes
