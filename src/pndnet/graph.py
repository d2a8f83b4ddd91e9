"""Complete-graph propagation matrix and the two-layer GCN applied to nodes.

For the complete graph on P nodes the adjacency-with-self-loops is all-ones,
every degree is P, and the symmetric-normalized propagation matrix collapses
to (1/P) * J exactly. ``gcn_layer_forward_rank1`` exploits that closed form:
one propagation step is a column mean broadcast back to all rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError, UnsupportedGraphError
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
    """Adjacency, degree, and normalized propagation matrices on P nodes."""

    def __init__(self, adjacency: np.ndarray):
        a = np.asarray(adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency must be square, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise ArgumentError("adjacency must be symmetric (undirected graph)")
        if not np.all((a == 0) | (a == 1)):
            raise ArgumentError("adjacency must be binary")
        if np.any(np.diag(a) != 0):
            raise ArgumentError("adjacency must have no self-loops; they are added internally")
        self.p = a.shape[0]
        self.adjacency = a
        self.adjacency_with_loops = a + np.eye(self.p)
        self.degrees = self.adjacency_with_loops.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(self.degrees)
        self.propagation = self.adjacency_with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]
        ones = np.ones((self.p, self.p))
        self.is_complete = np.array_equal(self.adjacency_with_loops, ones)
        if self.is_complete:
            # exact closed form, not the product of square roots
            self.propagation = np.full((self.p, self.p), 1.0 / self.p)

    def propagation_tensor(self, dtype=np.float64) -> Tensor:
        return Tensor(self.propagation.astype(dtype), requires_grad=False)


def build_complete_adjacency(p: int) -> GraphSpec:
    """GraphSpec for the complete graph on ``p`` nodes (propagation = J/p)."""
    if p <= 0:
        raise ArgumentError(f"node count must be positive, got {p}")
    return GraphSpec(np.ones((p, p)) - np.eye(p))


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

    @property
    def depth(self) -> int:
        return len(self.layers)


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


def _node_tensor(nodes) -> Tensor:
    t = nodes.tensor if hasattr(nodes, "tensor") else nodes
    if t.data.ndim != 2:
        raise DimensionError(f"node features must be [P, C], got {t.data.shape}")
    return t


def gcn_layer_forward(g, spec: GraphSpec, layer: GcnLayer) -> Tensor:
    """ReLU(propagation @ G @ W) through the dense propagation matrix."""
    g = _node_tensor(g)
    if g.shape[0] != spec.p:
        raise DimensionError(f"node count {g.shape[0]} != graph size {spec.p}")
    if g.shape[1] != layer.c_in:
        raise DimensionError(f"feature width {g.shape[1]} != layer input {layer.c_in}")
    PROPAGATION_MACS.add(dense_mac_count(spec.p, layer.c_in, layer.c_out))
    prop = spec.propagation_tensor(g.data.dtype)
    return T.relu(T.matmul(T.matmul(prop, g), layer.weight))


def gcn_layer_forward_rank1(g, spec: GraphSpec, layer: GcnLayer) -> Tensor:
    """Fast path for the complete graph: column mean, transform, broadcast.

    Agrees with the dense path within 1e-5 elementwise; costs
    P*Cin + Cin*Cout multiply-adds instead of P^2*Cin + P*Cin*Cout.
    """
    g = _node_tensor(g)
    if not spec.is_complete:
        raise UnsupportedGraphError("rank-1 propagation requires the complete graph")
    if g.shape[0] != spec.p:
        raise DimensionError(f"node count {g.shape[0]} != graph size {spec.p}")
    if g.shape[1] != layer.c_in:
        raise DimensionError(f"feature width {g.shape[1]} != layer input {layer.c_in}")
    PROPAGATION_MACS.add(rank1_mac_count(spec.p, layer.c_in, layer.c_out))
    m = T.mean(g, axis=0, keepdims=True)          # [1, Cin]
    z = T.relu(T.matmul(m, layer.weight))         # [1, Cout]
    return T.broadcast_rows(z, spec.p)


def gcn_forward(nodes, spec: GraphSpec, stack: GcnStack) -> Tensor:
    """Apply the stack sequentially; with depth 0 the nodes pass through."""
    out = _node_tensor(nodes)
    step = gcn_layer_forward_rank1 if stack.use_rank1 else gcn_layer_forward
    for layer in stack.layers:
        out = step(out, spec, layer)
    return out
