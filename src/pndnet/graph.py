"""Complete-graph propagation and the GCN layers applied to the node matrix.

The model's graph is the complete graph on its P nodes, P being the node
matrix's row count. With self-loops its adjacency is all-ones, every degree
is P, and the symmetric normalisation D^-1/2 (A + I) D^-1/2 is (1/P) * J
exactly; the dense layer builds it as such, not as a product of square
roots. ``gcn_layer_forward_rank1`` exploits that closed form: one
propagation step is a column mean broadcast back to all rows. A layer is
its [Cin, Cout] weight, and a stack is a list of them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DimensionError
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


#: incremented by every propagation forward; a measurement reads its growth.
PROPAGATION_MACS = MacCounter()


def dense_mac_count(p: int, c_in: int, c_out: int) -> int:
    """Multiply-adds of the dense path: (P x P)(P x Cin) then (P x Cin)(Cin x Cout)."""
    return p * p * c_in + p * c_in * c_out


def rank1_mac_count(p: int, c_in: int, c_out: int) -> int:
    """Multiply-adds of the rank-1 path: column mean then (1 x Cin)(Cin x Cout)."""
    return p * c_in + c_in * c_out


def init_gcn_weights(c_in: int, width: int, depth: int, rng: Rng, dtype=np.float32) -> list[Tensor]:
    """``depth`` layer weights, [c_in, width] then [width, width], each drawn
    from its own ``gcn:{i}`` child stream; depth 0 is the empty list."""
    weights = []
    for i in range(depth):
        limit = 1.0 / np.sqrt(c_in)
        w = rng.child(f"gcn:{i}").uniform(-limit, limit, (c_in, width)).astype(dtype)
        weights.append(Tensor(w, requires_grad=True))
        c_in = width
    return weights


def _check_nodes(nodes: Tensor, weight: Tensor):
    if nodes.data.ndim != 2 or nodes.shape[0] == 0:
        raise DimensionError(
            f"node features must be [P, C] with P >= 1, got {nodes.data.shape}")
    if weight.data.ndim != 2:
        raise DimensionError(f"layer weight must be [Cin, Cout], got {weight.data.shape}")
    if nodes.shape[1] != weight.shape[0]:
        raise DimensionError(f"feature width {nodes.shape[1]} != layer input {weight.shape[0]}")


def gcn_layer_forward(nodes: Tensor, weight: Tensor) -> Tensor:
    """ReLU((J/P) @ G @ W) through the dense propagation matrix, P = G's rows."""
    _check_nodes(nodes, weight)
    p = nodes.shape[0]
    PROPAGATION_MACS.add(dense_mac_count(p, *weight.shape))
    prop = Tensor(np.full((p, p), 1.0 / p, dtype=nodes.data.dtype))
    return T.relu(T.matmul(T.matmul(prop, nodes), weight))


def gcn_layer_forward_rank1(nodes: Tensor, weight: Tensor) -> Tensor:
    """Fast path for the complete graph: column mean, transform, broadcast.

    Agrees with the dense path within 1e-5 elementwise; costs
    P*Cin + Cin*Cout multiply-adds instead of P^2*Cin + P*Cin*Cout.
    """
    _check_nodes(nodes, weight)
    PROPAGATION_MACS.add(rank1_mac_count(nodes.shape[0], *weight.shape))
    m = T.mean(nodes, axis=0, keepdims=True)      # [1, Cin]
    z = T.relu(T.matmul(m, weight))               # [1, Cout]
    return T.broadcast_rows(z, nodes.shape[0])


def gcn_forward(nodes: Tensor, weights: list[Tensor], rank1: bool = False) -> Tensor:
    """Apply the layers in order; with no weights the nodes pass through."""
    step = gcn_layer_forward_rank1 if rank1 else gcn_layer_forward
    for weight in weights:
        nodes = step(nodes, weight)
    return nodes
