"""Complete-graph propagation and the GCN layers applied to the node matrix.

The model's graph is the complete graph on its P nodes, P being the node
matrix's row count. With self-loops its adjacency is all-ones, every degree
is P, and the symmetric normalisation D^-1/2 (A + I) D^-1/2 is (1/P) * J
exactly; the dense layer builds it as such, not as a product of square
roots. ``gcn_layer_forward_rank1`` exploits that closed form: one
propagation step is a column mean broadcast back to all rows. A layer is
its [Cin, Cout] weight, and a stack is a list of them. Each layer records
one op, whose unfused chain is its test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .tensor import Rng, Tensor, _accumulate, _check_finite, _node


@dataclass
class MacCounter:
    """Multiply-add accounting for the propagation paths (bench/acceptance).

    Updates hold a lock, so concurrent propagation counts every multiply-add.
    Nothing resets it, since a reset in one thread would corrupt another's
    reading: a measurement reads its growth.
    """

    macs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(self, n: int):
        n = int(n)
        with self._lock:
            self.macs += n


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
    """ReLU((J/P) @ G @ W) through the dense propagation matrix, P = G's
    rows, recorded as one op, ``gcn_layer``.

    The forward evaluates the matmul -> matmul -> ReLU chain's expressions in
    its order, and the backward is the chain's: the ReLU mask, ``mixedᵀ·g``
    into the weight, then ``propᵀ·(g·Wᵀ)`` into the nodes, each only when
    that tensor requires grad (Grad-CAM passes detached weights). Values and
    gradients are bit-identical to the chain (``chain_gcn_layer`` in
    ``tests/oracles.py``). The finite check covers the pre-ReLU product
    alone: a non-finite entry of ``prop @ G`` makes its whole row of the
    product non-finite.
    """
    _check_nodes(nodes, weight)
    p = nodes.shape[0]
    PROPAGATION_MACS.add(dense_mac_count(p, *weight.shape))
    prop = np.full((p, p), 1.0 / p, dtype=nodes.data.dtype)
    mixed = prop @ nodes.data
    z = mixed @ weight.data
    _check_finite(z, "gcn_layer")
    out = np.maximum(z, 0, out=z)
    out += 0   # maximum may keep -0.0; adding +0.0 makes it +0.0

    def backward(g):
        g = g * (out > 0)
        if weight.requires_grad:
            _accumulate(weight, mixed.T @ g)
        if nodes.requires_grad:
            _accumulate(nodes, prop.T @ (g @ weight.data.T))

    return _node(out, (nodes, weight), backward, "gcn_layer")


def gcn_layer_forward_rank1(nodes: Tensor, weight: Tensor) -> Tensor:
    """Fast path for the complete graph, recorded as one op,
    ``gcn_layer_rank1``: column mean, transform, ReLU, broadcast.

    Agrees with the dense path within 1e-5 elementwise; costs
    P*Cin + Cin*Cout multiply-adds instead of P^2*Cin + P*Cin*Cout. Values
    and gradients are bit-identical to the mean -> matmul -> ReLU ->
    broadcast chain (``chain_gcn_layer_rank1`` in ``tests/oracles.py``),
    whose mean passes ``g / P`` to every node; the finite check covers the
    pre-ReLU row, as in ``gcn_layer_forward``.
    """
    _check_nodes(nodes, weight)
    p = nodes.shape[0]
    PROPAGATION_MACS.add(rank1_mac_count(p, *weight.shape))
    m = nodes.data.mean(axis=0, keepdims=True)   # [1, Cin]
    z = m @ weight.data                          # [1, Cout]
    _check_finite(z, "gcn_layer_rank1")
    row = np.maximum(z, 0, out=z)
    row += 0

    def backward(g):
        g = g.sum(axis=0, keepdims=True) * (row > 0)
        if weight.requires_grad:
            _accumulate(weight, m.T @ g)
        if nodes.requires_grad:
            gm = (g @ weight.data.T) / p   # the mean's share of each node
            _accumulate(nodes, np.broadcast_to(gm, nodes.shape).astype(nodes.dtype, copy=False))

    return _node(np.broadcast_to(row, (p, row.shape[1])).copy(), (nodes, weight), backward, "gcn_layer_rank1")


def gcn_forward(nodes: Tensor, weights: list[Tensor], rank1: bool = False) -> Tensor:
    """Apply the layers in order; with no weights the nodes pass through."""
    step = gcn_layer_forward_rank1 if rank1 else gcn_layer_forward
    for weight in weights:
        nodes = step(nodes, weight)
    return nodes
