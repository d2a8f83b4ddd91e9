"""Classification head: GAP over nodes, norm + dropout, projection, softmax.

The projection from C features to N class logits is the minimal completion
between the pooled feature vector and the softmax; the head regularizes with
layer normalization (batch-size independent) and inverted dropout.
Everything from the node matrix to the logits, GAP included, is one recorded
op, ``head_logits``. The softmax records no op: the loss, ``cross_entropy``,
takes the logits and computes it inside, and the model's probabilities are
a plain ``tensor.softmax`` of the logits, so Grad-CAM starts at the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError
from .tensor import Rng, Tensor, _accumulate, _record


@dataclass
class ClassHead:
    """Learnable head state: norm scale/shift, projection weight and bias."""

    scale: Tensor          # [C]
    shift: Tensor          # [C]
    weight: Tensor         # [C, N]
    bias: Tensor           # [N]
    dropout_rate: float = 0.3
    norm: str = "layer"    # "layer" or "none"

    @property
    def n_classes(self) -> int:
        return self.weight.shape[1]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("norm/scale", self.scale), ("norm/shift", self.shift),
                ("proj/weight", self.weight), ("proj/bias", self.bias)]


def init_head(c: int, n_classes: int, rng: Rng, dropout_rate: float = 0.3,
              norm: str = "layer", dtype=np.float32) -> ClassHead:
    if n_classes < 2:
        raise ArgumentError(f"need at least 2 classes, got {n_classes}")
    if norm not in ("layer", "none"):
        raise ArgumentError(f"head norm must be 'layer' or 'none', got {norm!r}")
    limit = 1.0 / np.sqrt(c)
    return ClassHead(
        scale=Tensor(np.ones(c, dtype=dtype), requires_grad=True),
        shift=Tensor(np.zeros(c, dtype=dtype), requires_grad=True),
        weight=Tensor(rng.uniform(-limit, limit, (c, n_classes)).astype(dtype), requires_grad=True),
        bias=Tensor(rng.uniform(-limit, limit, n_classes).astype(dtype), requires_grad=True),
        dropout_rate=dropout_rate,
        norm=norm,
    )


def head_logits(head: ClassHead, nodes: Tensor, mode: str, rng: Rng | None = None) -> Tensor:
    """Pre-softmax class scores of a [P, C] node matrix as a [1, N] row,
    recorded as one op.

    GAP (the mean of the P node rows), layer norm (if any), scale and shift,
    inverted dropout, projection plus bias: values, gradients and the
    dropout draw are bit-identical to that chain of ops (``tests/oracles.py``),
    whose mean passes ``g / P`` to every node. Parameters that do not
    require grad get no gradient work (Grad-CAM passes detached copies).
    """
    scale, shift, weight, bias = head.scale, head.shift, head.weight, head.bias
    c = weight.shape[0]
    if nodes.data.ndim != 2 or nodes.shape[0] == 0 or nodes.shape[1] != c:
        raise DimensionError(f"head expects a [P, {c}] node matrix with P >= 1, got shape {nodes.shape}")
    p = nodes.shape[0]
    row = nodes.data.mean(axis=0, keepdims=True)
    norm = head.norm == "layer"
    if norm:
        y, sigma = T._normalize(row, -1)
        row = y * scale.data + shift.data
    factor = T._dropout_factor(row.shape, row.dtype, head.dropout_rate, mode, rng)
    if factor is not None:
        row = row * factor
    out = row @ weight.data + bias.data.reshape(1, head.n_classes)
    params = (scale, shift, weight, bias) if norm else (weight, bias)

    def backward(g):
        if bias.requires_grad:
            _accumulate(bias, g.reshape(bias.shape))
        if weight.requires_grad:
            _accumulate(weight, row.T @ g)
        if not (nodes.requires_grad or (norm and (scale.requires_grad or shift.requires_grad))):
            return
        g = g @ weight.data.T
        if factor is not None:
            g = g * factor
        if norm:
            if shift.requires_grad:
                _accumulate(shift, g.reshape(shift.shape))
            if scale.requires_grad:
                _accumulate(scale, (g * y).reshape(scale.shape))
            g = T._normalize_grad(g * scale.data, y, sigma, -1)
        _accumulate(nodes, np.broadcast_to(g / p, nodes.shape).astype(nodes.dtype, copy=False))

    return _record(out, (nodes, *params), backward, "head_logits")


@dataclass
class LossValue:
    """Batch cross-entropy: scalar mean (or share of one) plus the per-sample terms."""

    loss: Tensor
    per_sample: np.ndarray = field(repr=False)

    def item(self) -> float:
        return self.loss.item()


def cross_entropy(logits: Tensor, target, batch_size: int | None = None) -> LossValue:
    """Mean categorical cross-entropy of softmax(logit rows) against one-hots.

    Each row's term is ``logsumexp(z) - z_t``, taken as ``m + log sum
    exp(z - m) - z_t`` with ``m = max(z)``, so it stays exact however far the
    true class trails; its gradient is ``(softmax(z) - t) / b``. ``target``
    must be exactly one-hot. The mean runs over ``batch_size`` samples, by
    default the rows given; a larger count makes the loss these rows' share
    of a batch's mean, and its gradient exactly their rows of the whole
    batch's gradient.
    """
    z = logits.data
    t = np.asarray(target, dtype=z.dtype)
    if z.ndim != 2 or t.shape != z.shape:
        raise DimensionError(f"cross_entropy expects matching [B, N], got {z.shape} and {t.shape}")
    # one-hot: every row's maximum is 1, and the rows hold one non-zero each
    if np.count_nonzero(t) != t.shape[0] or not (t.max(axis=1) == 1).all():
        raise ArgumentError("target rows must be one-hot")
    b = z.shape[0] if batch_size is None else batch_size
    if b < z.shape[0]:
        raise ArgumentError(f"batch size {b} is smaller than the {z.shape[0]} rows given")
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=1, keepdims=True)
    per_sample = (m + np.log(total) - (z * t).sum(axis=1, keepdims=True)).reshape(-1)
    data = np.asarray(per_sample.sum() / b, dtype=z.dtype)
    probs = e / total

    def backward(g):
        _accumulate(logits, float(g) * (probs - t) / b)

    loss = _record(data, (logits,), backward, "cross_entropy")
    return LossValue(loss=loss, per_sample=per_sample)
