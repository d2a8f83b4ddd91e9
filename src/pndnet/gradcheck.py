"""Central-difference gradient verification.

``grad_check`` is the independent oracle used throughout the test suite: it
never consults an op's backward rule, only repeated forward evaluations. The
registry at the bottom gives every differentiable op a self-contained check
driven by a seed, which both the tests and the ``gradcheck`` CLI verb run.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import tensor as T
from .tensor import Rng, Tensor


def grad_check(op: Callable[..., Tensor], inputs: list[Tensor], h: float = 1e-5,
               coords_per_input: int | None = None, rng: Rng | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``op`` maps the given tensors to a tensor; non-scalar outputs are reduced
    via sum. Inputs with ``requires_grad`` are checked coordinate by
    coordinate (or over a sampled subset when ``coords_per_input`` is set).
    The relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    def forward() -> float:
        out = op(*inputs)
        return float(T.tensor_sum(out).data) if out.size != 1 else float(out.data.reshape(()))

    for t in inputs:
        t.zero_grad()
    out = op(*inputs)
    loss = T.tensor_sum(out) if out.size != 1 else out
    loss.backward()

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        n = flat.size
        if coords_per_input is not None and coords_per_input < n:
            if rng is None:
                rng = Rng(0)
            coords: Iterable[int] = rng.permutation(n)[:coords_per_input]
        else:
            coords = range(n)
        aflat = analytic.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = forward()
            flat[i] = orig - h
            f_minus = forward()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def _rand(rng: Rng, shape, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, shape), requires_grad=True, dtype=np.float64)


def _away_from_zero(rng: Rng, shape, margin=0.2) -> Tensor:
    """Random values with |x| >= margin: keeps relu/max kinks away from h."""
    mag = rng.uniform(margin, 1.5, shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True, dtype=np.float64)


def _separated_maxima(rng: Rng, shape, bins: int) -> Tensor:
    # distinct bin maxima by a comfortable gap so +-h never flips an argmax
    x = rng.uniform(-1.0, 1.0, shape)
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    h, w, c = shape
    step_r, step_c = h // bins, w // bins
    for r in range(bins):
        for cc in range(bins):
            patch = x[r * step_r:(r + 1) * step_r, cc * step_c:(cc + 1) * step_c]
            for ch in range(c):
                flat = patch[..., ch].reshape(-1)
                flat[flat.argmax()] += 0.5
    return t


def _check_add(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.add, [_rand(rng, (4, 3)), _rand(rng, (3,))])  # broadcast bias


def _check_mul(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.mul, [_rand(rng, (4, 3)), _rand(rng, (1, 3))])


def _check_neg(seed: int) -> float:
    rng = Rng(seed)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.neg(a), w), [_rand(rng, (3, 4))])


def _check_sum(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.tensor_sum, [_rand(rng, (3, 4))])


def _check_reshape(seed: int) -> float:
    rng = Rng(seed)
    w = Tensor(rng.uniform(-1, 1, (6, 2)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.reshape(a, (6, 2)), w), [_rand(rng, (3, 4))])


def _check_matmul(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.matmul, [_rand(rng, (4, 3)), _rand(rng, (3, 5))])


def _check_conv2d(seed: int) -> float:
    rng = Rng(seed)
    # the 2x3 kernel catches a kh/kw swap in the im2col column order, which a square one hides
    cases = [[_rand(rng, (5, 5, 2)), _rand(rng, (3, 3, 2, 3))], [_rand(rng, (6, 5, 2)), _rand(rng, (2, 3, 2, 3))]]
    return max(grad_check(lambda a, b: T.conv2d(a, b, stride=2, pad=1), case) for case in cases)


def _check_conv2d_bias_relu(seed: int) -> float:
    rng = Rng(seed)
    worst = 0.0
    for ksize, pad in ((3, 1), (1, 0)):   # backbone block, 1x1 projection
        while True:   # redraw until every pre-activation sits well clear of the ReLU kink
            x, k, b = _rand(rng, (4, 4, 2)), _rand(rng, (ksize, ksize, 2, 2)), _rand(rng, (2,))
            if np.abs(T.add(T.conv2d(x, k, pad=pad), b).data).min() > 0.05:
                break
        worst = max(worst, grad_check(lambda a, kk, bb: T.conv2d_bias_relu(a, kk, bb, pad=pad), [x, k, b]))
    return worst


def _bin_margin(pre: np.ndarray, n: int) -> float:
    """Least distance of an adaptive bin's maximum from 0 and from the bin's
    runner-up, over all n x n bins and channels."""
    h, w, c = pre.shape
    worst = np.inf
    for r0, r1 in T._pool_bins(h, n):
        for c0, c1 in T._pool_bins(w, n):
            top = np.sort(pre[r0:r1, c0:c1].reshape(-1, c), axis=0)[::-1]
            worst = min(worst, np.abs(top[0]).min())
            if len(top) > 1:
                worst = min(worst, (top[0] - top[1]).min())
    return float(worst)


def _check_conv2d_bias_pool_relu(seed: int) -> float:
    rng = Rng(seed)
    worst = 0.0
    for shape, n in (((4, 4, 2), 2), ((7, 5, 2), 3)):   # divisible 2x pool, overlapping bins
        while True:   # redraw until +-h can move no bin's argmax and cross no ReLU kink
            x, k, b = _rand(rng, shape), _rand(rng, (3, 3, 2, 2)), _rand(rng, (2,))
            if _bin_margin(T.add(T.conv2d(x, k, pad=1), b).data, n) > 0.01:
                break
        worst = max(worst, grad_check(lambda a, kk, bb: T.conv2d_bias_pool_relu(a, kk, bb, n, pad=1),
                                      [x, k, b]))
    return worst


def _check_relu(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.relu, [_away_from_zero(rng, (4, 6))])


def _check_softmax(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (3, 5))
    w = Tensor(rng.uniform(-1, 1, (3, 5)), dtype=np.float64)
    # weighted sum keeps the reduction sensitive (plain sum of softmax is constant)
    return grad_check(lambda a: T.mul(T.softmax(a, axis=1), w), [x])


def _check_adaptive_max_pool2d(seed: int) -> float:
    rng = Rng(seed)
    x = _separated_maxima(rng, (6, 6, 3), bins=3)
    # overlapping bins (7 and 5 are not multiples of 3): distinct values
    # spaced 1/35 apart keep every argmax fixed under +-h
    overlap = Tensor(rng.permutation(70).reshape(7, 5, 2) / 35.0 - 1.0, requires_grad=True)
    return max(grad_check(lambda a: T.adaptive_max_pool2d(a, 3), [x]),
               grad_check(lambda a: T.adaptive_max_pool2d(a, 3), [overlap]))


def _check_avg_pool_region(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: T.avg_pool_region(a, (1, 4), (0, 3)), [_rand(rng, (5, 5, 4))])


def _check_upsample_nearest(seed: int) -> float:
    rng = Rng(seed)
    w = Tensor(rng.uniform(-1, 1, (7, 6, 2)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.upsample_nearest(a, 7, 6), w), [_rand(rng, (3, 3, 2))])


def _check_layer_norm(seed: int) -> float:
    rng = Rng(seed)
    w = Tensor(rng.uniform(-1, 1, (4, 8)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.layer_norm(a, axis=-1), w), [_rand(rng, (4, 8))])


def _check_dropout(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (6, 7))
    # same-seed stream per evaluation keeps the mask fixed across f(x +- h)
    return grad_check(lambda a: T.dropout(a, 0.3, "train", Rng(seed + 1)), [x])


def _check_mean(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: T.mean(a, axis=0), [_rand(rng, (5, 4))])


def _check_concat_rows(seed: int) -> float:
    rng = Rng(seed)
    parts = [_rand(rng, (2, 3)), _rand(rng, (4, 3))]
    w = Tensor(rng.uniform(-1, 1, (6, 3)), dtype=np.float64)
    return grad_check(lambda a, b: T.mul(T.concat_rows([a, b]), w), parts)


def _check_broadcast_rows(seed: int) -> float:
    rng = Rng(seed)
    w = Tensor(rng.uniform(-1, 1, (5, 4)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.broadcast_rows(a, 5), w), [_rand(rng, (1, 4))])


def _check_gcn_layer(seed: int) -> float:
    from .graph import GcnLayer, build_complete_adjacency, gcn_layer_forward

    rng = Rng(seed)
    spec = build_complete_adjacency(6)
    g = _rand(rng, (6, 5))
    layer = GcnLayer(_rand(rng, (5, 5)))
    return grad_check(lambda a, w: gcn_layer_forward(a, spec, GcnLayer(w)), [g, layer.weight])


def _check_gcn_layer_rank1(seed: int) -> float:
    from .graph import GcnLayer, build_complete_adjacency, gcn_layer_forward_rank1

    rng = Rng(seed)
    spec = build_complete_adjacency(6)
    g = _rand(rng, (6, 5))
    w = _rand(rng, (5, 5))
    return grad_check(lambda a, b: gcn_layer_forward_rank1(a, spec, GcnLayer(b)), [g, w])


def _check_cross_entropy_softmax(seed: int) -> float:
    from .head import cross_entropy

    rng = Rng(seed)
    logits = _rand(rng, (4, 5))
    target = np.zeros((4, 5))
    target[np.arange(4), rng.integers(0, 5, 4)] = 1.0
    return grad_check(lambda a: cross_entropy(T.softmax(a, axis=1), target).loss, [logits])


#: name -> callable(seed) -> max relative error, used by tests and the CLI.
OP_CHECKS: dict[str, Callable[[int], float]] = {
    "add": _check_add,
    "mul": _check_mul,
    "neg": _check_neg,
    "sum": _check_sum,
    "reshape": _check_reshape,
    "matmul": _check_matmul,
    "conv2d": _check_conv2d,
    "conv2d_bias_relu": _check_conv2d_bias_relu,
    "conv2d_bias_pool_relu": _check_conv2d_bias_pool_relu,
    "relu": _check_relu,
    "softmax": _check_softmax,
    "adaptive_max_pool2d": _check_adaptive_max_pool2d,
    "avg_pool_region": _check_avg_pool_region,
    "upsample_nearest": _check_upsample_nearest,
    "layer_norm": _check_layer_norm,
    "dropout": _check_dropout,
    "mean": _check_mean,
    "concat_rows": _check_concat_rows,
    "broadcast_rows": _check_broadcast_rows,
    "gcn_layer": _check_gcn_layer,
    "gcn_layer_rank1": _check_gcn_layer_rank1,
    "cross_entropy_softmax": _check_cross_entropy_softmax,
}

TOLERANCE = 1e-4


def run_checks(names: list[str] | None = None, seeds: Iterable[int] = range(3),
               registry: dict[str, Callable[[int], float]] | None = None) -> dict[str, float]:
    """Run registered checks over the given seeds; returns max error per op."""
    registry = OP_CHECKS if registry is None else registry
    if names is None:
        names = list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        from .errors import ArgumentError

        raise ArgumentError(f"unknown ops for gradcheck: {', '.join(unknown)}")
    return {name: max(registry[name](seed) for seed in seeds) for name in names}
