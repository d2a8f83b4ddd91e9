"""Central-difference gradient verification.

``grad_check`` is the independent oracle used throughout the test suite: it
never consults an op's backward rule, only repeated forward evaluations. The
registry at the bottom gives every recorded op a self-contained check driven
by a seed, which both the tests and the ``gradcheck`` CLI verb run.
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


def _check_mul(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.mul, [_rand(rng, (4, 3)), _rand(rng, (1, 3))])


def _check_sum(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.tensor_sum, [_rand(rng, (3, 4))])


def _check_matmul(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(T.matmul, [_rand(rng, (4, 3)), _rand(rng, (3, 5))])


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


def _preactivation(x: np.ndarray, k: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """conv + bias of an [H, W, Cin] map, zero-padded by ``pad``, as one
    einsum over its windows: the bin margin needs values, not the op's bytes."""
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k.shape[:2], axis=(0, 1))   # [ho, wo, Cin, kh, kw]
    return np.einsum("hwcuv,uvcd->hwd", windows, k) + b


def _check_conv2d_bias_pool_relu(seed: int) -> float:
    rng = Rng(seed)
    worst = 0.0
    # divisible 2x pool, 3x2 tiles of a 6x4 map, overlapping bins, the projection's 1x1 bins
    for shape, ksize, n in (((4, 4, 2), 3, 2), ((6, 4, 2), 3, 2), ((7, 5, 2), 3, 3), ((4, 4, 2), 1, 4)):
        pad = ksize // 2
        while True:   # redraw until +-h can move no bin's argmax and cross no ReLU kink
            x, k, b = _rand(rng, shape), _rand(rng, (ksize, ksize, 2, 2)), _rand(rng, (2,))
            if _bin_margin(_preactivation(x.data, k.data, b.data, pad), n) > 0.01:
                break
        worst = max(worst, grad_check(lambda a, kk, bb: T.conv2d_bias_pool_relu(a, kk, bb, n, pad=pad),
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


def _check_spp_max_pool(seed: int) -> float:
    rng = Rng(seed)
    # overlapping bins at levels 2 and 3 (7 and 5 are multiples of neither);
    # distinct values spaced 1/35 apart keep every argmax fixed under +-h
    x = Tensor(rng.permutation(70).reshape(7, 5, 2) / 35.0 - 1.0, requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (14, 2)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.spp_max_pool(a, (1, 2, 3)), w), [x])


def _check_region_pool(seed: int) -> float:
    rng = Rng(seed)
    # a 5x3 map upsampled 2x to 10x6 on a 4x4 grid: cells overlap on both axes
    w = Tensor(rng.uniform(-1, 1, (16, 2)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.region_pool(a, 4, 2), w), [_rand(rng, (5, 3, 2))])


def _check_mean(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: T.mean(a, axis=0), [_rand(rng, (5, 4))])


def _check_broadcast_rows(seed: int) -> float:
    rng = Rng(seed)
    w = Tensor(rng.uniform(-1, 1, (5, 4)), dtype=np.float64)
    return grad_check(lambda a: T.mul(T.broadcast_rows(a, 5), w), [_rand(rng, (1, 4))])


def _check_gcn_layer(seed: int) -> float:
    from .graph import gcn_layer_forward

    rng = Rng(seed)
    return grad_check(gcn_layer_forward, [_rand(rng, (6, 5)), _rand(rng, (5, 5))])


def _check_gcn_layer_rank1(seed: int) -> float:
    from .graph import gcn_layer_forward_rank1

    rng = Rng(seed)
    return grad_check(gcn_layer_forward_rank1, [_rand(rng, (6, 5)), _rand(rng, (5, 5))])


def _check_head_logits(seed: int) -> float:
    from .head import ClassHead, head_logits

    rng = Rng(seed)
    worst = 0.0
    for norm in ("layer", "none"):
        features, scale, shift = _rand(rng, (6,)), _rand(rng, (6,)), _rand(rng, (6,))
        weight, bias = _rand(rng, (6, 3)), _rand(rng, (3,))
        w = Tensor(rng.uniform(-1, 1, (1, 3)), dtype=np.float64)

        def op(f, s, sh, wt, b):
            # same-seed stream per evaluation keeps the dropout mask fixed across f(x +- h)
            head = ClassHead(s, sh, wt, b, dropout_rate=0.3, norm=norm)
            return T.mul(head_logits(head, f, "train", Rng(seed + 1)), w)

        worst = max(worst, grad_check(op, [features, scale, shift, weight, bias]))
    return worst


def _check_cross_entropy_softmax(seed: int) -> float:
    from .head import cross_entropy

    rng = Rng(seed)
    logits = _rand(rng, (4, 5))
    target = np.zeros((4, 5))
    target[np.arange(4), rng.integers(0, 5, 4)] = 1.0
    return grad_check(lambda a: cross_entropy(T.softmax(a, axis=1), target).loss, [logits])


#: name -> callable(seed) -> max relative error, used by tests and the CLI.
OP_CHECKS: dict[str, Callable[[int], float]] = {
    "mul": _check_mul,
    "sum": _check_sum,
    "matmul": _check_matmul,
    "conv2d_bias_pool_relu": _check_conv2d_bias_pool_relu,
    "relu": _check_relu,
    "softmax": _check_softmax,
    "spp_max_pool": _check_spp_max_pool,
    "region_pool": _check_region_pool,
    "head_logits": _check_head_logits,
    "mean": _check_mean,
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
