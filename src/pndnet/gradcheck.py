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

    ``op`` maps the given tensors to a tensor. Its elements are weighted by
    one fixed cotangent, uniform in [0.5, 1.5] from a stream of its own:
    distinct weights catch a gradient routed to the wrong element, and no
    weight near 0 leaves an element unchecked. The analytic gradients come
    from one ``backward`` seeded with the cotangent. The numeric ones sum the
    difference of the weighted outputs at x + h and x - h, in which every
    output that h does not move cancels exactly, as it would not in two
    rounded totals.
    Inputs with ``requires_grad`` are checked coordinate by coordinate (or
    over a sampled subset when ``coords_per_input`` is set). The relative
    error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    for t in inputs:
        t.zero_grad()
    out = op(*inputs)
    cotangent = Rng(0).child("grad_check:cotangent").uniform(0.5, 1.5, out.shape)
    out.backward(cotangent)

    def weighted() -> np.ndarray:
        return op(*inputs).data * cotangent

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
            f_plus = weighted()
            flat[i] = orig - h
            f_minus = weighted()
            flat[i] = orig
            numeric = float(np.sum(f_plus - f_minus)) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def _rand(rng: Rng, shape, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, shape), requires_grad=True, dtype=np.float64)


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


def _check_spp_max_pool(seed: int) -> float:
    rng = Rng(seed)
    # overlapping bins at levels 2 and 3 (7 and 5 are multiples of neither);
    # distinct values spaced 1/35 apart keep every argmax fixed under +-h
    x = Tensor(rng.permutation(70).reshape(7, 5, 2) / 35.0 - 1.0, requires_grad=True)
    return grad_check(lambda a: T.spp_max_pool(a, (1, 2, 3)), [x])


def _check_region_pool(seed: int) -> float:
    rng = Rng(seed)
    # a 5x3 map upsampled 2x to 10x6 on a 4x4 grid: cells overlap on both axes
    return grad_check(lambda a: T.region_pool(a, 4, 2), [_rand(rng, (5, 3, 2))])


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
        nodes, scale, shift = _rand(rng, (4, 6)), _rand(rng, (6,)), _rand(rng, (6,))
        weight, bias = _rand(rng, (6, 3)), _rand(rng, (3,))

        def op(g, s, sh, wt, b):
            # same-seed stream per evaluation keeps the dropout mask fixed across f(x +- h)
            head = ClassHead(s, sh, wt, b, dropout_rate=0.3, norm=norm)
            return head_logits(head, g, "train", Rng(seed + 1))

        worst = max(worst, grad_check(op, [nodes, scale, shift, weight, bias]))
    return worst


def _check_cross_entropy(seed: int) -> float:
    from .head import cross_entropy

    rng = Rng(seed)
    logits = _rand(rng, (4, 5))
    target = np.zeros((4, 5))
    target[np.arange(4), rng.integers(0, 5, 4)] = 1.0
    return grad_check(lambda a: cross_entropy(a, target).loss, [logits])


#: name -> callable(seed) -> max relative error, used by tests and the CLI.
OP_CHECKS: dict[str, Callable[[int], float]] = {
    "conv2d_bias_pool_relu": _check_conv2d_bias_pool_relu,
    "spp_max_pool": _check_spp_max_pool,
    "region_pool": _check_region_pool,
    "head_logits": _check_head_logits,
    "gcn_layer": _check_gcn_layer,
    "gcn_layer_rank1": _check_gcn_layer_rank1,
    "cross_entropy": _check_cross_entropy,
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
