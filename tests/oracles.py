"""Slow forms of what the package fuses or skips, kept as test oracles.

The package defines only the ops that a model path or Grad-CAM records.
Every unfused form those ops are compared with lives here, built on the
package's recording helpers:

* ``matmul``, ``relu``, ``mean``, ``broadcast_rows``, ``add``, ``mul``,
  ``reshape``, ``concat_rows``, ``layer_norm`` and ``dropout``: the ops of
  the unfused chains;
* ``softmax`` and ``clamped_nll``, the clamped loss on probability rows,
  and their chain ``chain_cross_entropy``, which ``cross_entropy``, the
  loss on logits, replaces;
* ``conv2d``, the block op's conv step recorded alone over the whole map's
  raster ``im2col`` matrix, and ``loop_conv2d``, one GEMM per kernel offset;
* ``loop_adaptive_max_pool2d``, one argmax per bin, and ``separated_maxima``,
  maps on which +-h moves no bin's argmax;
* ``upsample_nearest``, the step the node stage skips;
* ``chain``, ``chain_spp``, ``chain_gcn_layer``, ``chain_gcn_layer_rank1``
  and ``chain_head_logits``, the chains that ``conv2d_bias_pool_relu``,
  ``spp_max_pool``, ``gcn_layer_forward``, ``gcn_layer_forward_rank1`` and
  ``head_logits`` fuse;
* ``brute_force_metrics``, per-pair counting loops for ``compute_metrics``;
* ``augment`` and ``preprocess_train``, the whole-image augmentation that
  train-mode ``preprocess`` computes only over its crop window, built on
  ``bilinear_sample``, ``warp_rotate_scale`` and ``gaussian_blur``;
* ``bilinear_resize`` and ``resized_input``, the whole-image resize, and
  ``preprocess_eval``, resize then centre crop, which eval-mode
  ``preprocess`` computes only over the crop it keeps.

Every op recorded here has a central-difference check: the chain ops in
``ORACLE_CHECKS``, which acceptance criterion 1 runs with the package's
``OP_CHECKS``, and the references in ``REFERENCE_CHECKS``.
"""

from typing import Callable, Sequence

import numpy as np

import pndnet.tensor as T
from pndnet.data import AugmentConfig, _taps
from pndnet.errors import ArgumentError, DimensionError
from pndnet.gradcheck import _rand, grad_check
from pndnet.head import ClassHead
from pndnet.tensor import Rng, Tensor, _accumulate, _pool_bins, _record

# ---------------------------------------------------------------------------
# the ops of the unfused chains


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced or stretched."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(data, (a, b), backward, "matmul")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    out += 0   # maximum may keep -0.0; adding +0.0 makes it +0.0, as np.where(a > 0, a, 0) does

    def backward(g):
        _accumulate(a, g * (out > 0))

    return _record(out, (a,), backward, "relu")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (every element with None); the backward passes
    ``g / count`` to every element averaged."""
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size // data.size

    def backward(g):
        expanded = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(expanded / count, a.data.shape).astype(a.data.dtype, copy=False))

    return _record(np.asarray(data, dtype=a.data.dtype), (a,), backward, "mean")


def broadcast_rows(a: Tensor, n: int) -> Tensor:
    """Tile a [1, C] row to [n, C]; gradient sums over the tiled rows."""
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise DimensionError(f"broadcast_rows expects [1, C], got {a.data.shape}")
    if n < 1:
        raise ArgumentError(f"row count must be >= 1, got {n}")

    def backward(g):
        _accumulate(a, g.sum(axis=0, keepdims=True))

    return _record(np.broadcast_to(a.data, (n, a.data.shape[1])).copy(), (a,), backward, "broadcast_rows")


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), backward, "mul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _record(a.data.reshape(shape), (a,), backward, "reshape")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along axis 0; the backward pass splits the gradient back."""
    if not parts:
        raise ArgumentError("concat_rows needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(part, g[lo:hi])

    return _record(data, tuple(parts), backward, "concat_rows")


def layer_norm(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, as ``head_logits`` does."""
    if x.data.shape[axis] < 1:
        raise ArgumentError(f"layer_norm axis extent must be >= 1 on shape {x.data.shape}")
    y, sigma = T._normalize(x.data, axis, eps)

    def backward(g):
        _accumulate(x, T._normalize_grad(g, y, sigma, axis))

    return _record(y, (x,), backward, "layer_norm")


def dropout(x: Tensor, rate: float, mode: str, rng: Rng | None = None) -> Tensor:
    """Inverted dropout with ``head_logits``'s multiplier: zero with
    probability ``rate``, scale survivors; ``x`` itself where that is the
    identity."""
    factor = T._dropout_factor(x.data.shape, x.data.dtype, rate, mode, rng)
    if factor is None:
        return x

    def backward(g):
        _accumulate(x, g * factor)

    return _record(x.data * factor, (x,), backward, "dropout")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """``tensor.softmax`` recorded, with its vector-Jacobian product."""
    y = T.softmax(a.data, axis)

    def backward(g):
        _accumulate(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _record(y, (a,), backward, "softmax")


LOG_CLAMP = 1e-12


def clamped_nll(probs: Tensor, target, batch_size: int | None = None) -> Tensor:
    """Mean of -log(max(p_t, 1e-12)) over ``batch_size`` probability rows
    (by default the rows given), the loss on probabilities: no gradient
    reaches a row whose true-class probability is at or below the clamp."""
    t = np.asarray(target, dtype=probs.data.dtype)
    b = probs.data.shape[0] if batch_size is None else batch_size
    p_true = (probs.data * t).sum(axis=1)
    clamped = np.maximum(p_true, LOG_CLAMP)
    active = (p_true > LOG_CLAMP).astype(probs.data.dtype)

    def backward(g):
        _accumulate(probs, float(g) * (-t * (active / clamped)[:, None]) / b)

    return _record(np.asarray(-np.log(clamped).sum() / b, dtype=probs.data.dtype), (probs,),
                   backward, "clamped_nll")


def chain_cross_entropy(logits: Tensor, target, batch_size: int | None = None) -> Tensor:
    return clamped_nll(softmax(logits, axis=1), target, batch_size)


# ---------------------------------------------------------------------------
# references for the backbone's conv and pool, and for the skipped upsample


def im2col(x: np.ndarray, pad: int, kh: int, kw: int) -> np.ndarray:
    """[ho * wo, kh * kw * C] im2col matrix of a whole [H, W, C] map
    zero-padded by ``pad``, rows in raster order: the padded map is written
    into a zeroed buffer, and the window view is one ``as_strided`` call,
    which the reshape copies."""
    if pad:
        h, w, c = x.shape
        xp = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[pad:pad + h, pad:pad + w] = x
        x = xp
    ho, wo = x.shape[0] - kh + 1, x.shape[1] - kw + 1
    s0, s1, s2 = x.strides
    win = np.lib.stride_tricks.as_strided(x, (ho, wo, kh, kw, x.shape[2]), (s0, s1, s0, s1, s2),
                                          writeable=False)
    return win.reshape(ho * wo, -1)


def conv2d(x: Tensor, kernel: Tensor, pad: int) -> Tensor:
    """The block op's conv step alone, recorded, in raster order over the
    whole map: one GEMM of the ``im2col`` matrix, its rows padded to a
    multiple of ``T._ROW_PANEL`` as the op pads each band's, so the values
    are the op's bytes; the backward is one kernel-gradient GEMM and the
    kh * kw input-gradient taps."""
    ho, wo = T._conv_extent(x.data, kernel.data, pad)
    kh, kw, cin, cout = kernel.data.shape
    cols = im2col(x.data, pad, kh, kw)
    if ho * wo % T._ROW_PANEL:
        cols = np.concatenate([cols, np.zeros((-ho * wo % T._ROW_PANEL, cols.shape[1]), dtype=cols.dtype)])
    out = (cols @ kernel.data.reshape(-1, cout))[:ho * wo].reshape(ho, wo, cout).astype(x.data.dtype, copy=False)

    def backward(g):
        gflat = g.reshape(-1, cout)
        if kernel.requires_grad:
            _accumulate(kernel, (im2col(x.data, pad, kh, kw).T @ gflat).reshape(kernel.data.shape))
        if x.requires_grad:
            dxp = np.zeros((ho + kh - 1, wo + kw - 1, cin), dtype=x.data.dtype)
            for u in range(kh):
                for v in range(kw):
                    dxp[u:u + ho, v:v + wo] += (gflat @ kernel.data[u, v].T).reshape(ho, wo, cin)
            _accumulate(x, dxp[pad:pad + x.data.shape[0], pad:pad + x.data.shape[1]])

    return _record(out, (x, kernel), backward, "conv2d")


def loop_conv2d(x: Tensor, kernel: Tensor, stride: int, pad: int) -> Tensor:
    """Reference conv: one [ho*wo, cin] x [cin, cout] GEMM per kernel offset."""
    h, w, cin = x.data.shape
    kh, kw, _, cout = kernel.data.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0)))
    windows = [(u, v, np.s_[u:u + (ho - 1) * stride + 1:stride, v:v + (wo - 1) * stride + 1:stride])
               for u in range(kh) for v in range(kw)]
    out = np.zeros((ho, wo, cout), dtype=x.data.dtype)
    for u, v, win in windows:
        out += (xp[win].reshape(-1, cin) @ kernel.data[u, v]).reshape(ho, wo, cout)

    def backward(g):
        gflat = g.reshape(-1, cout)
        dk = np.zeros_like(kernel.data)
        dxp = np.zeros_like(xp)
        for u, v, win in windows:
            dk[u, v] = xp[win].reshape(-1, cin).T @ gflat
            dxp[win] += (gflat @ kernel.data[u, v].T).reshape(ho, wo, cin)
        _accumulate(kernel, dk)
        _accumulate(x, dxp[pad:pad + h, pad:pad + w])

    return _record(out, (x, kernel), backward, "loop_conv2d")


def loop_adaptive_max_pool2d(x: Tensor, n: int) -> Tensor:
    """Reference pool: one argmax per bin, first maximum in row-major order."""
    h, w, c = x.data.shape
    rows = _pool_bins(h, n)
    cols = _pool_bins(w, n)
    out = np.empty((n, n, c), dtype=x.data.dtype)
    arg_r = np.empty((n, n, c), dtype=np.intp)
    arg_c = np.empty((n, n, c), dtype=np.intp)
    for r, (r0, r1) in enumerate(rows):
        for cc, (c0, c1) in enumerate(cols):
            patch = x.data[r0:r1, c0:c1, :]
            flat = patch.reshape(-1, c)
            idx = flat.argmax(axis=0)
            out[r, cc] = flat[idx, np.arange(c)]
            pr, pc = np.unravel_index(idx, patch.shape[:2])
            arg_r[r, cc] = pr + r0
            arg_c[r, cc] = pc + c0

    def backward(g):
        dx = np.zeros_like(x.data)
        ch = np.arange(c)
        for r in range(n):
            for cc in range(n):
                np.add.at(dx, (arg_r[r, cc], arg_c[r, cc], ch), g[r, cc])
        _accumulate(x, dx)

    return _record(out, (x,), backward, "loop_adaptive_max_pool2d")


def separated_maxima(rng: Rng, shape, bins: int) -> Tensor:
    """Uniform values whose maximum in each of bins x bins equal tiles leads
    the runner-up by a comfortable gap, so +-h never flips an argmax."""
    x = rng.uniform(-1.0, 1.0, shape)
    h, w, c = shape
    step_r, step_c = h // bins, w // bins
    for r in range(bins):
        for cc in range(bins):
            patch = x[r * step_r:(r + 1) * step_r, cc * step_c:(cc + 1) * step_c]
            for ch in range(c):
                flat = patch[..., ch].reshape(-1)
                flat[flat.argmax()] += 0.5
    return Tensor(x, requires_grad=True, dtype=np.float64)


def upsample_nearest(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbor upsampling of an [h, w, C] map to [out_h, out_w, C]:
    the step the model skips, kept as the oracle of that skip."""
    h, w, _ = x.data.shape
    ri = (np.arange(out_h) * h) // out_h
    ci = (np.arange(out_w) * w) // out_w

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (ri[:, None], ci[None, :]), g)
        _accumulate(x, dx)

    return _record(x.data[ri[:, None], ci[None, :], :], (x,), backward, "upsample_nearest")


# ---------------------------------------------------------------------------
# the chains that the fused ops replace


def chain(x, k, b, pad):
    """conv -> bias -> ReLU, the projection's chain and the block op's before its pool."""
    return relu(add(conv2d(x, k, pad), b))


def chain_gcn_layer(nodes: Tensor, weight: Tensor) -> Tensor:
    """Reference dense GCN layer: ReLU((J/P) @ G @ W) as two matmuls and a ReLU."""
    p = nodes.shape[0]
    prop = Tensor(np.full((p, p), 1.0 / p, dtype=nodes.data.dtype))
    return relu(matmul(matmul(prop, nodes), weight))


def chain_gcn_layer_rank1(nodes: Tensor, weight: Tensor) -> Tensor:
    """Reference rank-1 GCN layer: column mean, matmul, ReLU, then the row broadcast."""
    return broadcast_rows(relu(matmul(mean(nodes, axis=0, keepdims=True), weight)), nodes.shape[0])


def chain_spp(x: Tensor, levels) -> Tensor:
    """Reference SPP: one loop pool, one reshape per level, then one concat."""
    c = x.data.shape[2]
    return concat_rows([reshape(loop_adaptive_max_pool2d(x, n), (n * n, c)) for n in levels])


def chain_head_logits(head: ClassHead, nodes: Tensor, mode: str, rng: Rng | None = None) -> Tensor:
    """Reference head: the chain of tensor ops that ``head_logits`` fuses,
    from the GAP of the [P, C] node matrix on."""
    row = reshape(mean(nodes, axis=0), (1, nodes.shape[1]))
    if head.norm == "layer":
        row = layer_norm(row, axis=-1)
        row = add(mul(row, head.scale), head.shift)
    row = dropout(row, head.dropout_rate, mode, rng)
    return add(matmul(row, head.weight), reshape(head.bias, (1, head.n_classes)))


def brute_force_metrics(preds, labels, n):
    """Independent oracle: per-pair counting loops, no numpy vectorization."""
    preds, labels = list(preds), list(labels)
    s = len(preds)
    confusion = [[0] * n for _ in range(n)]
    for p, a in zip(preds, labels):
        confusion[a][p] += 1
    per_class = []
    for c in range(n):
        tp = sum(1 for p, a in zip(preds, labels) if p == c and a == c)
        fp = sum(1 for p, a in zip(preds, labels) if p == c and a != c)
        fn = sum(1 for p, a in zip(preds, labels) if p != c and a == c)
        tn = s - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(dict(tp=tp, fp=fp, fn=fn, tn=tn,
                              precision=precision, recall=recall, f1=f1))
    accuracy = sum(1 for p, a in zip(preds, labels) if p == a) / s
    return confusion, per_class, accuracy


# ---------------------------------------------------------------------------
# whole-image resize and augmentation: the byte oracles of the windowed
# eval and train paths


def bilinear_sample(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Sample img (H, W, C) at fractional coords; out-of-range clamps to edges.
    Each tap is one ``take`` of a pixel row of ``img.reshape(h * w, C)``."""
    h, w = img.shape[:2]
    y0, y1, wy = _taps(sy, h)
    x0, x1, wx = _taps(sx, w)
    wy = wy[..., None]
    wx = wx[..., None]
    pixels = img.reshape(h * w, -1)
    y0 *= w
    y1 *= w
    top = pixels.take(y0 + x0, axis=0) * (1 - wx) + pixels.take(y0 + x1, axis=0) * wx
    bot = pixels.take(y1 + x0, axis=0) * (1 - wx) + pixels.take(y1 + x1, axis=0) * wx
    return (top * (1 - wy) + bot * wy).astype(img.dtype, copy=False)


def warp_rotate_scale(img: np.ndarray, theta_deg: float, scale: float) -> np.ndarray:
    # inverse mapping about the center; clamped sampling replicates edges
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.deg2rad(theta_deg)
    cos, sin = np.cos(rad), np.sin(rad)
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = (ys - cy) / scale, (xs - cx) / scale
    sy = cy + cos * dy - sin * dx
    sx = cx + sin * dy + cos * dx
    return bilinear_sample(img, sy, sx)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for k, off in zip(kernel, offsets):
        out += k * padded[radius + off:radius + off + img.shape[0]]
    padded = np.pad(out, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for k, off in zip(kernel, offsets):
        out += k * padded[:, radius + off:radius + off + img.shape[1]]
    return out.astype(img.dtype, copy=False)


def augment(img: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """Random flip, rotation, scale (one resample) and Gaussian blur of the
    whole image. Draw order: flip, rotation, scale, blur gate, blur sigma."""
    cfg.validate()
    out = img
    if cfg.flip_p > 0 and rng.uniform() < cfg.flip_p:
        out = out[:, ::-1, :]
    theta = float(rng.uniform(-cfg.rotation_deg, cfg.rotation_deg)) if cfg.rotation_deg > 0 else 0.0
    scale = 1.0 + (float(rng.uniform(-cfg.scale_delta, cfg.scale_delta)) if cfg.scale_delta > 0 else 0.0)
    if theta != 0.0 or scale != 1.0:
        out = warp_rotate_scale(out, theta, scale)
    if cfg.blur_p > 0 and rng.uniform() < cfg.blur_p:
        sigma = float(rng.uniform(*cfg.blur_sigma))
        out = gaussian_blur(out, sigma)
    return np.ascontiguousarray(out)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """The whole image resized separably: every source row along x, then
    those rows along y, in float64, cast back to ``img``'s dtype."""
    h, w = img.shape[:2]
    if (out_h, out_w) == (h, w):
        return img
    y0, y1, wy = _taps((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, h)
    x0, x1, wx = _taps((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, w)
    wx = wx[:, None]
    wy = wy[:, None, None]
    rows = img[:, x0] * (1 - wx) + img[:, x1] * wx       # [h, out_w, C], float64
    return (rows[y0] * (1 - wy) + rows[y1] * wy).astype(img.dtype, copy=False)


def resized_input(image: np.ndarray, resize_size: int) -> np.ndarray:
    """The whole image cast to float32 with its shorter side resized to
    ``resize_size``, or ``image`` itself if that leaves its shape unchanged."""
    h, w = image.shape[:2]
    if h <= w:
        shape = resize_size, max(resize_size, round(w * resize_size / h))
    else:
        shape = max(resize_size, round(h * resize_size / w)), resize_size
    if shape == (h, w):
        return image
    return bilinear_resize(image.astype(np.float32, copy=False), *shape)


def preprocess_eval(image: np.ndarray, channel_means, resize_size: int, crop_size: int) -> np.ndarray:
    """Eval-mode ``preprocess`` the long way: resize the whole image, cast
    it to float32, centre crop, and subtract the (1, 1, 3) channel means as
    one broadcast over the crop."""
    img = resized_input(np.asarray(image), resize_size).astype(np.float32, copy=False)
    h, w = img.shape[:2]
    top, left = (h - crop_size) // 2, (w - crop_size) // 2
    means = np.asarray(channel_means, dtype=np.float32).reshape(1, 1, 3)
    return np.ascontiguousarray(img[top:top + crop_size, left:left + crop_size] - means, dtype=np.float32)


def preprocess_train(image: np.ndarray, rng: Rng, channel_means, resize_size: int,
                     crop_size: int, augment_cfg: AugmentConfig) -> np.ndarray:
    """Train-mode ``preprocess`` the long way: resize, ``augment`` the whole
    image, then draw the crop's top and left, crop and center."""
    img = resized_input(np.asarray(image), resize_size).astype(np.float32, copy=False)
    h, w = img.shape[:2]
    img = augment(img, augment_cfg, rng)
    top = int(rng.integers(0, h - crop_size + 1))
    left = int(rng.integers(0, w - crop_size + 1))
    img = img[top:top + crop_size, left:left + crop_size]
    means = np.asarray(channel_means, dtype=np.float32).reshape(1, 1, 3)
    return np.ascontiguousarray(img - means, dtype=np.float32)


# ---------------------------------------------------------------------------
# central-difference checks, each driven by a seed


def _away_from_zero(rng: Rng, shape, margin=0.2) -> Tensor:
    """Random values with |x| >= margin: keeps relu kinks away from h."""
    mag = rng.uniform(margin, 1.5, shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True, dtype=np.float64)


def _check_matmul(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(matmul, [_rand(rng, (4, 3)), _rand(rng, (3, 5))])


def _check_relu(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(relu, [_away_from_zero(rng, (4, 6))])


def _check_mean(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: mean(a, axis=0), [_rand(rng, (5, 4))])


def _check_broadcast_rows(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: broadcast_rows(a, 5), [_rand(rng, (1, 4))])


def _check_add(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(add, [_rand(rng, (4, 3)), _rand(rng, (3,))])  # broadcast bias


def _check_mul(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(mul, [_rand(rng, (4, 3)), _rand(rng, (1, 3))])  # broadcast row


def _check_reshape(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: reshape(a, (6, 2)), [_rand(rng, (3, 4))])


def _check_concat_rows(seed: int) -> float:
    rng = Rng(seed)
    parts = [_rand(rng, (2, 3)), _rand(rng, (4, 3))]
    return grad_check(lambda a, b: concat_rows([a, b]), parts)


def _check_layer_norm(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: layer_norm(a, axis=-1), [_rand(rng, (4, 8))])


def _check_softmax(seed: int) -> float:
    rng = Rng(seed)
    return grad_check(lambda a: softmax(a, axis=1), [_rand(rng, (3, 5))])


def _check_clamped_nll(seed: int) -> float:
    rng = Rng(seed)
    target = np.eye(5)[rng.integers(0, 5, 4)]
    # positive, unnormalized rows: the op never assumes they sum to 1
    probs = Tensor(rng.uniform(0.1, 1.0, (4, 5)), requires_grad=True)
    return grad_check(lambda p: clamped_nll(p, target), [probs])


def _check_dropout(seed: int) -> float:
    rng = Rng(seed)
    x = _rand(rng, (6, 7))
    # same-seed stream per evaluation keeps the mask fixed across f(x +- h)
    return grad_check(lambda a: dropout(a, 0.3, "train", Rng(seed + 1)), [x])


def _check_conv2d(seed: int) -> float:
    rng = Rng(seed)
    worst = 0.0
    for shape, kshape in (((5, 5, 2), (3, 3, 2, 3)), ((6, 5, 2), (2, 3, 2, 3))):
        x, k = _rand(rng, shape), _rand(rng, kshape)
        worst = max(worst, grad_check(lambda a, b: conv2d(a, b, 1), [x, k]))
    return worst


def _check_loop_conv2d(seed: int) -> float:
    rng = Rng(seed)
    worst = 0.0
    # the 2x3 kernel catches a kh/kw swap, which a square one hides
    for shape, kshape in (((5, 5, 2), (3, 3, 2, 3)), ((6, 5, 2), (2, 3, 2, 3))):
        x, k = _rand(rng, shape), _rand(rng, kshape)
        worst = max(worst, grad_check(lambda a, b: loop_conv2d(a, b, 2, 1), [x, k]))
    return worst


def _check_loop_adaptive_max_pool2d(seed: int) -> float:
    rng = Rng(seed)
    x = separated_maxima(rng, (6, 6, 3), bins=3)
    # overlapping bins (7 and 5 are not multiples of 3): distinct values
    # spaced 1/35 apart keep every argmax fixed under +-h
    overlap = Tensor(rng.permutation(70).reshape(7, 5, 2) / 35.0 - 1.0, requires_grad=True)
    return max(grad_check(lambda a: loop_adaptive_max_pool2d(a, 3), [case]) for case in (x, overlap))


def _check_upsample_nearest(seed: int) -> float:
    rng = Rng(seed)
    # 3x2 to 6x5: whole factor on rows, uneven copies on columns
    return grad_check(lambda a: upsample_nearest(a, 6, 5), [_rand(rng, (3, 2, 2))])


#: the chain ops: name -> callable(seed) -> max relative error.
ORACLE_CHECKS: dict[str, Callable[[int], float]] = {
    "matmul": _check_matmul,
    "relu": _check_relu,
    "mean": _check_mean,
    "broadcast_rows": _check_broadcast_rows,
    "add": _check_add,
    "mul": _check_mul,
    "reshape": _check_reshape,
    "concat_rows": _check_concat_rows,
    "layer_norm": _check_layer_norm,
    "dropout": _check_dropout,
    "softmax": _check_softmax,
    "clamped_nll": _check_clamped_nll,
}

#: the conv, pool and upsample references, in the same form.
REFERENCE_CHECKS: dict[str, Callable[[int], float]] = {
    "conv2d": _check_conv2d,
    "loop_conv2d": _check_loop_conv2d,
    "loop_adaptive_max_pool2d": _check_loop_adaptive_max_pool2d,
    "upsample_nearest": _check_upsample_nearest,
}
