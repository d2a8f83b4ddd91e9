"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap row-major numpy float32/float64 buffers. Operations record a
computation graph whenever any input requires gradients and grad recording is
enabled; ``Tensor.backward`` on a scalar then accumulates gradients into every
participating tensor's ``.grad``.

Conventions used across the package: images and feature maps are [H, W, C],
node matrices are [P, C]. Convolution is cross-correlation (no kernel flip):
one im2col GEMM, whose matrix the backward rebuilds; ReLU is ``np.maximum``.
A backbone block, conv -> ReLU -> max pool, is one op that pools the
pre-activation and rectifies the pooled map: max pooling commutes with any
non-decreasing activation, so ``pool(relu(z)) == relu(pool(z))`` exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, NumericalError

# Every registered op asserts its output is finite. Training relies on this
# to surface divergence at the op that produced it.
CHECK_FINITE = True

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (eval-mode forwards are plain numpy)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Rng:
    """Seedable PCG64 stream: identical seed, identical draws, any platform."""

    ALGORITHM = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "Rng":
        """Independent stream derived from (seed, tag), stable across runs."""
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, algorithm={self.ALGORITHM!r})"


class Tensor:
    """N-dimensional float tensor, optionally tracked by the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ArgumentError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-topological gradient accumulation from a scalar node."""
        if self.data.size != 1:
            raise ArgumentError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, op={self._op!r})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other, self)))

    def __rsub__(self, other):
        return add(_wrap(other, self), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _record(data: np.ndarray, parents: Sequence[Tensor], backward, op: str,
            scan: np.ndarray | None = None) -> Tensor:
    """Wrap an op's output in a graph node after the finite check.

    ``scan`` names the array the check covers when it is not ``data`` itself
    (a fused op scans its pre-activation, which ReLU would mask).
    """
    if CHECK_FINITE and not np.all(np.isfinite(data if scan is None else scan)):
        raise NumericalError(f"non-finite values produced by {op}")
    out = Tensor(data)
    out._op = op
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


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


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


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


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

    return _record(-a.data, (a,), backward, "neg")


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ArgumentError(f"softmax axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        _accumulate(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _record(y, (a,), backward, "softmax")


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _record(data, (a,), backward, "sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size // data.size

    def backward(g):
        expanded = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(expanded / count, a.data.shape).astype(a.data.dtype, copy=False))

    return _record(np.asarray(data, dtype=a.data.dtype), (a,), backward, "mean")


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


def broadcast_rows(a: Tensor, n: int) -> Tensor:
    """Tile a [1, C] row to [n, C]; gradient sums over the tiled rows."""
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise DimensionError(f"broadcast_rows expects [1, C], got {a.data.shape}")
    if n < 1:
        raise ArgumentError(f"row count must be >= 1, got {n}")

    def backward(g):
        _accumulate(a, g.sum(axis=0, keepdims=True))

    return _record(np.broadcast_to(a.data, (n, a.data.shape[1])).copy(), (a,), backward, "broadcast_rows")


# ---------------------------------------------------------------------------
# spatial ops on [H, W, C] maps


def _conv(x: Tensor, kernel: Tensor, stride: int, pad: int):
    """Validated cross-correlation: the unrecorded output and its backward rule."""
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise DimensionError(f"conv2d expects [H,W,Cin] x [kh,kw,Cin,Cout], got {x.data.shape} x {kernel.data.shape}")
    if stride < 1:
        raise ArgumentError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ArgumentError(f"pad must be >= 0, got {pad}")
    h, w, cin = x.data.shape
    kh, kw, kcin, cout = kernel.data.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {kernel.data.shape}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kernel.data.shape} larger than padded input {(hp, wp, cin)}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    xp = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0))) if pad else x.data

    def columns():   # im2col: one row per output pixel, in the kernel's (kh, kw, cin) row order
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))[::stride, ::stride]
        return win.transpose(0, 1, 3, 4, 2).reshape(ho * wo, kh * kw * cin)

    out = (columns() @ kernel.data.reshape(-1, cout)).reshape(ho, wo, cout).astype(x.data.dtype, copy=False)

    def backward(g):
        gflat = g.reshape(-1, cout)
        if kernel.requires_grad:
            _accumulate(kernel, (columns().T @ gflat).reshape(kernel.data.shape))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    contrib = (gflat @ kernel.data[u, v].T).reshape(ho, wo, cin)
                    dxp[u:u + (ho - 1) * stride + 1:stride, v:v + (wo - 1) * stride + 1:stride] += contrib
            _accumulate(x, dxp[pad:pad + h, pad:pad + w] if pad else dxp)

    return out, backward


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of an [H, W, Cin] map with a [kh, kw, Cin, Cout] kernel."""
    out, backward = _conv(x, kernel, stride, pad)
    return _record(out, (x, kernel), backward, "conv2d")


def _conv_bias(x: Tensor, kernel: Tensor, bias: Tensor, pad: int):
    """Same-stride conv plus bias, in place: the pre-activation and the
    conv's backward rule."""
    pre, conv_backward = _conv(x, kernel, 1, pad)
    if bias.data.shape != (pre.shape[2],):
        raise DimensionError(f"bias shape {bias.data.shape} does not match conv output {pre.shape}")
    pre += bias.data
    return pre, conv_backward


def conv2d_bias_relu(x: Tensor, kernel: Tensor, bias: Tensor, pad: int = 0) -> Tensor:
    """``relu(conv2d(x, kernel, pad=pad) + bias)`` recorded as one op.

    Values and gradients are bit-identical to the three-op chain, which keeps
    two intermediate maps alive per call. The finite check runs on the
    pre-activation, since the ReLU would map an overflowed -inf to 0.
    """
    pre, conv_backward = _conv_bias(x, kernel, bias, pad)
    mask = pre > 0

    def backward(g):
        g = g * mask
        conv_backward(g)
        _accumulate(bias, g.sum(axis=(0, 1)))

    out = np.maximum(pre, 0)
    out += 0   # signed zeros as in relu
    return _record(out, (x, kernel, bias), backward, "conv2d_bias_relu", scan=pre)


def conv2d_bias_pool_relu(x: Tensor, kernel: Tensor, bias: Tensor, n: int, pad: int = 0) -> Tensor:
    """``adaptive_max_pool2d(conv2d_bias_relu(x, kernel, bias, pad), n)`` as one op.

    Max pooling commutes with the non-decreasing ReLU, so the op pools the
    pre-activation and rectifies only the n x n result. Where a bin's maximum
    is positive both orders select the same first maximum; where it is not,
    both pass no gradient. Values and gradients are bit-identical to the
    chain. The finite check covers the whole pre-activation, since the pool
    would drop a -inf or NaN that no bin selects. The backward keeps only
    the pooled output and the per-bin row and column offsets.
    """
    if n <= 0:
        raise ArgumentError(f"grid size must be positive, got {n}")
    pre, conv_backward = _conv_bias(x, kernel, bias, pad)
    shape = pre.shape   # the backward must not hold the full-size map itself
    h, w, _ = shape
    rows, cols = _bin_table(h, n), _bin_table(w, n)
    col_max, col_off, _ = _first_max(pre, cols, axis=1)
    pooled, row_off, col_off = _first_max(col_max, rows, axis=0, carry=col_off)
    out = np.maximum(pooled, 0)
    out += 0   # signed zeros as in relu; the running maximum's zero sign is moot after it

    def backward(g):
        dpre = np.zeros(shape, dtype=out.dtype)
        np.add.at(dpre.reshape(-1), _argmax_index(rows, cols, row_off, col_off, w).reshape(-1),
                  (g * (out > 0)).reshape(-1))
        conv_backward(dpre)
        _accumulate(bias, dpre.sum(axis=(0, 1)))

    return _record(out, (x, kernel, bias), backward, "conv2d_bias_pool_relu", scan=pre)


def _pool_bins(extent: int, n: int) -> list[tuple[int, int]]:
    # bin r spans [floor(r*extent/n), ceil((r+1)*extent/n)); bins may overlap
    # when n does not divide extent, and are always non-empty.
    return [(math.floor(r * extent / n), math.ceil((r + 1) * extent / n)) for r in range(n)]


def _bin_table(extent: int, n: int) -> np.ndarray:
    """[n, K] indices of each adaptive bin, K the widest bin; a short bin
    repeats its last index, which never beats the maximum already held."""
    bins = np.array(_pool_bins(extent, n), dtype=np.intp)
    k = int((bins[:, 1] - bins[:, 0]).max())
    return np.minimum(bins[:, :1] + np.arange(k), bins[:, 1:] - 1)


def _first_max(x: np.ndarray, table: np.ndarray, axis: int, carry: np.ndarray | None = None):
    """Per-bin maximum of ``x`` along ``axis``, the offset within its bin of
    the first element attaining it, and that element's entry of ``carry``.

    The strict ``>`` keeps the first maximum. Selection is integer arithmetic,
    not a masked select, which is several times slower on unpredictable
    masks; differences of unsigned offsets wrap, and wrap back exactly. The
    running maximum only steers the comparisons (``np.maximum`` may keep
    either zero of a +-0 tie), so callers read exact values at the offsets.
    """
    val = np.take(x, table[:, 0], axis=axis)
    off = np.zeros(val.shape, dtype=np.min_scalar_type(table.shape[1] - 1))
    kept = None if carry is None else np.take(carry, table[:, 0], axis=axis)
    for k in range(1, table.shape[1]):
        cand = np.take(x, table[:, k], axis=axis)
        better = cand > val
        off += better * (k - off)
        if carry is not None:
            kept += better * (np.take(carry, table[:, k], axis=axis) - kept)
        val = np.maximum(val, cand)
    return val, off, kept


def _argmax_index(rows: np.ndarray, cols: np.ndarray, row_off: np.ndarray, col_off: np.ndarray,
                  w: int) -> np.ndarray:
    """Each bin's first maximum as an index into ``x.reshape(-1)`` of an
    [h, w, C] map, from its bin tables and the [n, n, C] offsets of
    ``_first_max``; built in place in one intp array."""
    flat = row_off.astype(np.intp)
    flat += rows[:, 0, None, None]
    flat *= w
    flat += cols[None, :, 0, None]
    flat += col_off
    flat *= flat.shape[2]
    flat += np.arange(flat.shape[2])
    return flat


def adaptive_max_pool2d(x: Tensor, n: int) -> Tensor:
    """Max-pool an [H, W, C] map onto an n x n grid of adaptive bins.

    Separable: each row's column bins are reduced first, then the row bins
    of those maxima. Taking the first maximum on each axis selects the first
    maximum of every bin in row-major order, for any extent and grid.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"adaptive_max_pool2d expects [H,W,C], got {x.data.shape}")
    if n <= 0:
        raise ArgumentError(f"grid size must be positive, got {n}")
    h, w, _ = x.data.shape
    rows, cols = _bin_table(h, n), _bin_table(w, n)
    col_max, col_off, _ = _first_max(x.data, cols, axis=1)                  # [h, n, C]
    _, row_off, col_off = _first_max(col_max, rows, axis=0, carry=col_off)  # [n, n, C]
    flat = _argmax_index(rows, cols, row_off, col_off, w)
    out = np.take(x.data, flat)

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx.reshape(-1), flat.reshape(-1), g.reshape(-1))
        _accumulate(x, dx)

    return _record(out, (x,), backward, "adaptive_max_pool2d")


def avg_pool_region(x: Tensor, rows: tuple[int, int], cols: tuple[int, int]) -> Tensor:
    """Per-channel mean over the half-open rectangle rows x cols -> [C]."""
    if x.data.ndim != 3:
        raise DimensionError(f"avg_pool_region expects [H,W,C], got {x.data.shape}")
    h, w, _ = x.data.shape
    r0, r1 = rows
    c0, c1 = cols
    if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
        raise ArgumentError(f"region rows={rows} cols={cols} invalid for map {x.data.shape}")
    count = (r1 - r0) * (c1 - c0)
    data = x.data[r0:r1, c0:c1, :].mean(axis=(0, 1))

    def backward(g):
        dx = np.zeros_like(x.data)
        dx[r0:r1, c0:c1, :] = g / count
        _accumulate(x, dx)

    return _record(data, (x,), backward, "avg_pool_region")


def upsample_nearest(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbor upsampling of an [h, w, C] map to [out_h, out_w, C]."""
    if x.data.ndim != 3:
        raise DimensionError(f"upsample_nearest expects [H,W,C], got {x.data.shape}")
    h, w, _ = x.data.shape
    if out_h < h or out_w < w:
        raise ArgumentError(f"upsample cannot shrink {x.data.shape[:2]} to {(out_h, out_w)}")
    ri = (np.arange(out_h) * h) // out_h
    ci = (np.arange(out_w) * w) // out_w
    data = x.data[ri[:, None], ci[None, :], :]

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (ri[:, None], ci[None, :]), g)
        _accumulate(x, dx)

    return _record(data, (x,), backward, "upsample_nearest")


def layer_norm(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``.

    Learnable scale and shift are composed by callers as ``y * gamma + beta``
    so their gradients flow through the usual elementwise ops.
    """
    if x.data.shape[axis] < 1:
        raise ArgumentError(f"layer_norm axis extent must be >= 1 on shape {x.data.shape}")
    mu = x.data.mean(axis=axis, keepdims=True)
    var = x.data.var(axis=axis, keepdims=True)
    sigma = np.sqrt(var + eps)
    y = (x.data - mu) / sigma

    def backward(g):
        gm = g.mean(axis=axis, keepdims=True)
        gym = (g * y).mean(axis=axis, keepdims=True)
        _accumulate(x, (g - gm - y * gym) / sigma)

    return _record(y, (x,), backward, "layer_norm")


def dropout(x: Tensor, rate: float, mode: str, rng: Rng | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ArgumentError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ArgumentError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ArgumentError("dropout in train mode needs an Rng")
    keep = (rng.uniform(size=x.data.shape) >= rate)
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype)
    factor = keep * scale

    def backward(g):
        _accumulate(x, g * factor)

    return _record(x.data * factor, (x,), backward, "dropout")


def sgd_step(param: Tensor, grad, lr: float):
    """In-place SGD update: param <- param - lr * grad."""
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
    if g.shape != param.data.shape:
        raise DimensionError(f"sgd_step shape mismatch: param {param.data.shape} vs grad {g.shape}")
    param.data -= np.asarray(lr, dtype=param.data.dtype) * g.astype(param.data.dtype, copy=False)
