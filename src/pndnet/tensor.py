"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap row-major numpy float32/float64 buffers. Operations record a
computation graph whenever any input requires gradients and the calling
thread is outside ``no_grad()``; ``Tensor.backward`` on a scalar then
accumulates gradients into every participating tensor's ``.grad``.

Conventions used across the package: images and feature maps are [H, W, C],
node matrices are [P, C]. Convolution is cross-correlation (no kernel flip):
one im2col GEMM, whose matrix the backward rebuilds from the unpadded input, so
no padded copy outlives the forward; ReLU is ``np.maximum``.
Every backbone conv, conv -> bias -> ReLU -> max pool, is one op,
``conv2d_bias_pool_relu``, that pools the pre-activation and rectifies the
pooled map: max pooling commutes with any non-decreasing activation, so
``pool(relu(z)) == relu(pool(z))`` exactly. The 1x1 projection is the same op
on a grid of 1x1 bins, where the pool is the identity.
When the grid divides the conv output, the GEMM writes the map in pool-phase
order, one contiguous slab per position within a bin, so the pool is an
elementwise maximum over the slabs and its backward writes each slab once;
a forward that records no graph keeps no argmax offsets.
Spatial pyramid pooling is one op too, ``spp_max_pool``. It, and a backbone
grid that does not divide the map, find each bin's first maximum with one
gather through a cached table of each bin's flat indices and an ``argmax``.
Region and global-average nodes are one op, ``region_pool``: cell means of
the nearest-upsampled map as one GEMM per axis on the map itself.
Only ops that a model path or Grad-CAM records live here; the unfused forms
the fused ops replace are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, NumericalError

# Graph recording is per thread: each thread starts with recording on, and
# only its own ``no_grad()`` blocks turn it off.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


def __getattr__(name):
    if name == "_GRAD_ENABLED":   # perfbench's tracer reads this name on every span
        return _grad_enabled.get()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in this thread (eval-mode forwards are plain numpy)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "__weakref__")

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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-topological gradient accumulation from a scalar node.

        The sort skips leaves (parameters, inputs): they have no backward
        rule, and their children's rules accumulate into them.
        """
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
                if parent._backward is not None and id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, op={self._op!r})"


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _record(data: np.ndarray, parents: Sequence[Tensor], backward, op: str,
            scan: np.ndarray | None = None) -> Tensor:
    """Wrap an op's output in a graph node after the finite check, which
    every op relies on to surface divergence where it starts.

    ``scan`` names the array the check covers when it is not ``data`` itself
    (a fused op scans its pre-activation, which ReLU would mask).
    """
    if not np.isfinite(data if scan is None else scan).all():
        raise NumericalError(f"non-finite values produced by {op}")
    out = Tensor(data)
    out._op = op
    if _recording(parents):
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), backward, "mul")


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


def _im2col(x: np.ndarray, pad: int, kh: int, kw: int, ho: int, wo: int,
            phases: tuple[int, int] = (1, 1)) -> np.ndarray:
    """[ho * wo, kh * kw * C] im2col matrix of an [H, W, C] map zero-padded by
    ``pad``: one row per output pixel, in the kernel's (kh, kw, C) row order.

    Rows come in phase order (pi, pj, r, c) for ``phases`` (sh, sw) dividing
    (ho, wo): output pixel (r * sh + pi, c * sw + pj), so the GEMM writes one
    contiguous slab per phase of the sh x sw tiles; (1, 1) is raster order.
    The map is padded by writing it into a zeroed buffer, and the window view
    is one ``as_strided`` call over the buffer's strides, which the reshape
    copies; ``np.pad`` and ``sliding_window_view`` cost several times more
    per call in argument handling alone.
    """
    if pad:
        h, w, c = x.shape
        xp = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[pad:pad + h, pad:pad + w] = x
        x = xp
    (sh, sw), (s0, s1, s2) = phases, x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (sh, sw, ho // sh, wo // sw, kh, kw, x.shape[2]),
        (s0, s1, s0 * sh, s1 * sw, s0, s1, s2), writeable=False)
    return win.reshape(ho * wo, -1)


# BLAS computes a GEMM's last partial panel of rows with narrower kernels that
# round differently, so a row's bytes would depend on its position: the phase
# order and the raster order of one conv would disagree in a few pixels. The
# conv pads its rows to a multiple of this, the widest row panel of the common
# x86 kernels, so every pixel goes through a full panel in either order.
_ROW_PANEL = 16


def _conv(x: Tensor, kernel: Tensor, pad: int, grid: int = 0):
    """Validated stride-1 cross-correlation: the unrecorded output and its
    backward rule.

    The output is [sh, sw, ho / sh, wo / sw, Cout]: ``_im2col``'s phase slabs
    of the tiles of a ``grid`` x ``grid`` pool that divides both extents, else
    the [1, 1, ho, wo, Cout] raster map. The backward takes a raster gradient.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise DimensionError(f"conv2d expects [H,W,Cin] x [kh,kw,Cin,Cout], got {x.data.shape} x {kernel.data.shape}")
    if pad < 0:
        raise ArgumentError(f"pad must be >= 0, got {pad}")
    h, w, cin = x.data.shape
    kh, kw, kcin, cout = kernel.data.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {kernel.data.shape}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kernel.data.shape} larger than padded input {(hp, wp, cin)}")
    ho, wo = hp - kh + 1, wp - kw + 1

    sh, sw = (ho // grid, wo // grid) if grid and ho % grid == wo % grid == 0 else (1, 1)
    cols = _im2col(x.data, pad, kh, kw, ho, wo, (sh, sw))
    if ho * wo % _ROW_PANEL:
        cols = np.concatenate([cols, np.zeros((-ho * wo % _ROW_PANEL, cols.shape[1]), dtype=cols.dtype)])
    out = (cols @ kernel.data.reshape(-1, cout))[:ho * wo].reshape(
        sh, sw, ho // sh, wo // sw, cout).astype(x.data.dtype, copy=False)

    def backward(g):   # re-pads x.data, which the graph holds anyway, rather than keep a padded copy
        gflat = g.reshape(-1, cout)
        if kernel.requires_grad:
            cols = _im2col(x.data, pad, kh, kw, ho, wo)
            _accumulate(kernel, (cols.T @ gflat).reshape(kernel.data.shape))
        if x.requires_grad:
            dxp = np.zeros((hp, wp, cin), dtype=x.data.dtype)
            for u in range(kh):
                for v in range(kw):
                    dxp[u:u + ho, v:v + wo] += (gflat @ kernel.data[u, v].T).reshape(ho, wo, cin)
            _accumulate(x, dxp[pad:pad + h, pad:pad + w] if pad else dxp)

    return out, backward


def conv2d_bias_pool_relu(x: Tensor, kernel: Tensor, bias: Tensor, n: int, pad: int = 0) -> Tensor:
    """``relu(conv + bias)`` max-pooled onto an n x n grid of adaptive bins,
    as one op. The conv is stride-1 cross-correlation of an [H, W, Cin] map,
    zero-padded by ``pad``, with a [kh, kw, Cin, Cout] kernel. Every backbone
    conv is this op. On the 1x1 projection's grid of 1x1 bins the pool is the
    identity, and the op skips it: no offsets, no slab maximum, no scatter.

    Max pooling commutes with the non-decreasing ReLU, so the op pools the
    pre-activation and rectifies only the n x n result. Where a bin's maximum
    is positive both orders select the same first maximum; where it is not,
    both pass no gradient. Values and gradients are bit-identical to the
    conv -> bias -> ReLU -> pool chain. The finite check covers the whole
    pre-activation, since the pool would drop a -inf or NaN that no bin
    selects, and the ReLU would map an overflowed -inf to 0.

    When n divides both extents the bins are disjoint sh x sw tiles: the conv
    writes one [n, n, C] slab per tile phase (``_im2col``), and the pool is a
    strict ``>`` first maximum over the slabs in row-major phase order, which
    is each bin's row-major first maximum. The backward writes each element of
    the raster gradient once, through one strided view per phase; a forward
    that records no graph computes no offsets. Other extents gather each bin
    through ``_adaptive_argmax``, as ``spp_max_pool`` does, and the backward
    scatter-adds through the kept indices.
    """
    if n <= 0:
        raise ArgumentError(f"grid size must be positive, got {n}")
    parents = (x, kernel, bias)
    pre, conv_backward = _conv(x, kernel, pad, n)
    if bias.data.shape != (pre.shape[-1],):
        raise DimensionError(f"bias shape {bias.data.shape} does not match conv output {pre.shape}")
    pre += bias.data
    sh, sw, a, b, c = pre.shape   # the backward must not hold the full-size map itself
    shape = (sh * a, sw * b, c)
    if (sh, sw, a, b) == (1, 1, n, n):   # 1x1 bins: the pool is the identity
        pooled, scatter = pre[0, 0], (lambda gm: gm)
    elif (a, b) == (n, n):   # phase slabs of disjoint tiles
        slabs = pre.reshape(sh * sw, n, n, c)
        if _recording(parents):
            pooled, off = slabs[0], np.zeros((n, n, c), dtype=np.min_scalar_type(sh * sw - 1))
            for k in range(1, sh * sw):
                better = slabs[k] > pooled
                off += better * (k - off)   # unsigned differences wrap, and wrap back exactly
                pooled = np.maximum(pooled, slabs[k])
        else:
            pooled = slabs.max(axis=0)

        def scatter(gm):
            dpre = np.empty(shape, dtype=gm.dtype)
            tiles = dpre.reshape(n, sh, n, sw, c)
            for k in range(sh * sw):
                np.multiply(gm, off == k, out=tiles[:, k // sw, :, k % sw])
            return dpre
    else:
        flat = _adaptive_argmax(pre[0, 0], n)
        pooled = np.take(pre, flat)

        def scatter(gm):
            dpre = np.zeros(shape, dtype=gm.dtype)
            np.add.at(dpre.reshape(-1), flat.reshape(-1), gm.reshape(-1))
            return dpre
    out = np.maximum(pooled, 0)
    out += 0   # signed zeros as in relu; the running maximum's zero sign is moot after it

    def backward(g):
        dpre = scatter(g * (out > 0))
        dpre += 0   # -0.0 to +0.0, as the scatter-add into zeros leaves it
        conv_backward(dpre)
        _accumulate(bias, dpre.sum(axis=(0, 1)))

    return _record(out, parents, backward, "conv2d_bias_pool_relu", scan=pre)


def _pool_bins(extent: int, n: int) -> list[tuple[int, int]]:
    # bin r spans [floor(r*extent/n), ceil((r+1)*extent/n)); bins may overlap
    # when n does not divide extent, and are always non-empty.
    return [(math.floor(r * extent / n), math.ceil((r + 1) * extent / n)) for r in range(n)]


@functools.lru_cache(maxsize=256)
def _bin_table(extent: int, n: int) -> np.ndarray:
    """[n, K] indices of each adaptive bin, K the widest bin; a short bin
    repeats its last index, which never beats the maximum already held.
    Built once per (extent, n) and shared by every caller, so read-only."""
    bins = np.array(_pool_bins(extent, n), dtype=np.intp)
    k = int((bins[:, 1] - bins[:, 0]).max())
    table = np.minimum(bins[:, :1] + np.arange(k), bins[:, 1:] - 1)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=256)
def _spp_table(h: int, w: int, n: int) -> np.ndarray:
    """[n * n, K] flat indices into an h x w map of each adaptive bin's
    elements, bins and elements both in row-major order. A short bin
    repeats an index only after its first occurrence, so the first maximum
    along a row is the bin's first maximum in row-major order. Cached and
    read-only, like ``_bin_table``."""
    rows, cols = _bin_table(h, n), _bin_table(w, n)
    table = (rows[:, None, :, None] * w + cols[None, :, None, :]).reshape(n * n, -1)
    table.flags.writeable = False
    return table


def _adaptive_argmax(x: np.ndarray, n: int) -> np.ndarray:
    """[n, n, C] indices into ``x.reshape(-1)`` of each n x n adaptive bin's
    row-major first maximum in an [h, w, C] map: one gather through
    ``_spp_table`` and an ``argmax``, which keeps the first of equal maxima."""
    h, w, c = x.shape
    table = _spp_table(h, w, n)
    arg = np.take(x.reshape(h * w, c), table, axis=0).argmax(axis=1)   # [n * n, C] offsets within the bins
    arg += np.arange(0, table.size, table.shape[1])[:, None]
    flat = table.take(arg)
    flat *= c
    flat += np.arange(c)
    return flat.reshape(n, n, c)


def spp_max_pool(x: Tensor, levels: Sequence[int]) -> Tensor:
    """Spatial pyramid max pooling of an [H, W, C] map -> [sum n^2, C],
    rows in (level, bin row, bin col) order: each level's n x n adaptive max
    pool as n * n rows, the levels stacked in order, as one op, bit-identical
    in values and gradients to that chain of ops (``chain_spp`` in
    ``tests/oracles.py``). Each level takes its bins' first maxima with
    ``_adaptive_argmax``; the backward scatters each level into its own
    zeroed buffer and accumulates the levels in order, as the chain's
    backward does."""
    if x.data.ndim != 3:
        raise DimensionError(f"spp_max_pool expects [H,W,C], got {x.data.shape}")
    if not levels or any(n <= 0 for n in levels):
        raise ArgumentError(f"pyramid levels must be non-empty and positive, got {tuple(levels)}")
    c = x.data.shape[2]
    picks = [_adaptive_argmax(x.data, n).reshape(n * n, c) for n in levels]   # indices into x.reshape(-1)
    out = np.take(x.data, np.concatenate(picks))

    def backward(g):
        lo = 0
        for flat in picks:
            dx = np.zeros(x.data.shape, dtype=x.data.dtype)
            np.add.at(dx.reshape(-1), flat.reshape(-1), g[lo:lo + len(flat)].reshape(-1))
            _accumulate(x, dx)
            lo += len(flat)

    return _record(out, (x,), backward, "spp_max_pool")


@functools.lru_cache(maxsize=256)
def _coverage_table(extent: int, factor: int, n: int, dtype) -> np.ndarray:
    """[n, extent] weights of each adaptive bin of the ``factor``-times
    nearest-upsampled axis over the source indices: the copies of index i
    inside bin r, divided by the bin's length. Cached and read-only, like
    ``_bin_table``."""
    bins = np.array(_pool_bins(extent * factor, n))
    lo = np.arange(extent) * factor
    copies = np.minimum(bins[:, 1:], lo + factor) - np.maximum(bins[:, :1], lo)
    table = (np.maximum(copies, 0) / (bins[:, 1:] - bins[:, :1])).astype(dtype)
    table.flags.writeable = False
    return table


def region_pool(x: Tensor, grid: int, factor: int) -> Tensor:
    """Mean of each cell of a grid x grid adaptive partition of the
    ``factor``-times nearest-upsampled [H, W, C] map -> [grid^2, C], cells in
    row-major order, without building the upsampled map: one GEMM per axis
    with its ``_coverage_table``; the backward is the transposed GEMMs."""
    if x.data.ndim != 3:
        raise DimensionError(f"region_pool expects [H,W,C], got {x.data.shape}")
    h, w, c = x.data.shape
    if factor < 1:
        raise ArgumentError(f"upsample factor must be >= 1, got {factor}")
    if not 1 <= grid <= factor * min(h, w):
        raise ArgumentError(f"region grid {grid} out of range for map {x.data.shape} upsampled {factor}x")
    rows = _coverage_table(h, factor, grid, x.data.dtype)
    cols = _coverage_table(w, factor, grid, x.data.dtype)
    part = (rows @ x.data.reshape(h, w * c)).reshape(grid, w, c)

    def backward(g):
        part_grad = cols.T @ g.reshape(grid, grid, c)
        _accumulate(x, (rows.T @ part_grad.reshape(grid, w * c)).reshape(h, w, c))

    return _record((cols @ part).reshape(grid * grid, c), (x,), backward, "region_pool")


def _normalize(x: np.ndarray, axis: int, eps: float = 1e-5):
    """Layer norm's forward: ``x`` at zero mean and unit variance along
    ``axis``, and the per-slice standard deviation its backward needs."""
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    sigma = np.sqrt(var + eps)
    return (x - mu) / sigma, sigma


def _normalize_grad(g: np.ndarray, y: np.ndarray, sigma: np.ndarray, axis: int) -> np.ndarray:
    """Layer norm's input gradient from its output ``y`` and ``sigma``."""
    gm = g.mean(axis=axis, keepdims=True)
    gym = (g * y).mean(axis=axis, keepdims=True)
    return (g - gm - y * gym) / sigma


def _dropout_factor(shape: tuple[int, ...], dtype, rate: float, mode: str, rng: Rng | None):
    """Inverted dropout's multiplier for an input of ``shape``: 0 where
    ``rng.uniform(size=shape) < rate``, else ``1 / (1 - rate)``; None (and
    no draw) in eval mode or at rate 0, where dropout is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ArgumentError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ArgumentError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return None
    if rng is None:
        raise ArgumentError("dropout in train mode needs an Rng")
    keep = (rng.uniform(size=shape) >= rate)
    return keep * np.asarray(1.0 / (1.0 - rate), dtype=dtype)


def sgd_step(param: Tensor, grad, lr: float):
    """In-place SGD update: param <- param - lr * grad."""
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
    if g.shape != param.data.shape:
        raise DimensionError(f"sgd_step shape mismatch: param {param.data.shape} vs grad {g.shape}")
    param.data -= np.asarray(lr, dtype=param.data.dtype) * g.astype(param.data.dtype, copy=False)
