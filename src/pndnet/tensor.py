"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap row-major numpy float32/float64 buffers. Operations record a
computation graph whenever any input requires gradients and the calling
thread is outside ``no_grad()``; ``Tensor.backward``, seeded with a cotangent
of a node's shape (1 for a scalar), then accumulates gradients into every
participating tensor's ``.grad``.

Conventions used across the package: images and feature maps are [H, W, C],
node matrices are [P, C]. Convolution is cross-correlation (no kernel flip);
ReLU is ``np.maximum``.
Every backbone conv, conv -> bias -> ReLU -> max pool, is one op,
``conv2d_bias_pool_relu``, that pools the pre-activation and rectifies the
pooled map: max pooling commutes with any non-decreasing activation, so
``pool(relu(z)) == relu(pool(z))`` exactly. The 1x1 projection is the same op
on a grid of 1x1 bins, where the pool is the identity.
When the grid divides the conv output, the op runs in L2-sized bands of
pooled rows (``_BAND_ROWS``), each GEMM writing one slab per pool phase, so
no full-size column matrix, pre-activation or padded input exists. A forward
that records no graph computes values only: no argmax offsets, and the bias
goes on the pooled map (monotone rounding keeps the bytes), while a recorded
one pools conv + bias, whose first maxima route the gradient.
Spatial pyramid pooling is one op too, ``spp_max_pool``. It, and a backbone
grid that does not divide the map, gather each bin through a cached table of
flat indices and take a ``max``, and, when recording, its first position.
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

    def backward(self, grad=None):
        """Reverse-topological gradient accumulation from this node, seeded
        with the cotangent ``grad`` of its shape (a vector-Jacobian product);
        a scalar node's default seed is 1.

        The sort skips leaves (parameters, inputs): they have no backward
        rule, and their children's rules accumulate into them.
        """
        if grad is None:
            if self.data.size != 1:
                raise ArgumentError(f"backward without a gradient needs a scalar node, got shape {self.shape}")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise DimensionError(f"backward gradient shape {np.shape(grad)} does not match node shape {self.shape}")
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
        _accumulate(self, grad)
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


def _check_finite(data: np.ndarray, op: str):
    """Raise where ``op`` produced a non-finite value: every op relies on
    this to surface divergence where it starts."""
    if not np.isfinite(data).all():
        raise NumericalError(f"non-finite values produced by {op}")


def _record(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    """Wrap an op's output in a graph node after the finite check."""
    _check_finite(data, op)
    return _node(data, parents, backward, op)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    """Wrap an op's output in a graph node; the op has checked its values
    (``_check_finite``) where a non-finite value would start."""
    out = Tensor(data)
    out._op = op
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ArgumentError(f"softmax axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        _accumulate(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _record(y, (a,), backward, "softmax")


# ---------------------------------------------------------------------------
# spatial ops on [H, W, C] maps


# BLAS computes a GEMM's last partial panel of rows with narrower kernels that
# round differently, so a row's bytes would depend on its position: the phase
# order and the raster order of one conv would disagree in a few pixels. Every
# forward GEMM pads its rows to a multiple of this, the widest row panel of the
# common x86 kernels, so every pixel goes through a full panel in any order.
_ROW_PANEL = 16

# Conv-output pixels per band of the block op, a multiple of _ROW_PANEL. At the
# paper geometry block 2's bands are 4 pooled rows, 896 pixels of 288 float32
# columns: 0.98 MiB, which stays in a 2 MiB L2 with the band's output. The
# test-suite geometry's largest map, 32 x 32, is one band.
_BAND_ROWS = 1024


def _conv_extent(x: np.ndarray, kernel: np.ndarray, pad: int) -> tuple[int, int]:
    """Validated output extent (ho, wo) of a stride-1 cross-correlation of an
    [H, W, Cin] map, zero-padded by ``pad``, with a [kh, kw, Cin, Cout] kernel."""
    if x.ndim != 3 or kernel.ndim != 4:
        raise DimensionError(f"conv2d expects [H,W,Cin] x [kh,kw,Cin,Cout], got {x.shape} x {kernel.shape}")
    if pad < 0:
        raise ArgumentError(f"pad must be >= 0, got {pad}")
    h, w, cin = x.shape
    kh, kw, kcin, _ = kernel.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kernel.shape} larger than padded input {(hp, wp, cin)}")
    return hp - kh + 1, wp - kw + 1


def _band_columns(x: np.ndarray, pad: int, kh: int, kw: int, rows: tuple[int, int],
                  phases: tuple[int, int] = (1, 1)) -> np.ndarray:
    """im2col rows of conv-output rows [o0, o1) of an [H, W, C] map
    zero-padded by ``pad``: one row per output pixel, in the kernel's
    (kh, kw, C) column order.

    Rows come in phase order (pi, pj, r, c) for ``phases`` (sh, sw) dividing
    the band's rows and the output width: output pixel (o0 + r * sh + pi,
    c * sw + pj), so the GEMM writes one contiguous slab per phase of the
    sh x sw tiles; (1, 1) is raster order. Only the input rows the band
    reads are padded, into a zeroed buffer, and the window view is one
    ``np.ndarray`` over the band's buffer with its strides, which the
    reshape copies; ``as_strided``, ``np.pad`` and ``sliding_window_view``
    cost several times more per call in argument handling alone. The buffer
    must be contiguous, so an unpadded band of a strided map is copied
    first; a band of a contiguous map is a view of it.
    """
    (o0, o1), (sh, sw) = rows, phases
    h, w, c = x.shape
    if pad:
        band = np.zeros((o1 - o0 + kh - 1, w + 2 * pad, c), dtype=x.dtype)
        lo, hi = max(o0 - pad, 0), min(o1 + kh - 1 - pad, h)   # the input rows inside the band
        band[lo - o0 + pad:hi - o0 + pad, pad:pad + w] = x[lo:hi]
    else:
        band = np.ascontiguousarray(x[o0:o1 + kh - 1])   # a copy only for a strided map
    wo = band.shape[1] - kw + 1
    s0, s1, s2 = band.strides
    win = np.ndarray((sh, sw, (o1 - o0) // sh, wo // sw, kh, kw, c), band.dtype, buffer=band,
                     strides=(s0, s1, s0 * sh, s1 * sw, s0, s1, s2))
    return win.reshape(-1, kh * kw * c)


def _band_gemm(cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``cols @ weights`` with ``cols``' rows padded to a multiple of
    ``_ROW_PANEL``, so each row's bytes are those of any other band or order."""
    m = len(cols)
    if m % _ROW_PANEL:
        cols = np.concatenate([cols, np.zeros((-m % _ROW_PANEL, cols.shape[1]), dtype=cols.dtype)])
    return (cols @ weights)[:m]


def conv2d_bias_pool_relu(x: Tensor, kernel: Tensor, bias: Tensor, n: int, pad: int = 0) -> Tensor:
    """``relu(conv + bias)`` max-pooled onto an n x n grid of adaptive bins,
    as one op. The conv is stride-1 cross-correlation of an [H, W, Cin] map,
    zero-padded by ``pad``, with a [kh, kw, Cin, Cout] kernel. Every backbone
    conv is this op; on the 1x1 projection's grid of 1x1 bins the pool is the
    identity, and the op skips it.

    Max pooling commutes with the non-decreasing ReLU, so the op pools the
    pre-activation and rectifies only the n x n result: where a bin's maximum
    is positive both orders select the same first maximum, and where it is
    not, both pass no gradient. Values are bit-identical to the conv -> bias
    -> ReLU -> pool chain. A recorded forward pools conv + bias, whose first
    maxima route the gradient; without a graph the op pools the conv z and
    adds the bias b to the n x n map, the same bytes, since rounding is
    monotone: max(fl(z + b)) == fl(max(z) + b). The finite check stays exact
    (the pool would drop a -inf or NaN that no bin selects, and the ReLU
    would map an overflowed -inf to 0): a recorded band checks all of z + b;
    otherwise the biased maxima show any NaN or +inf, and a band checks its
    z + b only when min(z) + min(b) overflows, as any -inf in z + b makes it.

    When n divides both extents the bins are disjoint sh x sw tiles, and the
    op runs in bands of whole pooled rows, about ``_BAND_ROWS`` pixels each.
    Per band, the forward copies the im2col rows in phase order
    (``_band_columns``) and runs one GEMM that writes one slab per tile phase
    (``_band_gemm``); a recorded forward keeps the offsets of a strict ``>``
    first maximum over the slabs in row-major phase order, which is each
    bin's row-major first maximum. The backward writes the band's raster
    gradient once, through one strided view per phase, and adds the band's
    kernel gradient ``colsᵀ · dpre`` and its kh * kw input-gradient taps.
    Other extents are one band, pooled by ``_bin_max`` as ``spp_max_pool``
    does and scatter-added back through the kept indices. The bias gradient
    sums the masked pooled gradient. Over several bands the kernel and input
    gradients sum in another order than one whole-map GEMM, so they match the
    chain to rounding; in one band, bit for bit.
    """
    if n <= 0:
        raise ArgumentError(f"grid size must be positive, got {n}")
    ho, wo = _conv_extent(x.data, kernel.data, pad)
    kh, kw, cin, cout = kernel.data.shape
    if bias.data.shape != (cout,):
        raise DimensionError(f"bias shape {bias.data.shape} does not match conv output {(ho, wo, cout)}")
    parents = (x, kernel, bias)
    weights = kernel.data.reshape(-1, cout)
    tiled = ho % n == wo % n == 0
    sh, sw = (ho // n, wo // n) if tiled else (1, 1)
    phases = sh * sw
    # bands of pooled rows on the tiles; the identity and the adaptive pool take one band
    step = max(1, _BAND_ROWS // (sh * wo)) if phases > 1 else ho
    bands = [(r, min(r + step, ho // sh)) for r in range(0, ho // sh, step)]
    # a recorded pool's first maximum on conv + bias routes the gradient; without one the bias goes after
    bias_late = not (tiled and phases == 1 or _recording(parents))
    floor = -float(np.finfo(x.data.dtype).max) - float(bias.data.min()) if bias_late else None

    def conv(r0: int, r1: int) -> np.ndarray:
        """[phases, r1 - r0, wo / sw, Cout] conv of pooled rows [r0, r1), plus the bias unless ``bias_late``."""
        cols = _band_columns(x.data, pad, kh, kw, (r0 * sh, r1 * sh), (sh, sw))
        z = _band_gemm(cols, weights).reshape(phases, r1 - r0, wo // sw, cout).astype(x.data.dtype, copy=False)
        if not bias_late:
            z += bias.data
            _check_finite(z, "conv2d_bias_pool_relu")
        elif not float(z.min()) > floor:   # min(z) + min(b) > -max, unless some z + b is -inf (or NaN)
            _check_finite(np.add(z, bias.data, out=np.empty_like(z)), "conv2d_bias_pool_relu")
        return z

    off = flat = None   # what each pool's backward keeps
    if not tiled:
        pooled, flat = _bin_max(conv(0, ho)[0], n, not bias_late)
        pooled = pooled.reshape(n, n, cout)
    elif phases == 1:   # 1x1 bins: the pool is the identity
        pooled = conv(0, n)[0]
    else:
        pooled = np.empty((n, n, cout), dtype=x.data.dtype)
        off = None if bias_late else np.zeros((n, n, cout), dtype=np.min_scalar_type(phases - 1))
        for r0, r1 in bands:
            slabs, best = conv(r0, r1), pooled[r0:r1]
            if off is None:
                slabs.max(axis=0, out=best)
            else:
                best[...], band_off = slabs[0], off[r0:r1]
                for k in range(1, phases):
                    better = slabs[k] > best
                    band_off += better * (k - band_off)   # unsigned differences wrap, and wrap back exactly
                    np.maximum(best, slabs[k], out=best)
    if bias_late:   # rounding is monotone, so max(z) + b == max(z + b) bit for bit
        pooled += bias.data
        _check_finite(pooled, "conv2d_bias_pool_relu")
    out = np.maximum(pooled, 0, out=pooled)
    out += 0   # signed zeros as in relu; the running maximum's zero sign is moot after it

    def raster_gradient(gm: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """[(r1 - r0) * sh, wo, Cout] gradient of the conv output in pooled rows [r0, r1)."""
        if not tiled:
            dpre = np.zeros((ho, wo, cout), dtype=gm.dtype)
            np.add.at(dpre.reshape(-1), flat.reshape(-1), gm.reshape(-1))
        elif phases == 1:
            dpre = gm
        else:
            dpre = np.empty(((r1 - r0) * sh, wo, cout), dtype=gm.dtype)
            tiles = dpre.reshape(r1 - r0, sh, n, sw, cout)
            for k in range(phases):
                np.multiply(gm[r0:r1], off[r0:r1] == k, out=tiles[:, k // sw, :, k % sw])
        return dpre

    def gradients(gm: np.ndarray):
        """Accumulate the bias gradient of the masked pooled gradient ``gm``;
        return the kernel gradient and the padded input gradient, band by band."""
        _accumulate(bias, gm.sum(axis=(0, 1)))
        dk, dxp = None, np.zeros((ho + kh - 1, wo + kw - 1, cin), dtype=x.data.dtype) if x.requires_grad else None
        for r0, r1 in bands:
            o0, o1 = r0 * sh, r1 * sh
            gflat = raster_gradient(gm, r0, r1).reshape(-1, cout)
            if kernel.requires_grad:
                part = _band_columns(x.data, pad, kh, kw, (o0, o1)).T @ gflat
                dk = part if dk is None else np.add(dk, part, out=dk)
            if dxp is not None:
                for u in range(kh):
                    for v in range(kw):
                        dxp[o0 + u:o1 + u, v:v + wo] += (gflat @ kernel.data[u, v].T).reshape(o1 - o0, wo, cin)
        return dk, dxp

    def backward(g):
        dk, dxp = gradients(g * (out > 0))   # its band arrays and gm are freed before x.grad is allocated
        if dk is not None:
            _accumulate(kernel, dk.reshape(kernel.data.shape))
        if dxp is not None:
            _accumulate(x, dxp[pad:dxp.shape[0] - pad, pad:dxp.shape[1] - pad])

    return _node(out, parents, backward, "conv2d_bias_pool_relu")   # every band was checked


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


def _bin_max(x: np.ndarray, n: int, first: bool):
    """[n * n, C] maxima of an [h, w, C] map's n x n adaptive bins in
    row-major order, by one gather through ``_spp_table`` and a ``max``;
    with ``first``, also [n * n, C] indices into ``x.reshape(-1)`` of each
    bin's first maximum, its first element equal to the ``max`` (else None)."""
    h, w, c = x.shape
    table = _spp_table(h, w, n)
    g = np.take(x.reshape(h * w, c), table, axis=0)   # [n * n, K, C]
    top = g.max(axis=1)
    if not first:
        return top, None
    arg = (g == top[:, None]).argmax(axis=1)   # [n * n, C] offsets within the bins
    arg += np.arange(0, table.size, table.shape[1])[:, None]
    flat = table.take(arg)
    flat *= c
    flat += np.arange(c)
    return top, flat


def spp_max_pool(x: Tensor, levels: Sequence[int]) -> Tensor:
    """Spatial pyramid max pooling of an [H, W, C] map -> [sum n^2, C],
    rows in (level, bin row, bin col) order: each level's n x n adaptive max
    pool as n * n rows, the levels stacked in order, as one op, bit-identical
    in values and gradients to that chain of ops (``chain_spp`` in
    ``tests/oracles.py``). Each level takes its bins' maxima with
    ``_bin_max``, and, when the op records a graph, their first maxima's
    indices; the backward scatters each level into its own zeroed buffer and
    accumulates the levels in order, as the chain's backward does."""
    if x.data.ndim != 3:
        raise DimensionError(f"spp_max_pool expects [H,W,C], got {x.data.shape}")
    if not levels or any(n <= 0 for n in levels):
        raise ArgumentError(f"pyramid levels must be non-empty and positive, got {tuple(levels)}")
    first = _recording((x,)) or np.signbit(x.data).any()   # a -0.0 maximum needs its first position
    tops, picks = zip(*(_bin_max(x.data, n, first) for n in levels))   # picks index x.reshape(-1)
    out = np.concatenate(tops)
    if first:   # max may return either of -0.0 and +0.0; the first maximum's sign is the chain's
        zero = out == 0
        out[zero] = np.take(x.data, np.concatenate(picks)[zero])

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
