"""Region pooling and spatial pyramid pooling over [H, W, C] feature maps.

The map is either partitioned into a g x g grid of averaged region
descriptors (the region-only path, on the upsampled map) or max-pooled at
several pyramid levels n into n x n bins whose flattened concatenation
forms the [P, C] node matrix with P = sum of n^2 over levels, independent
of H and W.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ArgumentError
from .tensor import Tensor
from .tensor import _pool_bins


@dataclass
class RegionSet:
    """g x g rectangles tiling an H x W map via the adaptive boundary rule."""

    grid: int
    height: int
    width: int
    intervals: list[tuple[tuple[int, int], tuple[int, int]]]  # ((r0,r1),(c0,c1)) row-major
    mode: str = "avg"

    @property
    def count(self) -> int:
        return self.grid * self.grid


@dataclass
class NodeFeatures:
    """[P, C] node matrix from SPP plus where each node row came from."""

    tensor: Tensor
    levels: tuple[int, ...]
    provenance: list[tuple[int, int, int]]  # (level, bin row, bin col)

    @property
    def count(self) -> int:
        return self.tensor.shape[0]

    @property
    def channels(self) -> int:
        return self.tensor.shape[1]


def upsample_features(feature_map: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbor upsampling of the backbone map (shared tensor op)."""
    return T.upsample_nearest(feature_map, out_h, out_w)


def extract_regions(x: Tensor, grid: int, mode: str = "avg") -> RegionSet:
    """Split an [H, W, C] map into grid x grid rectangles."""
    h, w = x.shape[0], x.shape[1]
    if mode not in ("avg", "identity"):
        raise ArgumentError(f"region mode must be 'avg' or 'identity', got {mode!r}")
    if not 1 <= grid <= min(h, w):
        raise ArgumentError(f"region grid {grid} out of range for map {x.shape}")
    rows = _pool_bins(h, grid)
    cols = _pool_bins(w, grid)
    intervals = [(r, c) for r in rows for c in cols]
    return RegionSet(grid=grid, height=h, width=w, intervals=intervals, mode=mode)


def region_descriptors(regions: RegionSet, x: Tensor) -> Tensor:
    """Per-region channel-wise averages -> [g*g, C]."""
    if regions.mode != "avg":
        raise ArgumentError(f"descriptors are defined for 'avg' regions, got {regions.mode!r}")
    if (x.shape[0], x.shape[1]) != (regions.height, regions.width):
        raise ArgumentError(f"region set built for {(regions.height, regions.width)}, map is {x.shape[:2]}")
    rows = [T.reshape(T.avg_pool_region(x, r, c), (1, x.shape[2])) for r, c in regions.intervals]
    return T.concat_rows(rows)


def spp(x: Tensor, levels) -> NodeFeatures:
    """Multi-level spatial pyramid max pooling -> [P, C] nodes, P = sum n^2."""
    levels = tuple(int(n) for n in levels)
    if not levels:
        raise ArgumentError("spp needs at least one pyramid level")
    if any(n < 1 for n in levels):
        raise ArgumentError(f"pyramid levels must be >= 1, got {levels}")
    c = x.shape[2]
    parts = []
    provenance = []
    for n in levels:
        pooled = T.adaptive_max_pool2d(x, n)          # [n, n, C]
        parts.append(T.reshape(pooled, (n * n, c)))   # bins flattened row-major
        provenance.extend((n, r, cc) for r in range(n) for cc in range(n))
    return NodeFeatures(tensor=T.concat_rows(parts), levels=levels, provenance=provenance)
