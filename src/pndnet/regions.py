"""Spatial pyramid pooling of [H, W, C] feature maps into graph nodes.

The map is max-pooled at several pyramid levels n into n x n bins whose
flattened concatenation forms the [P, C] node matrix with P = sum of n^2
over levels, independent of H and W. All levels are pooled by one recorded
op, ``spp_max_pool``. The region and global-average nodes of the ablation
paths are one op too, ``tensor.region_pool``, which the model calls directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .tensor import Tensor


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


def spp(x: Tensor, levels) -> NodeFeatures:
    """Multi-level spatial pyramid max pooling -> [P, C] nodes, P = sum n^2."""
    levels = tuple(int(n) for n in levels)
    nodes = T.spp_max_pool(x, levels)   # validates the levels
    provenance = [(n, r, cc) for n in levels for r in range(n) for cc in range(n)]
    return NodeFeatures(tensor=nodes, levels=levels, provenance=provenance)
