"""Small trainable convolutional feature extractor.

Blocks of same-padded conv -> ReLU -> stride-s max pool, followed by a 1x1
projection to the output channel width C. Each conv is one recorded op
(``tensor.conv2d_bias_pool_relu``): max pooling commutes with the ReLU, so it
pools the pre-activation and rectifies only the pooled map; the projection's
grid of 1x1 bins is the identity pool. Spatial extents
follow the closed recurrence H -> H // pool_stride per block, so a 224 input
with three stride-2 blocks yields a 28 x 28 x C feature map, which
``Backbone.forward`` returns as a plain [h, w, C] ``Tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .tensor import Rng, Tensor


@dataclass
class BackboneConfig:
    channels: tuple[int, ...] = (32, 64, 128)
    kernel_size: int = 3
    pool_stride: int = 2
    out_channels: int = 256

    def validate(self):
        if not self.channels or any(c <= 0 for c in self.channels):
            raise ConfigurationError(f"block widths must be positive, got {self.channels}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigurationError(f"kernel size must be odd and >= 1, got {self.kernel_size}")
        if self.pool_stride < 1:
            raise ConfigurationError(f"pool stride must be >= 1, got {self.pool_stride}")
        if self.out_channels <= 0:
            raise ConfigurationError(f"output channels must be positive, got {self.out_channels}")

    def output_extent(self, input_size: int) -> int:
        """Spatial extent after all blocks; errors on collapse below 2."""
        extent = input_size
        for _ in self.channels:
            extent = extent // self.pool_stride
            if extent < 2:
                raise ConfigurationError(
                    f"spatial extent collapses below 2x2 for input {input_size} with {self}")
        return extent


@dataclass
class Backbone:
    config: BackboneConfig
    input_size: int
    in_channels: int
    conv_weights: list[Tensor] = field(default_factory=list)
    conv_biases: list[Tensor] = field(default_factory=list)
    proj_weight: Tensor | None = None
    proj_bias: Tensor | None = None

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for i, (w, b) in enumerate(zip(self.conv_weights, self.conv_biases)):
            params.append((f"conv{i}/weight", w))
            params.append((f"conv{i}/bias", b))
        params.append(("proj/weight", self.proj_weight))
        params.append(("proj/bias", self.proj_bias))
        return params

    def output_shape(self) -> tuple[int, int, int]:
        extent = self.config.output_extent(self.input_size)
        return (extent, extent, self.config.out_channels)

    def forward(self, image: Tensor) -> Tensor:
        """[h, w, C] feature map of an image; graph is recorded when grads are on."""
        expected = (self.input_size, self.input_size, self.in_channels)
        if image.data.ndim != 3 or image.shape != expected:
            raise DimensionError(f"backbone expects image {expected}, got {image.shape}")
        cfg = self.config
        x = image
        extent = self.input_size
        for w, b in zip(self.conv_weights, self.conv_biases):
            extent = extent // cfg.pool_stride
            x = T.conv2d_bias_pool_relu(x, w, b, extent, pad=cfg.kernel_size // 2)
        return T.conv2d_bias_pool_relu(x, self.proj_weight, self.proj_bias, extent)


def _uniform(rng: Rng, shape, fan_in: int, dtype) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, shape).astype(dtype)


def build_backbone(cfg: BackboneConfig, rng: Rng, input_size: int = 224,
                   in_channels: int = 3, dtype=np.float32) -> Backbone:
    """Initialize all weights with fan-in-scaled uniform draws from ``rng``."""
    cfg.validate()
    cfg.output_extent(input_size)  # raises on spatial collapse
    k = cfg.kernel_size
    backbone = Backbone(config=cfg, input_size=input_size, in_channels=in_channels)
    cin = in_channels
    for i, cout in enumerate(cfg.channels):
        block_rng = rng.child(f"block:{i}")
        fan_in = k * k * cin
        backbone.conv_weights.append(Tensor(_uniform(block_rng, (k, k, cin, cout), fan_in, dtype), requires_grad=True))
        backbone.conv_biases.append(Tensor(_uniform(block_rng, (cout,), fan_in, dtype), requires_grad=True))
        cin = cout
    proj_rng = rng.child("proj")
    backbone.proj_weight = Tensor(_uniform(proj_rng, (1, 1, cin, cfg.out_channels), cin, dtype), requires_grad=True)
    backbone.proj_bias = Tensor(_uniform(proj_rng, (cfg.out_channels,), cin, dtype), requires_grad=True)
    return backbone
