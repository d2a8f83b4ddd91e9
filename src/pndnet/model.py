"""End-to-end classifier: backbone -> nodes -> GCN -> head.

Each stage hands the next a plain ``Tensor``: the [h, w, C] backbone map,
the [P, C] node matrix, the GCN output and the head's [1, N] logits.

The paper pools nodes from the nearest-upsampled backbone map; no path here
builds that map. With an integer upsample factor every SPP bin of the
upsampled map covers exactly the backbone elements of the same bin, so SPP
(``tensor.spp_max_pool``) pools the backbone map itself. Region and
global-average nodes are means over cells of the upsampled map, which
``tensor.region_pool`` takes as coverage weights on the backbone map.

The node stage is switchable: spatial pyramid pooling (default, P = sum of
level^2 nodes), region-average descriptors (P = g^2), or a single globally
averaged node, the one-cell case of the regions. With zero GCN layers the
nodes feed the head directly, which together with the switches covers all
ablation pipelines, down to the bare backbone + GAP + softmax baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .backbone import Backbone, BackboneConfig, build_backbone
from .data import preprocess
from .errors import ConfigurationError
from .graph import gcn_forward, init_gcn_weights
from .head import ClassHead, head_logits, init_head
from .tensor import Rng, Tensor


@dataclass
class ModelConfig:
    image_size: int = 224
    resize_size: int = 256
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    upsample_factor: int = 2
    region_grid: int = 2
    spp_levels: tuple[int, ...] = (2, 3)
    use_regions: bool = True
    use_spp: bool = True
    gcn_layers: int = 2
    gcn_width: int | None = None      # None keeps the backbone channel width
    dropout: float = 0.3
    head_norm: str = "layer"
    use_rank1: bool = False

    def validate(self):
        self.backbone.validate()
        if self.resize_size < self.image_size:
            raise ConfigurationError(
                f"resize_size {self.resize_size} must be >= image_size {self.image_size}")
        if self.upsample_factor < 1:
            raise ConfigurationError(f"upsample_factor must be >= 1, got {self.upsample_factor}")
        if self.gcn_layers < 0:
            raise ConfigurationError(f"gcn_layers must be >= 0, got {self.gcn_layers}")
        if self.gcn_width is not None and self.gcn_width < 1:
            raise ConfigurationError(f"gcn_width must be >= 1, got {self.gcn_width}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.use_spp and (not self.spp_levels or any(n < 1 for n in self.spp_levels)):
            raise ConfigurationError(f"spp_levels must be non-empty positive, got {self.spp_levels}")
        if self.region_grid < 1:
            raise ConfigurationError(f"region_grid must be >= 1, got {self.region_grid}")

    @property
    def feature_extent(self) -> int:
        return self.backbone.output_extent(self.image_size)

    @property
    def upsampled_extent(self) -> int:
        return self.feature_extent * self.upsample_factor

    @property
    def node_count(self) -> int:
        if self.use_spp:
            return sum(n * n for n in self.spp_levels)
        if self.use_regions:
            return self.region_grid * self.region_grid
        return 1

    @property
    def head_width(self) -> int:
        if self.gcn_layers > 0 and self.gcn_width is not None:
            return self.gcn_width
        return self.backbone.out_channels


@dataclass
class ForwardResult:
    """All intermediate tensors of one forward pass (Grad-CAM reads these)."""

    feature_map: Tensor              # [h, w, C] backbone output
    nodes: Tensor                    # [P, C] GCN input
    node_output: Tensor              # [P, C'] after the GCN stack (or nodes)
    logits: Tensor                   # [1, N], the head's GAP of node_output projected

    @property
    def probs_row(self) -> np.ndarray:
        """[1, N] softmax of the logits, an array outside any graph: the loss
        takes the logits."""
        return T.softmax(self.logits.data, axis=1)

    @property
    def probabilities(self) -> np.ndarray:
        return self.probs_row.reshape(-1)


class PNDNet:
    """Assembled pipeline with named parameters for SGD and checkpointing."""

    def __init__(self, config: ModelConfig, n_classes: int, rng: Rng, dtype=np.float32):
        config.validate()
        if config.use_regions and not config.use_spp:
            if config.region_grid > config.upsampled_extent:
                raise ConfigurationError(
                    f"region_grid {config.region_grid} exceeds upsampled extent {config.upsampled_extent}")
        self.config = config
        self.n_classes = n_classes
        self.dtype = dtype
        self.backbone: Backbone = build_backbone(
            config.backbone, rng.child("backbone"), input_size=config.image_size, dtype=dtype)
        c = config.backbone.out_channels
        width = config.gcn_width if config.gcn_width is not None else c
        self.gcn: list[Tensor] = init_gcn_weights(c, width, config.gcn_layers, rng, dtype=dtype)
        self.head: ClassHead = init_head(
            config.head_width, n_classes, rng.child("head"),
            dropout_rate=config.dropout, norm=config.head_norm, dtype=dtype)

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = [(f"backbone/{name}", t) for name, t in self.backbone.parameters()]
        params.extend((f"gcn/layer{i}/weight", w) for i, w in enumerate(self.gcn))
        params.extend((f"head/{name}", t) for name, t in self.head.parameters())
        return params

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()

    def forward(self, image: Tensor, mode: str = "eval", rng: Rng | None = None) -> ForwardResult:
        return self.forward_features(self.backbone.forward(image), mode, rng)

    def forward_features(self, fmap: Tensor, mode: str = "eval", rng: Rng | None = None) -> ForwardResult:
        """Nodes -> GCN -> head on an [h, w, C] backbone feature map."""
        cfg = self.config
        if cfg.use_spp:
            nodes = T.spp_max_pool(fmap, cfg.spp_levels)
        else:
            grid = cfg.region_grid if cfg.use_regions else 1
            nodes = T.region_pool(fmap, grid, cfg.upsample_factor)
        node_out = gcn_forward(nodes, self.gcn, cfg.use_rank1)
        logits = head_logits(self.head, node_out, mode, rng)
        return ForwardResult(feature_map=fmap, nodes=nodes, node_output=node_out, logits=logits)

    def predict_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities for a preprocessed [S, S, 3] array."""
        with T.no_grad():
            result = self.forward(Tensor(np.asarray(image, dtype=self.dtype)), mode="eval")
        return result.probabilities

    def eval_input(self, image: np.ndarray, channel_means) -> np.ndarray:
        """The eval-mode input for one raw [H, W, 3] image: resized to
        ``resize_size``, centre-cropped to ``image_size`` and centred."""
        cfg = self.config
        return preprocess(image, "eval", channel_means=channel_means,
                          resize_size=cfg.resize_size, crop_size=cfg.image_size)

    def classify(self, images, channel_means) -> np.ndarray:
        """[n, N] eval probabilities of raw images, each pulled from the iterable
        and predicted before the next: a generator holds one decoded image."""
        rows = [self.predict_probabilities(self.eval_input(image, channel_means))
                for image in images]
        return np.asarray(rows, dtype=self.dtype).reshape(len(rows), self.n_classes)


def baseline_config(config: ModelConfig) -> ModelConfig:
    """Backbone + GAP + softmax variant of a config (all stages disabled)."""
    return replace(config, use_regions=False, use_spp=False, gcn_layers=0)
