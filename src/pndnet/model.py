"""End-to-end classifier: backbone -> upsample -> nodes -> GCN -> head.

SPP pools the backbone map directly: with an integer upsample factor every
bin of the upsampled map covers exactly the backbone elements of the same
bin, so the values are equal and the upsample is skipped.

The node stage is switchable: spatial pyramid pooling (default, P = sum of
level^2 nodes), region-average descriptors (P = g^2), or a single globally
averaged node. With zero GCN layers the nodes feed the head directly, which
together with the switches covers all ablation pipelines, down to the bare
backbone + GAP + softmax baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .backbone import Backbone, BackboneConfig, FeatureMap, build_backbone
from .errors import ConfigurationError
from .graph import GcnStack, GraphSpec, build_complete_adjacency, build_gcn_stack, gcn_forward
from .head import ClassHead, gap_nodes, head_logits, init_head
from .regions import NodeFeatures, extract_regions, region_descriptors, spp, upsample_features
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

    feature_map: FeatureMap
    upsampled_extent: int
    nodes: Tensor                    # [P, C] GCN input
    node_features: NodeFeatures | None
    node_output: Tensor              # [P, C'] after the GCN stack (or nodes)
    pooled: Tensor                   # [C']
    logits: Tensor                   # [1, N]
    probs_row: Tensor                # [1, N]
    _upsampled: Tensor | None = field(default=None, repr=False)

    @property
    def upsampled(self) -> Tensor:
        """Nearest-upsampled backbone map; the SPP path never needs it, so
        there it is built on first access."""
        if self._upsampled is None:
            self._upsampled = upsample_features(
                self.feature_map.tensor, self.upsampled_extent, self.upsampled_extent)
        return self._upsampled

    @property
    def probabilities(self) -> np.ndarray:
        return self.probs_row.data.reshape(-1)


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
        self.graph_spec: GraphSpec = build_complete_adjacency(config.node_count)
        self.gcn: GcnStack = build_gcn_stack(
            c, width, config.gcn_layers, rng, dtype=dtype, use_rank1=config.use_rank1)
        self.head: ClassHead = init_head(
            config.head_width, n_classes, rng.child("head"),
            dropout_rate=config.dropout, norm=config.head_norm, dtype=dtype)

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = [(f"backbone/{name}", t) for name, t in self.backbone.parameters()]
        for i, layer in enumerate(self.gcn.layers):
            params.append((f"gcn/layer{i}/weight", layer.weight))
        params.extend((f"head/{name}", t) for name, t in self.head.parameters())
        return params

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()

    def node_stage(self, upsampled: Tensor) -> Tensor:
        """Nodes of the paths without SPP: region descriptors or one mean node."""
        if self.config.use_regions:
            region_set = extract_regions(upsampled, self.config.region_grid)
            return region_descriptors(region_set, upsampled)
        c = upsampled.shape[2]
        pooled = T.mean(upsampled, axis=(0, 1))
        return T.reshape(pooled, (1, c))

    def forward(self, image: Tensor, mode: str = "eval", rng: Rng | None = None) -> ForwardResult:
        return self.forward_features(self.backbone.forward(image), mode, rng)

    def forward_features(self, fmap: FeatureMap, mode: str = "eval", rng: Rng | None = None) -> ForwardResult:
        """Nodes -> GCN -> head on a backbone feature map."""
        cfg = self.config
        up = None
        node_features = None
        if cfg.use_spp:
            node_features = spp(fmap.tensor, cfg.spp_levels)
            nodes = node_features.tensor
        else:
            up = upsample_features(fmap.tensor, cfg.upsampled_extent, cfg.upsampled_extent)
            nodes = self.node_stage(up)
        node_out = gcn_forward(nodes, self.graph_spec, self.gcn) if self.gcn.depth else nodes
        pooled = gap_nodes(node_out)
        logits = head_logits(self.head, pooled, mode, rng)
        probs_row = T.softmax(logits, axis=1)
        return ForwardResult(feature_map=fmap, upsampled_extent=cfg.upsampled_extent, nodes=nodes,
                             node_features=node_features, node_output=node_out,
                             pooled=pooled, logits=logits, probs_row=probs_row, _upsampled=up)

    def predict_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities for a preprocessed [S, S, 3] array."""
        with T.no_grad():
            result = self.forward(Tensor(np.asarray(image, dtype=self.dtype)), mode="eval")
        return result.probabilities


def baseline_config(config: ModelConfig) -> ModelConfig:
    """Backbone + GAP + softmax variant of a config (all stages disabled)."""
    return replace(config, use_regions=False, use_spp=False, gcn_layers=0)
