"""Backbone shape arithmetic, determinism, and differentiability."""

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.backbone import BackboneConfig, build_backbone
from pndnet.errors import ConfigurationError, DimensionError
from pndnet.gradcheck import grad_check
from pndnet.tensor import Rng, Tensor


def test_default_config_shape_arithmetic():
    cfg = BackboneConfig()
    # 224 -> 112 -> 56 -> 28 through three stride-2 pools
    assert cfg.output_extent(224) == 28
    backbone = build_backbone(cfg, Rng(0), input_size=224)
    assert backbone.output_shape() == (28, 28, 256)


def test_single_block_shape():
    cfg = BackboneConfig(channels=(8,), out_channels=16)
    backbone = build_backbone(cfg, Rng(0), input_size=16)
    assert backbone.output_shape() == (8, 8, 16)
    out = backbone.forward(Tensor(np.zeros((16, 16, 3), dtype=np.float32)))
    assert out.tensor.shape == (8, 8, 16)


def test_same_seed_bit_identical_weights():
    cfg = BackboneConfig(channels=(4, 8), out_channels=16)
    a = build_backbone(cfg, Rng(42), input_size=32)
    b = build_backbone(cfg, Rng(42), input_size=32)
    for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(ta.data, tb.data)
    c = build_backbone(cfg, Rng(43), input_size=32)
    assert not np.array_equal(a.conv_weights[0].data, c.conv_weights[0].data)


def test_zero_image_is_finite():
    cfg = BackboneConfig(channels=(4,), out_channels=8)
    backbone = build_backbone(cfg, Rng(1), input_size=8)
    out = backbone.forward(Tensor(np.zeros((8, 8, 3), dtype=np.float32)))
    assert np.all(np.isfinite(out.tensor.data))


def test_identical_images_identical_features():
    cfg = BackboneConfig(channels=(4,), out_channels=8)
    backbone = build_backbone(cfg, Rng(2), input_size=8)
    img = Rng(3).uniform(-1, 1, (8, 8, 3)).astype(np.float32)
    a = backbone.forward(Tensor(img)).tensor.data
    b = backbone.forward(Tensor(img.copy())).tensor.data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_output_shape_matches_closed_form_for_random_configs(seed):
    rng = Rng(seed)
    n_blocks = int(rng.integers(1, 4))
    channels = tuple(int(rng.integers(2, 8)) for _ in range(n_blocks))
    stride = int(rng.integers(2, 4))
    cfg = BackboneConfig(channels=channels, pool_stride=stride,
                         out_channels=int(rng.integers(4, 16)))
    input_size = int(rng.integers(24, 64))
    extent = input_size
    try:
        for _ in channels:
            extent //= stride
            assert extent >= 2
    except AssertionError:
        with pytest.raises(ConfigurationError):
            build_backbone(cfg, Rng(0), input_size=input_size)
        return
    backbone = build_backbone(cfg, Rng(0), input_size=input_size)
    out = backbone.forward(Tensor(Rng(1).uniform(-1, 1, (input_size, input_size, 3)).astype(np.float32)))
    assert out.tensor.shape == (extent, extent, cfg.out_channels)
    assert out.tensor.shape == backbone.output_shape()


def test_spatial_collapse_is_configuration_error():
    cfg = BackboneConfig(channels=(4, 4, 4, 4), out_channels=8)
    with pytest.raises(ConfigurationError, match="collapses"):
        build_backbone(cfg, Rng(0), input_size=16)


def test_wrong_input_shape_is_dimension_error():
    cfg = BackboneConfig(channels=(4,), out_channels=8)
    backbone = build_backbone(cfg, Rng(0), input_size=16)
    with pytest.raises(DimensionError):
        backbone.forward(Tensor(np.zeros((8, 8, 3), dtype=np.float32)))


def test_even_kernel_rejected():
    with pytest.raises(ConfigurationError):
        BackboneConfig(kernel_size=4).validate()


def test_backbone_gradients_on_miniature():
    cfg = BackboneConfig(channels=(2, 3), out_channels=4)
    backbone = build_backbone(cfg, Rng(5), input_size=32, dtype=np.float64)
    x = Tensor(Rng(6).uniform(-1, 1, (32, 32, 3)), requires_grad=True, dtype=np.float64)
    inputs = [x] + [p for _, p in backbone.parameters()]

    def op(image, *params):
        return backbone.forward(image).tensor

    err = grad_check(op, inputs, coords_per_input=40, rng=Rng(7))
    assert err <= 1e-4


def _graph_arrays(loss: Tensor):
    """Every array a training graph keeps for its backward: each recorded
    tensor's data, and the arrays its backward closure (and the closures
    nested in it) hold."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node.data
        fns = [node._backward] if node._backward is not None else []
        while fns:
            for cell in fns.pop().__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    yield value
                elif callable(value) and hasattr(value, "__closure__"):
                    fns.append(value)
        stack.extend(node._parents)


def test_training_graph_keeps_no_unpooled_block_map():
    from pndnet.head import cross_entropy
    from pndnet.model import PNDNet

    from conftest import tiny_model_config

    cfg = tiny_model_config()
    model = PNDNet(cfg, 4, Rng(0).child("init"))
    unpooled, extent = set(), cfg.image_size
    for width in cfg.backbone.channels:
        unpooled.add((extent, extent, width))
        extent //= cfg.backbone.pool_stride
    image = Tensor(Rng(1).uniform(-80, 80, (32, 32, 3)).astype(np.float32))
    result = model.forward(image, mode="train", rng=Rng(2))
    loss = cross_entropy(result.probs_row, np.eye(4, dtype=np.float32)[[1]]).loss
    kept = [a.shape for a in _graph_arrays(loss)]
    assert (32, 32, 3) in kept                          # the walk reaches the image
    assert not unpooled & set(kept), f"graph keeps full-size block maps {sorted(unpooled & set(kept))}"
