"""Pipeline assembly: node-stage switches, ablation paths, config round trips."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pndnet.checkpoint import METADATA_KEYS
from pndnet.configfile import (KEYS, configs_from_dict, configs_to_dict, format_config,
                               parse_config_text)
from pndnet.data import preprocess
from pndnet.errors import ConfigurationError, PndError
from pndnet.model import ModelConfig, PNDNet, baseline_config
from pndnet.tensor import Rng, Tensor
from pndnet.train import TrainConfig

from conftest import tiny_model_config


def rand_image(seed=0, size=32):
    return Tensor(Rng(seed).uniform(-80, 80, (size, size, 3)).astype(np.float32))


class TestForward:
    def test_default_pipeline_shapes(self):
        cfg = tiny_model_config()
        model = PNDNet(cfg, 4, Rng(0))
        result = model.forward(rand_image())
        assert result.feature_map.shape == (8, 8, 32)
        assert cfg.upsampled_extent == 16
        assert result.nodes.shape == (13, 32)
        assert result.node_output.shape == (13, 32)
        assert result.logits.shape == (1, 4)
        assert abs(result.probabilities.sum() - 1.0) < 1e-6

    def test_spp_node_count_follows_levels(self):
        cfg = tiny_model_config(spp_levels=(1, 2, 4))
        model = PNDNet(cfg, 3, Rng(1))
        assert cfg.node_count == 21
        assert model.forward(rand_image()).nodes.shape == (21, 32)

    def test_regions_only_path(self):
        cfg = tiny_model_config(use_spp=False, region_grid=2)
        model = PNDNet(cfg, 4, Rng(2))
        result = model.forward(rand_image())
        assert cfg.node_count == 4
        assert result.nodes.shape == (4, 32)

    def test_baseline_single_node(self):
        cfg = baseline_config(tiny_model_config())
        assert cfg.node_count == 1 and cfg.gcn_layers == 0
        model = PNDNet(cfg, 4, Rng(3))
        result = model.forward(rand_image())
        assert result.nodes.shape == (1, 32)
        # the single node is the plain global average, and so is the head's GAP of it
        np.testing.assert_allclose(result.nodes.data[0],
                                   result.feature_map.data.mean(axis=(0, 1)), atol=1e-5)

    def test_gcn_width_variant(self):
        cfg = tiny_model_config(gcn_width=24)
        model = PNDNet(cfg, 4, Rng(4))
        result = model.forward(rand_image())
        assert result.node_output.shape == (13, 24)
        assert model.head.weight.shape == (24, 4)   # the head pools 24-wide nodes

    def test_rank1_matches_dense_model(self):
        dense = PNDNet(tiny_model_config(), 4, Rng(5).child("init"))
        fast = PNDNet(tiny_model_config(use_rank1=True), 4, Rng(5).child("init"))
        img = rand_image(6)
        a = dense.forward(img).probabilities
        b = fast.forward(img).probabilities
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_train_mode_uses_dropout(self):
        model = PNDNet(tiny_model_config(), 4, Rng(7))
        img = rand_image(8)
        eval_probs = model.forward(img, mode="eval").probabilities
        train_probs = model.forward(img, mode="train", rng=Rng(1)).probabilities
        assert not np.array_equal(eval_probs, train_probs)

    def test_training_forward_records_at_most_7_ops(self):
        # backbone 3, nodes 1, GCN 2 (one op per layer), head 1 with its
        # GAP, up to the logits the loss takes (GCN drops out without GCN
        # layers): a new per-op cost in any stage shows here first at tiny geometry
        for overrides, node_op, bound in ((dict(), "spp_max_pool", 7),
                                          (dict(use_spp=False), "region_pool", 7),
                                          (dict(use_spp=False, gcn_layers=0), "region_pool", 5),
                                          (dict(use_spp=False, use_regions=False, gcn_layers=0),
                                           "region_pool", 5)):
            model = PNDNet(tiny_model_config(**overrides), 4, Rng(11))
            result = model.forward(rand_image(12), mode="train", rng=Rng(13))
            ops, seen, stack = [], set(), [result.logits]
            while stack:
                node = stack.pop()
                if id(node) in seen or node._backward is None:
                    continue
                seen.add(id(node))
                ops.append(node._op)
                stack.extend(node._parents)
            assert len(ops) <= bound, (overrides, sorted(ops))
            assert ops.count(node_op) == ops.count("head_logits") == 1, (overrides, sorted(ops))

    def test_parameter_names_unique(self):
        model = PNDNet(tiny_model_config(), 4, Rng(9))
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))
        assert "gcn/layer0/weight" in names and "gcn/layer1/weight" in names

    def test_same_seed_same_model(self):
        a = PNDNet(tiny_model_config(), 4, Rng(10))
        b = PNDNet(tiny_model_config(), 4, Rng(10))
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)


EVAL_CONFIGS = {"spp": tiny_model_config(), "regions": tiny_model_config(use_spp=False),
                "baseline": baseline_config(tiny_model_config()),
                "crop-30": tiny_model_config(image_size=30, resize_size=34)}   # bins that do not divide
MEANS = (101.0, 99.5, 98.25)


def raw_images():
    """Five 8-bit images of mixed shapes, so each is resized before the crop."""
    rng = Rng(41)
    return [rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            for h, w in ((64, 64), (50, 70), (36, 36), (81, 40), (45, 45))]


class TestEvalPath:
    """``eval_input`` and ``classify`` are the model's eval path: the bytes of
    eval preprocessing at the model's geometry, then ``predict_probabilities``."""

    @pytest.mark.parametrize("cfg", list(EVAL_CONFIGS.values()), ids=list(EVAL_CONFIGS))
    def test_classify_equals_preprocess_then_predict(self, cfg):
        model = PNDNet(cfg, 4, Rng(3))
        images = raw_images()
        inputs = [preprocess(raw, "eval", channel_means=MEANS, resize_size=cfg.resize_size,
                             crop_size=cfg.image_size) for raw in images]
        for raw, x in zip(images, inputs):
            assert model.eval_input(raw, MEANS).tobytes() == x.tobytes()
        want = np.stack([model.predict_probabilities(x) for x in inputs])
        got = model.classify(iter(images), MEANS)
        assert got.dtype == want.dtype and got.shape == (5, 4)
        assert got.tobytes() == want.tobytes()

    def test_pulls_each_image_after_the_last_is_predicted(self, monkeypatch):
        model = PNDNet(tiny_model_config(), 4, Rng(3))
        predicted = []
        real = model.predict_probabilities
        monkeypatch.setattr(model, "predict_probabilities", lambda x: predicted.append(1) or real(x))

        def decoded():
            for k, raw in enumerate(raw_images()):
                assert len(predicted) == k, "classify pulled an image ahead of its predictions"
                yield raw

        assert model.classify(decoded(), MEANS).shape == (5, 4)
        assert len(predicted) == 5

    def test_no_images_give_no_rows(self):
        model = PNDNet(tiny_model_config(), 4, Rng(3))
        assert model.classify([], MEANS).shape == (0, 4)


class TestFullProtocolGeometry:
    def test_default_config_forward_shapes(self):
        cfg = ModelConfig()
        assert cfg.feature_extent == 28 and cfg.upsampled_extent == 56
        assert cfg.node_count == 13 and cfg.head_width == 256
        model = PNDNet(cfg, 8, Rng(0))
        result = model.forward(rand_image(0, 224))
        assert result.feature_map.shape == (28, 28, 256)
        assert result.nodes.shape == (13, 256)
        assert result.probabilities.shape == (8,)
        assert abs(result.probabilities.sum() - 1.0) < 1e-6


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_model_config(upsample_factor=0).validate()
        with pytest.raises(ConfigurationError):
            tiny_model_config(gcn_layers=-1).validate()
        with pytest.raises(ConfigurationError):
            tiny_model_config(dropout=1.0).validate()
        with pytest.raises(ConfigurationError):
            tiny_model_config(spp_levels=()).validate()
        with pytest.raises(ConfigurationError):
            tiny_model_config(resize_size=16).validate()
        for width in (0, -3):
            with pytest.raises(ConfigurationError, match="gcn_width"):
                tiny_model_config(gcn_width=width).validate()

    @pytest.mark.parametrize("use_rank1", [False, True])
    def test_construction_builds_no_propagation_matrix(self, use_rank1):
        # P = 1600 nodes: a P x P float64 propagation matrix would take 20 MB
        cfg = tiny_model_config(spp_levels=(40,), use_rank1=use_rank1)
        tracemalloc.start()
        try:
            PNDNet(cfg, 4, Rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_region_grid_against_upsampled_extent(self):
        cfg = tiny_model_config(use_spp=False, region_grid=40)
        with pytest.raises(ConfigurationError):
            PNDNet(cfg, 4, Rng(0))


class TestConfigFile:
    def test_round_trip_through_text(self):
        model_cfg = tiny_model_config(gcn_layers=1, gcn_width=24, use_rank1=True)
        train_cfg = TrainConfig(lr=0.004, epochs=33, seed=12)
        text = format_config(configs_to_dict(model_cfg, train_cfg))
        again_model, again_train = configs_from_dict(parse_config_text(text))
        assert again_model == model_cfg
        assert again_train == train_cfg

    def test_comments_and_blanks(self):
        values = parse_config_text("# top comment\n\nlr=0.5  # trailing\n\nbatch=3\n")
        assert values == {"lr": "0.5", "batch": "3"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="mystery"):
            configs_from_dict({"mystery": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="lr"):
            configs_from_dict({"lr": "fast"})

    @pytest.mark.parametrize("value", ["2,,3", "2,3,", ",2", " , "])
    def test_empty_list_item_rejected(self, value):
        with pytest.raises(ConfigurationError, match="spp_levels.*empty list item"):
            configs_from_dict({"spp_levels": value})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([*KEYS, "=", "#", ",", "\n", " ", "-", ".", "0", "1", "7",
                                     "65", "nan", "inf", "true", "false", "off", "e9"]),
                    max_size=24).map("".join))
    def test_arbitrary_text_raises_only_package_errors(self, text):
        try:
            configs_from_dict(parse_config_text(text))
        except PndError:
            pass

    def test_empty_list_value_is_the_empty_list(self):
        model_cfg, _ = configs_from_dict({"use_spp": "false", "spp_levels": ""})
        assert model_cfg.spp_levels == ()

    def test_metadata_keys_rejected(self):
        # checkpoint metadata is dropped by the checkpoint loader, never parsed as config
        for key in METADATA_KEYS:
            with pytest.raises(ConfigurationError, match=key):
                configs_from_dict({key: "4"})

    def test_readme_table_matches_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration file", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                keys, defaults = [cell.strip() for cell in line.strip("|").split("|")[:2]]
                for key, default in zip(keys.split(" / "), defaults.split(" / "), strict=True):
                    documented[key.strip("`")] = default.strip("`")
        assert documented == configs_to_dict(ModelConfig(), TrainConfig())
        assert set(documented) == set(KEYS)

    def test_default_config_text_pinned(self):
        assert format_config(configs_to_dict(ModelConfig(), TrainConfig())) == (
            "backbone_channels=32,64,128\nbatch=12\nblur_p=0.3\nblur_sigma_hi=1.5\n"
            "blur_sigma_lo=0.5\ndropout=0.3\nepochs=150\nflip_p=0.5\ng=2\ngcn_layers=2\n"
            "gcn_width=0\nhead_norm=layer\nimage_size=224\nkernel=3\nlr=0.001\n"
            "lr_decay_epoch=100\nlr_decay_factor=5.0\nout_channels=256\npool_stride=2\n"
            "resize_size=256\nrotation=25.0\nscale=0.25\nseed=0\nspp_levels=2,3\n"
            "upsample=2\nuse_rank1=false\nuse_regions=true\nuse_spp=true\n")

    def test_gcn_width_zero_means_uniform(self):
        model_cfg, _ = configs_from_dict({"gcn_width": "0"})
        assert model_cfg.gcn_width is None
