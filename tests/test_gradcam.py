"""Heatmap invariants and export format."""

import json

import numpy as np
import pytest

from pndnet.checkpoint import model_from_checkpoint
from pndnet.data import preprocess
from pndnet.errors import ArgumentError
from pndnet.gradcam import grad_cam, save_heatmap
from pndnet.imageio import read_image
from pndnet.model import PNDNet
from pndnet.synthetic import make_blob_image
from pndnet.tensor import Rng, Tensor, mul, tensor_sum

from conftest import tiny_model_config


def preprocessed_probe(model, raw, means):
    cfg = model.config
    return preprocess(raw, "eval", channel_means=means,
                      resize_size=cfg.resize_size, crop_size=cfg.image_size)


def whole_model_grad_cam(model, preprocessed, target_class):
    """Reference heatmap from a backward through the whole model, which
    writes every parameter's ``.grad`` on the way."""
    model.zero_grad()
    result = model.forward(Tensor(np.asarray(preprocessed, dtype=model.dtype)), mode="eval")
    one_hot = np.zeros((1, model.n_classes), dtype=model.dtype)
    one_hot[0, target_class] = 1.0
    tensor_sum(mul(result.logits, Tensor(one_hot))).backward()
    fmap = result.feature_map.tensor
    grads = np.zeros_like(fmap.data) if fmap.grad is None else fmap.grad
    cam = np.maximum(np.tensordot(fmap.data, grads.mean(axis=(0, 1)), axes=([2], [0])), 0.0)
    model.zero_grad()
    lo, hi = float(cam.min()), float(cam.max())
    if hi <= lo:
        return np.zeros_like(cam, dtype=np.float64)
    return ((cam - lo) / (hi - lo)).astype(np.float64)


def set_sentinel_grads(model):
    """Give every parameter a distinct ``.grad``; returns (array, copy) pairs."""
    kept = []
    for i, (_, p) in enumerate(model.parameters()):
        p.grad = np.full_like(p.data, i + 0.5)
        kept.append((p.grad, p.grad.copy()))
    return kept


def assert_sentinels_untouched(model, kept):
    for (_, p), (array, values) in zip(model.parameters(), kept):
        assert p.grad is array and np.array_equal(array, values)


@pytest.fixture(scope="module")
def fresh_model():
    return PNDNet(tiny_model_config(), 4, Rng(0).child("init"))


class TestInvariants:
    def test_shape_matches_backbone_feature_map(self, fresh_model):
        x = Rng(1).uniform(-80, 80, (32, 32, 3)).astype(np.float32)
        heatmap = grad_cam(fresh_model, x, 0)
        assert heatmap.shape == (8, 8)  # backbone output extent for this config

    @pytest.mark.parametrize("seed", range(5))
    def test_range_and_peak(self, fresh_model, seed):
        x = Rng(seed).uniform(-80, 80, (32, 32, 3)).astype(np.float32)
        heatmap = grad_cam(fresh_model, x, seed % 4)
        assert heatmap.min() >= 0.0 and heatmap.max() <= 1.0
        if np.any(heatmap > 0):
            assert heatmap.max() == 1.0
        else:
            np.testing.assert_array_equal(heatmap, 0.0)

    def test_invalid_class_rejected(self, fresh_model):
        x = np.zeros((32, 32, 3), dtype=np.float32)
        with pytest.raises(ArgumentError):
            grad_cam(fresh_model, x, 4)
        with pytest.raises(ArgumentError):
            grad_cam(fresh_model, x, -1)

    def test_parameters_left_clean(self, fresh_model):
        x = Rng(2).uniform(-80, 80, (32, 32, 3)).astype(np.float32)
        grad_cam(fresh_model, x, 1)
        assert all(p.grad is None for _, p in fresh_model.parameters())


class TestParameterGradients:
    def test_overfit_model_grads_untouched_and_heatmaps_unchanged(self, overfit_run):
        model, extras = model_from_checkpoint(overfit_run["checkpoint"])
        reference_model, _ = model_from_checkpoint(overfit_run["checkpoint"])
        kept = set_sentinel_grads(model)
        for i, quadrant in enumerate(("tl", "tr", "bl", "br")):
            raw, _ = make_blob_image(0, 64, Rng(100 + i), quadrant=quadrant)
            x = preprocessed_probe(model, raw, extras["channel_means"])
            for target in range(model.n_classes):
                heatmap = grad_cam(model, x, target)
                assert_sentinels_untouched(model, kept)
                reference = whole_model_grad_cam(reference_model, x, target)
                assert heatmap.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("overrides", [
        dict(gcn_layers=0),
        dict(use_spp=False),
        dict(use_rank1=True),
    ])
    def test_pipeline_variants_match_whole_model_backward(self, overrides):
        model = PNDNet(tiny_model_config(**overrides), 4, Rng(3).child("init"))
        kept = set_sentinel_grads(model)
        x = Rng(4).uniform(-80, 80, (32, 32, 3)).astype(np.float32)
        heatmap = grad_cam(model, x, 2)
        assert_sentinels_untouched(model, kept)
        assert heatmap.tobytes() == whole_model_grad_cam(model, x, 2).tobytes()


class TestLocalization:
    def test_overfit_model_localizes_probe_blob(self, overfit_run):
        model, extras = model_from_checkpoint(overfit_run["checkpoint"])
        hits = 0
        for i, quadrant in enumerate(("tl", "tr", "bl", "br")):
            raw, _ = make_blob_image(0, 64, Rng(100 + i), quadrant=quadrant)
            x = preprocessed_probe(model, raw, extras["channel_means"])
            heatmap = grad_cam(model, x, 0)
            r, c = np.unravel_index(np.argmax(heatmap), heatmap.shape)
            got = ("t" if r < heatmap.shape[0] / 2 else "b") + \
                  ("l" if c < heatmap.shape[1] / 2 else "r")
            hits += got == quadrant
        assert hits >= 3


class TestTrainedHeatmapsOnCorpus:
    def test_heatmaps_on_real_images(self, overfit_run):
        model, extras = model_from_checkpoint(overfit_run["checkpoint"])
        dataset = overfit_run["dataset"]
        for i in overfit_run["plan"].test[:4]:
            path, label = dataset.samples[i]
            x = preprocessed_probe(model, read_image(path), extras["channel_means"])
            heatmap = grad_cam(model, x, label)
            assert heatmap.shape == (8, 8)
            assert 0.0 <= heatmap.min() and heatmap.max() <= 1.0


class TestAblationVariants:
    @pytest.mark.parametrize("overrides", [
        dict(gcn_layers=0),
        dict(gcn_layers=1),
        dict(use_spp=False),
        dict(use_spp=False, use_regions=False, gcn_layers=0),
    ])
    def test_heatmaps_work_for_every_pipeline_variant(self, overrides):
        model = PNDNet(tiny_model_config(**overrides), 4, Rng(3).child("init"))
        x = Rng(4).uniform(-80, 80, (32, 32, 3)).astype(np.float32)
        heatmap = grad_cam(model, x, 1)
        assert heatmap.shape == (8, 8)
        assert heatmap.min() >= 0.0 and heatmap.max() <= 1.0


class TestExport:
    def test_save_heatmap_writes_p5_and_sidecar(self, tmp_path):
        heatmap = np.linspace(0, 1, 64).reshape(8, 8)
        pgm_path, json_path = save_heatmap(heatmap, tmp_path / "probe.cam",
                                           meta={"class_index": 2})
        data = pgm_path.read_bytes()
        assert data.startswith(b"P5\n8 8\n255\n")
        assert len(data) == len(b"P5\n8 8\n255\n") + 64
        doc = json.loads(json_path.read_text())
        assert doc["class_index"] == 2
        assert doc["shape"] == [8, 8]
        np.testing.assert_allclose(np.array(doc["values"]), heatmap)
