"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines while they execute. Criteria 6 and 9 train desk-scale models on a
generated blob corpus and are the slow part of the suite.
"""

import time

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.backbone import BackboneConfig
from pndnet.checkpoint import (checkpoint_bytes, checkpoint_from_bytes,
                               checkpoint_from_model, model_from_checkpoint)
from pndnet.data import SplitPlan, kfold_split, split_train_test
from pndnet.gradcam import grad_cam
from pndnet.gradcheck import OP_CHECKS, grad_check
from pndnet.graph import (PROPAGATION_MACS, dense_mac_count, gcn_forward,
                          gcn_layer_forward, gcn_layer_forward_rank1,
                          init_gcn_weights, rank1_mac_count)
from pndnet.head import cross_entropy
from pndnet.metrics import compute_metrics
from pndnet.model import ModelConfig, PNDNet
from pndnet.synthetic import load_blob_corpus, make_blob_corpus, make_blob_image
from pndnet.tensor import Rng, Tensor
from pndnet.train import TrainConfig, evaluate, train

from conftest import tiny_model_config
from oracles import ORACLE_CHECKS, brute_force_metrics
from test_data import fake_dataset


def report(criterion: int, text: str):
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


def micro_f64_config() -> ModelConfig:
    return ModelConfig(image_size=16, resize_size=20,
                       backbone=BackboneConfig(channels=(3, 4), out_channels=8),
                       dropout=0.3)


def test_criterion_1_gradient_correctness():
    """Every op and the full composite pipeline pass FD checks over 10 seeds:
    the package's ops and the test oracles' chain ops."""
    started = time.perf_counter()
    tolerance = 1e-4
    worst_per_op = {name: max(check(seed) for seed in range(10))
                    for name, check in {**OP_CHECKS, **ORACLE_CHECKS}.items()}
    for name, err in worst_per_op.items():
        assert err <= tolerance, f"{name}: {err:.3e}"

    composite_worst = 0.0
    for seed in range(10):
        model = PNDNet(micro_f64_config(), 4, Rng(seed).child("init"), dtype=np.float64)
        rng = Rng(seed + 100)
        image = Tensor(rng.uniform(-1.0, 1.0, (16, 16, 3)), requires_grad=True,
                       dtype=np.float64)
        target = np.zeros((1, 4))
        target[0, seed % 4] = 1.0

        def pipeline(img, *params):
            result = model.forward(img, mode="train", rng=Rng(seed + 1000))
            return cross_entropy(result.logits, target).loss

        inputs = [image] + [p for _, p in model.parameters()]
        err = grad_check(pipeline, inputs, h=1e-5, coords_per_input=12, rng=Rng(seed + 7))
        composite_worst = max(composite_worst, err)
    assert composite_worst <= tolerance, f"composite pipeline: {composite_worst:.3e}"

    # the region-descriptor node path must be just as differentiable
    regions_worst = 0.0
    for seed in range(3):
        cfg = micro_f64_config()
        cfg.use_spp = False
        model = PNDNet(cfg, 4, Rng(seed).child("init"), dtype=np.float64)
        rng = Rng(seed + 300)
        image = Tensor(rng.uniform(-1.0, 1.0, (16, 16, 3)), requires_grad=True,
                       dtype=np.float64)
        target = np.zeros((1, 4))
        target[0, seed % 4] = 1.0

        def region_pipeline(img, *params):
            result = model.forward(img, mode="train", rng=Rng(seed + 1300))
            return cross_entropy(result.logits, target).loss

        inputs = [image] + [p for _, p in model.parameters()]
        err = grad_check(region_pipeline, inputs, h=1e-5, coords_per_input=12,
                         rng=Rng(seed + 8))
        regions_worst = max(regions_worst, err)
    assert regions_worst <= tolerance, f"regions-only pipeline: {regions_worst:.3e}"

    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0, f"gradient checks took {elapsed:.1f}s (budget 120s)"
    report(1, f"all {len(worst_per_op)} ops <= {max(worst_per_op.values()):.2e}, composite <= "
              f"{composite_worst:.2e} (rel err, 10 seeds, {elapsed:.1f}s)")


def test_criterion_2_complete_graph_analytics():
    """1/P propagation entries, one-layer collapse, node-permutation invariance."""
    for p in (1, 4, 13, 32):
        eye = Tensor(np.eye(p))  # identity nodes and weight: the output is the propagation
        assert np.abs(gcn_layer_forward(eye, eye).data - 1.0 / p).max() <= 1e-9
        rng = Rng(p)
        g = rng.uniform(-1, 1, (p, 16))
        out = gcn_layer_forward(Tensor(g), Tensor(rng.uniform(-1, 1, (16, 16)))).data
        assert np.abs(out - out[0]).max() <= 1e-6
        weights = init_gcn_weights(16, 16, 2, Rng(p + 50), dtype=np.float64)
        base = gcn_forward(Tensor(g), weights).data
        permuted = gcn_forward(Tensor(g[Rng(p + 99).permutation(p)]), weights).data
        assert np.abs(base - permuted).max() <= 1e-6
    report(2, "propagation = J/P (1e-9), one-layer collapse and permutation "
              "invariance (1e-6) for P in {1,4,13,32}")


def test_criterion_3_spp_node_count_law():
    """Levels {2,3} always produce exactly 13 nodes, whatever the input size."""
    rng = Rng(33)
    for _ in range(10):
        h = int(rng.integers(3, 64))
        w = int(rng.integers(3, 64))
        c = int(rng.integers(1, 8))
        nodes = T.spp_max_pool(Tensor(rng.uniform(-1, 1, (h, w, c))), (2, 3))
        assert nodes.shape == (13, c)
    report(3, "P = 2^2 + 3^2 = 13 for 10 random input shapes (exact)")


def test_criterion_4_rank1_equals_dense():
    """Fast path matches dense propagation; MAC counts match closed forms."""
    rng = Rng(44)
    for p in (4, 13, 32):
        for c in (64, 256, 2048):
            g = Tensor(rng.uniform(-1, 1, (p, c)))
            weight = Tensor(rng.uniform(-1, 1, (c, c)))
            before = PROPAGATION_MACS.macs   # the shared counter's growth
            dense = gcn_layer_forward(g, weight).data
            assert PROPAGATION_MACS.macs - before == dense_mac_count(p, c, c) == p * p * c + p * c * c
            before = PROPAGATION_MACS.macs
            fast = gcn_layer_forward_rank1(g, weight).data
            assert PROPAGATION_MACS.macs - before == rank1_mac_count(p, c, c) == p * c + c * c
            assert np.abs(dense - fast).max() <= 1e-5
    report(4, "rank-1 == dense within 1e-5 and exact MAC accounting over "
              "{4,13,32} x {64,256,2048}")


def test_criterion_5_metrics_oracle_equivalence():
    """compute_metrics equals brute-force counting on 100 random instances."""
    rng = Rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, 120))
        preds = rng.integers(0, n, s)
        labels = rng.integers(0, n, s)
        got = compute_metrics(preds, labels, n)
        confusion, per_class, accuracy = brute_force_metrics(preds, labels, n)
        np.testing.assert_array_equal(got.confusion, confusion)
        assert got.accuracy == accuracy
        for a, b in zip(got.per_class, per_class):
            assert a == b
        assert got.micro["precision"] == got.micro["recall"] == got.accuracy
    report(5, "exact match with brute-force counting on 100 instances; "
              "micro precision = micro recall = accuracy")


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_blobs")
    make_blob_corpus(root, n_train=64, n_test=32, n_classes=4, image_size=64, seed=20)
    return load_blob_corpus(root)


def test_criterion_6_synthetic_end_to_end(acceptance_corpus):
    """Blob corpus trains to 100% train / >=90% test; ablations all train."""
    started = time.perf_counter()
    dataset, plan, _ = acceptance_corpus
    assert len(plan.train) == 64 and len(plan.test) == 32

    model_cfg = tiny_model_config()   # default topology at desk-scale geometry
    train_cfg = TrainConfig(epochs=200, seed=6)
    ckpt, history = train(model_cfg, dataset, plan, train_cfg, stop_at_train_accuracy=1.0)
    assert history[-1].train_accuracy == 1.0, "did not reach 100% train accuracy"
    assert history[-1].epoch <= 200
    test_report = evaluate(ckpt, dataset, plan.test)
    assert test_report.accuracy >= 0.90, f"test accuracy {test_report.accuracy:.3f} < 0.90"

    ablations = {
        "no_gcn": dict(gcn_layers=0),
        "one_gcn_layer": dict(gcn_layers=1),
        "no_spp": dict(use_spp=False),
        "regions_only": dict(use_spp=False, gcn_layers=0),
    }
    quick = TrainConfig(epochs=1, seed=6)
    for name, overrides in ablations.items():
        _, hist = train(tiny_model_config(**overrides), dataset, plan, quick)
        assert np.isfinite(hist[0].loss), f"ablation {name} failed to train"

    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0, f"end-to-end run took {elapsed:.1f}s (budget 300s)"
    report(6, f"100% train accuracy at epoch {history[-1].epoch}, test accuracy "
              f"{test_report.accuracy:.2f}, 4 ablations trained ({elapsed:.1f}s)")


def test_criterion_7_protocol_fidelity():
    """Stratified 70:30, 5-fold 4:1 discipline, and the 2010-sample arithmetic."""
    ds = fake_dataset([40, 25, 61, 34])
    plan = split_train_test(ds, ratio=0.7, seed=3)
    labels = ds.labels()
    assert set(plan.train) & set(plan.test) == set()
    assert sorted(plan.train + plan.test) == list(range(len(ds)))
    for c, n in enumerate([40, 25, 61, 34]):
        got = sum(1 for i in plan.train if labels[i] == c)
        assert abs(got - n * 0.7) <= 1.0
    assert plan.to_json() == split_train_test(ds, ratio=0.7, seed=3).to_json()

    folded = kfold_split(plan, k=5, seed=3)
    union = sorted(i for f in folded.folds for i in f)
    assert union == sorted(plan.train)
    sizes = [len(f) for f in folded.folds]
    assert max(sizes) - min(sizes) <= 1
    for i, f in enumerate(folded.folds):
        for g in folded.folds[i + 1:]:
            assert not set(f) & set(g)
        # 4:1 discipline: per-fold train side is the other four folds
        assert len(folded.fold_train(i)) == len(plan.train) - len(f)
    assert folded.to_json() == kfold_split(plan, k=5, seed=3).to_json()

    potato = kfold_split(SplitPlan(train=list(range(2010)),
                                   test=list(range(2010, 2879)), seed=0), k=5, seed=0)
    assert all(len(f) == 402 for f in potato.folds)
    assert all(len(potato.fold_train(i)) == 1608 for i in range(5))
    report(7, "stratified 70:30 and 5-fold 4:1 splits deterministic and exact; "
              "2010 -> 1608/402 per fold")


def test_criterion_8_persistence(acceptance_corpus):
    """Checkpoint round trip is byte-identical and prediction-identical."""
    model_cfg = tiny_model_config()
    train_cfg = TrainConfig(seed=8)
    model = PNDNet(model_cfg, 4, Rng(8).child("init"))
    means = np.array([120.0, 121.0, 122.0])
    ckpt = checkpoint_from_model(model, model_cfg, train_cfg,
                                 ["a", "b", "c", "d"], means)
    blob = checkpoint_bytes(ckpt)
    assert checkpoint_bytes(checkpoint_from_bytes(blob)) == blob

    loaded, extras = model_from_checkpoint(checkpoint_from_bytes(blob))
    assert extras["class_names"] == ["a", "b", "c", "d"]
    rng = Rng(88)
    for i in range(10):
        raw, _ = make_blob_image(i % 4, 64, rng)
        x = model.eval_input(raw, means)
        np.testing.assert_array_equal(model.predict_probabilities(x),
                                      loaded.predict_probabilities(x))
    report(8, "save -> load -> save byte-identical; predictions bit-identical "
              "on 10 images")


def test_criterion_9_gradcam_sanity(tmp_path_factory):
    """Shape/range invariants everywhere; blob quadrant localized in >=8/10 seeds."""
    hits = 0
    for seed in range(10):
        root = tmp_path_factory.mktemp(f"cam_seed{seed}")
        make_blob_corpus(root, n_train=16, n_test=4, n_classes=4, image_size=64,
                         seed=200 + seed)
        dataset, plan, _ = load_blob_corpus(root)
        model_cfg = tiny_model_config()
        ckpt, history = train(model_cfg, dataset, plan, TrainConfig(epochs=120, seed=seed),
                              stop_at_train_accuracy=1.0)
        assert history[-1].train_accuracy == 1.0
        model, extras = model_from_checkpoint(ckpt)

        quadrant = ("tl", "tr", "bl", "br")[seed % 4]
        raw, _ = make_blob_image(seed % 4, 64, Rng(900 + seed), quadrant=quadrant)
        x = model.eval_input(raw, extras["channel_means"])
        heatmap, _ = grad_cam(model, x, seed % 4)
        assert heatmap.shape == (8, 8)
        assert heatmap.min() >= 0.0 and heatmap.max() <= 1.0
        assert heatmap.max() == 1.0 or not np.any(heatmap)
        r, c = np.unravel_index(np.argmax(heatmap), heatmap.shape)
        got = ("t" if r < 4 else "b") + ("l" if c < 4 else "r")
        hits += got == quadrant
    assert hits >= 8, f"quadrant localization only {hits}/10"
    report(9, f"heatmap invariants held on all inputs; localization {hits}/10 seeds")
