"""Training loop determinism, schedule, divergence, evaluation, k-fold CV."""

import sys
import threading
import weakref

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.backbone import BackboneConfig
from pndnet.checkpoint import checkpoint_bytes, model_from_checkpoint
from pndnet.data import preprocess
from pndnet.errors import ArgumentError, TrainingError
from pndnet.head import cross_entropy
from pndnet.imageio import read_image
from pndnet.metrics import MetricsReport
from pndnet.model import PNDNet, baseline_config
from pndnet.tensor import Rng, Tensor
from pndnet.train import (TrainConfig, cross_validate, evaluate,
                          learning_rate, train, train_model)

from conftest import fast_train_config, tiny_model_config
from oracles import concat_rows


class TestSchedule:
    def test_lr_constant_then_divided(self):
        cfg = TrainConfig(lr=1e-3, lr_decay_epoch=100, lr_decay_factor=5.0)
        assert learning_rate(cfg, 1) == 1e-3
        assert learning_rate(cfg, 100) == 1e-3
        assert learning_rate(cfg, 101) == learning_rate(cfg, 100) / 5.0
        assert learning_rate(cfg, 150) == 1e-3 / 5.0

    def test_negative_decay_epoch_rejected(self):
        with pytest.raises(ArgumentError, match="lr_decay_epoch must be >= 0, got -5"):
            TrainConfig(lr_decay_epoch=-5).validate()
        TrainConfig(lr_decay_epoch=0).validate()   # the decayed lr from epoch 1

    def test_history_records_decayed_lr(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        cfg = fast_train_config(epochs=3, lr_decay_epoch=2, lr_decay_factor=4.0)
        _, history = train(tiny_model_config(), dataset, plan, cfg)
        assert [h.lr for h in history] == [cfg.lr, cfg.lr, cfg.lr / 4.0]
        assert history[2].lr == history[1].lr / 4.0


class TestDeterminism:
    def test_lr_zero_leaves_parameters_untouched(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        mcfg = tiny_model_config()
        cfg = fast_train_config(lr=0.0, epochs=2)
        before = PNDNet(mcfg, dataset.n_classes, Rng(cfg.seed).child("init"))
        ckpt, _ = train(mcfg, dataset, plan, cfg)
        for name, tensor in before.parameters():
            np.testing.assert_array_equal(ckpt.tensors[name], tensor.data)

    def test_same_seed_identical_checkpoint_bytes(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        mcfg = tiny_model_config()
        cfg = fast_train_config(epochs=2, seed=21)
        a, hist_a = train(mcfg, dataset, plan, cfg)
        b, hist_b = train(mcfg, dataset, plan, cfg)
        assert checkpoint_bytes(a) == checkpoint_bytes(b)
        assert [h.to_json_dict() for h in hist_a] == [h.to_json_dict() for h in hist_b]

    def test_no_grad_in_another_thread_leaves_training_unchanged(self, blob_corpus):
        # graph recording is per thread: a no_grad() block held open in
        # another thread for the whole run must not drop any gradient
        dataset, plan, _ = blob_corpus
        mcfg, cfg = tiny_model_config(), fast_train_config(epochs=1, seed=21)
        solo, _ = train(mcfg, dataset, plan, cfg)
        inside, done = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                inside.set()
                done.wait(60)

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert inside.wait(10)
            beside, _ = train(mcfg, dataset, plan, cfg)
            assert other.is_alive()   # the block stayed open for the whole run
        finally:
            done.set()
            other.join(10)
        assert not other.is_alive()
        assert checkpoint_bytes(beside) == checkpoint_bytes(solo)

    def test_different_seed_different_checkpoint(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        mcfg = tiny_model_config()
        a, _ = train(mcfg, dataset, plan, fast_train_config(epochs=1, seed=1))
        b, _ = train(mcfg, dataset, plan, fast_train_config(epochs=1, seed=2))
        assert checkpoint_bytes(a) != checkpoint_bytes(b)


class TestResizeOnce:
    def test_each_training_image_resized_once_per_call(self, blob_corpus, monkeypatch):
        import pndnet.data

        dataset, plan, _ = blob_corpus
        real = pndnet.data._resize_window
        calls = []

        def counting(img, out_h, out_w, rows, cols, dtype):
            calls.append((out_h, out_w))
            return real(img, out_h, out_w, rows, cols, dtype)

        monkeypatch.setattr(pndnet.data, "_resize_window", counting)
        mcfg = tiny_model_config()   # the corpus's 64 px images really resize, to 36
        model = PNDNet(mcfg, dataset.n_classes, Rng(0).child("init"))
        train_model(model, dataset, plan.train, fast_train_config(epochs=3), (0.0, 0.0, 0.0))
        assert calls == [(36, 36)] * len(plan.train)   # at load; no epoch resizes again

    def test_holds_float32_only_when_the_resize_changes_the_shape(self, blob_corpus):
        load_inputs = sys.modules["pndnet.train"]._load_inputs   # pndnet.train is the function
        dataset, plan, _ = blob_corpus
        for img, _ in load_inputs(dataset, plan.train, 36):
            assert img.dtype == np.float32 and img.shape == (36, 36, 3)
        for (img, _), i in zip(load_inputs(dataset, plan.train, 64), plan.train):
            # already at resize_size: the 8-bit original, a quarter of a float32 copy
            np.testing.assert_array_equal(img, read_image(dataset.samples[i][0]))
            assert img.dtype == np.uint8

    def test_same_bytes_as_resizing_in_every_preprocess(self, blob_corpus, monkeypatch):
        dataset, plan, _ = blob_corpus
        mcfg, cfg = tiny_model_config(), fast_train_config(epochs=2)
        once, hist_once = train(mcfg, dataset, plan, cfg)
        # the held image stays 64 px, so every preprocess call resizes it again
        monkeypatch.setattr(sys.modules["pndnet.train"], "resized_input", lambda img, size: img)
        every, hist_every = train(mcfg, dataset, plan, cfg)
        assert checkpoint_bytes(once) == checkpoint_bytes(every)
        assert [h.to_json_dict() for h in hist_once] == [h.to_json_dict() for h in hist_every]


def whole_batch_steps(model, dataset, indices, cfg, channel_means):
    """Oracle: the training loop with every image's graph alive until one
    backward over the batch's joined rows. Returns each step's parameter
    gradients and batch loss."""
    images = sys.modules["pndnet.train"]._load_inputs(dataset, indices, model.config.resize_size)
    rng = Rng(cfg.seed)
    augment_rng, dropout_rng = rng.child("augment"), rng.child("dropout")
    steps = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.child(f"shuffle:{epoch}").permutation(len(images))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            rows = []
            targets = np.zeros((len(batch), model.n_classes), dtype=model.dtype)
            for j, idx in enumerate(batch):
                img, label = images[idx]
                x = preprocess(img, "train", rng=augment_rng, channel_means=channel_means,
                               resize_size=model.config.resize_size,
                               crop_size=model.config.image_size, augment_cfg=cfg.augment)
                result = model.forward(Tensor(x.astype(model.dtype)), mode="train", rng=dropout_rng)
                rows.append(result.logits)
                targets[j, label] = 1.0
            loss = cross_entropy(concat_rows(rows), targets).loss
            model.zero_grad()
            loss.backward()
            steps.append(([p.grad.copy() for _, p in model.parameters()], loss.item()))
            for _, p in model.parameters():
                T.sgd_step(p, p.grad, learning_rate(cfg, epoch))
    return steps


class TestStreamedStep:
    """Each image is backpropagated as soon as its forward ends."""

    MEANS = (0.1, -0.2, 0.3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch_size", [1, 4, 12])   # 12: 16 images end in a batch of 4
    def test_gradients_and_losses_equal_the_whole_batch_graph(self, blob_corpus, monkeypatch,
                                                              dtype, batch_size):
        dataset, plan, _ = blob_corpus
        mcfg = tiny_model_config()
        assert mcfg.dropout > 0 and len(plan.train) == 16
        cfg = fast_train_config(epochs=2, batch_size=batch_size, lr=0.05)
        oracle = whole_batch_steps(PNDNet(mcfg, dataset.n_classes, Rng(3).child("init"), dtype=dtype),
                                   dataset, plan.train, cfg, self.MEANS)

        train_mod = sys.modules["pndnet.train"]
        grads, shares = [], []
        sgd_step, loss = T.sgd_step, train_mod.cross_entropy

        def recording_sgd_step(param, grad, lr):
            grads.append(grad.copy())
            sgd_step(param, grad, lr)

        def recording_loss(logits, target, batch_size=None):
            out = loss(logits, target, batch_size=batch_size)
            shares.append((logits.shape[0], batch_size, out.per_sample))
            return out

        monkeypatch.setattr(T, "sgd_step", recording_sgd_step)
        monkeypatch.setattr(train_mod, "cross_entropy", recording_loss)
        model = PNDNet(mcfg, dataset.n_classes, Rng(3).child("init"), dtype=dtype)
        history = train_model(model, dataset, plan.train, cfg, self.MEANS)

        sizes = [min(batch_size, 16 - start) for start in range(0, 16, batch_size)] * cfg.epochs
        assert len(oracle) == len(sizes)
        k = len(model.parameters())
        assert len(grads) == k * len(sizes) and len(shares) == sum(sizes)
        step_losses = []
        for step, ((want, want_loss), size) in enumerate(zip(oracle, sizes)):
            for got, expected in zip(grads[step * k:(step + 1) * k], want):
                assert got.dtype == dtype and np.array_equal(got, expected)
            batch, shares = shares[:size], shares[size:]
            assert [(rows, b) for rows, b, _ in batch] == [(1, size)] * size
            step_losses.append(float(np.concatenate([terms for _, _, terms in batch]).mean()))
            assert step_losses[-1] == want_loss
        per_epoch = len(sizes) // cfg.epochs
        assert [h.loss for h in history] == [
            float(np.mean([want_loss for _, want_loss in oracle[e * per_epoch:(e + 1) * per_epoch]]))
            for e in range(cfg.epochs)]

    def test_one_image_graph_alive_at_a_time(self, blob_corpus, monkeypatch):
        dataset, plan, _ = blob_corpus
        forward = PNDNet.forward
        rows, live = [], []

        def watched(self, image, mode="eval", rng=None):
            if mode == "train":
                live.append(sum(ref() is not None for ref in rows))
            result = forward(self, image, mode, rng)
            if mode == "train":
                rows.append(weakref.ref(result.logits))
            return result

        monkeypatch.setattr(PNDNet, "forward", watched)
        model = PNDNet(tiny_model_config(), dataset.n_classes, Rng(0).child("init"))
        train_model(model, dataset, plan.train, fast_train_config(epochs=1, batch_size=12), self.MEANS)
        assert live == [0] * len(plan.train)


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_huge_lr_reports_epoch_and_batch(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        cfg = fast_train_config(lr=1e18, epochs=5)
        with pytest.raises(TrainingError, match=r"epoch \d+"):
            train(tiny_model_config(), dataset, plan, cfg)


class TestEvaluate:
    def test_overfit_model_scores_one_on_train(self, overfit_run):
        report = evaluate(overfit_run["checkpoint"], overfit_run["dataset"],
                          overfit_run["plan"].train)
        assert report.accuracy == 1.0

    def test_single_sample_confusion(self, overfit_run):
        report = evaluate(overfit_run["checkpoint"], overfit_run["dataset"],
                          overfit_run["plan"].train[:1])
        assert report.confusion.sum() == 1
        assert np.count_nonzero(report.confusion) == 1

    def test_top_k_keys_present(self, overfit_run):
        report = evaluate(overfit_run["checkpoint"], overfit_run["dataset"],
                          overfit_run["plan"].test)
        assert 1 in report.top_k and 3 in report.top_k
        assert report.top_k[3] >= report.top_k[1]

    def test_class_count_mismatch_rejected(self, overfit_run, tmp_path):
        from pndnet.data import load_dataset
        from pndnet.imageio import write_ppm

        for c in range(2):
            d = tmp_path / f"k{c}"
            d.mkdir()
            write_ppm(d / "i.ppm", np.zeros((40, 40, 3), dtype=np.uint8))
        two_class = load_dataset(tmp_path)
        with pytest.raises(ArgumentError, match="classes"):
            evaluate(overfit_run["checkpoint"], two_class)

    def test_evaluation_deterministic(self, overfit_run):
        a = evaluate(overfit_run["checkpoint"], overfit_run["dataset"], overfit_run["plan"].test)
        b = evaluate(overfit_run["checkpoint"], overfit_run["dataset"], overfit_run["plan"].test)
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.to_json_dict() == b.to_json_dict()


ABLATIONS = {
    "no_gcn": dict(gcn_layers=0),
    "one_gcn_layer": dict(gcn_layers=1),
    "no_spp_regions_gcn": dict(use_spp=False),
    "regions_only": dict(use_spp=False, gcn_layers=0),
    "gcn_width_1024_style": dict(gcn_width=16),
}


class TestAblations:
    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_ablation_trains_without_error(self, blob_corpus, name):
        dataset, plan, _ = blob_corpus
        mcfg = tiny_model_config(**ABLATIONS[name])
        cfg = fast_train_config(epochs=1)
        ckpt, history = train(mcfg, dataset, plan, cfg)
        assert len(history) == 1 and np.isfinite(history[0].loss)
        model, _ = model_from_checkpoint(ckpt)
        assert model.config.node_count == mcfg.node_count

    def test_baseline_model_trains(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        mcfg = baseline_config(tiny_model_config())
        ckpt, history = train(mcfg, dataset, plan, fast_train_config(epochs=1))
        assert np.isfinite(history[0].loss)


class TestMixedGeometry:
    def test_trains_on_rectangular_mixed_size_images(self, tmp_path):
        from pndnet.data import load_dataset, split_train_test
        from pndnet.imageio import write_ppm

        rng = Rng(0)
        for c in range(2):
            d = tmp_path / f"class{c}"
            d.mkdir()
            for i in range(6):
                h = int(rng.integers(40, 90))
                w = int(rng.integers(40, 90))
                img = rng.uniform(90, 130, (h, w, 3)).astype(np.uint8)
                img[..., c] = np.clip(img[..., c].astype(int) + 80, 0, 255).astype(np.uint8)
                write_ppm(d / f"img_{i}.ppm", img)
        dataset = load_dataset(tmp_path)
        plan = split_train_test(dataset, ratio=0.7, seed=0)
        mcfg = tiny_model_config(backbone=BackboneConfig(channels=(8,), out_channels=16))
        ckpt, history = train(mcfg, dataset, plan, TrainConfig(epochs=60, seed=1),
                              stop_at_train_accuracy=1.0)
        assert history[-1].train_accuracy == 1.0
        assert evaluate(ckpt, dataset, plan.test).accuracy == 1.0


class TestCrossValidate:
    def test_rows_and_average(self, blob_corpus):
        from pndnet.data import kfold_split

        dataset, plan, _ = blob_corpus
        plan = kfold_split(plan, k=4, seed=1)
        cfg = fast_train_config(epochs=1, seed=2)
        results, avg = cross_validate(tiny_model_config(), dataset, plan, cfg)
        assert len(results) == 4
        rows = [r.summary_row() for r in results]
        assert avg["fold"] == "avg"
        for key in ("val_accuracy", "test_accuracy", "precision", "recall", "f1"):
            assert avg[key] == pytest.approx(np.mean([row[key] for row in rows]))
        # each fold trains on plan.train minus its own validation fold
        for fold, result in enumerate(results):
            assert len(plan.fold_train(fold)) == len(plan.train) - len(plan.folds[fold])
            assert isinstance(result.test_report, MetricsReport)

    def test_requires_folds(self, blob_corpus):
        dataset, plan, _ = blob_corpus
        with pytest.raises(ArgumentError, match="folds"):
            cross_validate(tiny_model_config(), dataset, plan, fast_train_config(epochs=1))
