"""Training loop, evaluation, and the k-fold cross-validation driver.

SGD over seeded shuffled mini-batches; the learning rate divides by the decay
factor after the decay epoch and there is no early stopping. With a fixed
seed the whole run is bit-reproducible, including the final checkpoint bytes.

A step backpropagates each image's share of the batch loss as soon as its
forward ends, so one image's graph is alive at a time. Every parameter
receives the per-image gradients in batch order, as the backward of one
graph over the whole batch delivers them, so the gradients, and the
checkpoints, are bit-identical to that graph's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import ModelCheckpoint, checkpoint_from_model, model_from_checkpoint
from .data import (AugmentConfig, Dataset, SplitPlan, compute_channel_means, preprocess,
                   resized_input)
from .errors import ArgumentError, NumericalError, TrainingError
from .head import cross_entropy
from .imageio import read_image
from .metrics import MetricsReport, compute_metrics, top_k_accuracy
from .model import ModelConfig, PNDNet
from .tensor import Rng, Tensor


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 12
    epochs: int = 150
    lr_decay_epoch: int = 100
    lr_decay_factor: float = 5.0
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self):
        if not 0 <= self.lr < np.inf:
            raise ArgumentError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ArgumentError("batch_size and epochs must be >= 1")
        if self.lr_decay_epoch < 0:
            raise ArgumentError(f"lr_decay_epoch must be >= 0, got {self.lr_decay_epoch}")
        if not 0 < self.lr_decay_factor < np.inf:
            raise ArgumentError(f"lr_decay_factor must be finite and > 0, got {self.lr_decay_factor}")
        self.augment.validate()


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch: divided once after the decay epoch."""
    return cfg.lr if epoch <= cfg.lr_decay_epoch else cfg.lr / cfg.lr_decay_factor


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    train_accuracy: float

    def to_json_dict(self) -> dict:
        return {"epoch": self.epoch, "lr": self.lr, "loss": self.loss,
                "train_accuracy": self.train_accuracy}


def _load_inputs(dataset: Dataset, indices, resize_size: int) -> list[tuple[np.ndarray, int]]:
    """Each image read and resized once; ``preprocess`` gives the same bytes
    for the held ``resized_input`` as for the original."""
    return [(resized_input(read_image(dataset.samples[i][0]), resize_size), dataset.samples[i][1])
            for i in indices]


def _eval_accuracy(model: PNDNet, images: list[tuple[np.ndarray, int]], channel_means) -> float:
    inputs, labels = zip(*images)
    return float(np.mean(model.classify(inputs, channel_means).argmax(axis=1) == labels))


def train_model(model: PNDNet, dataset: Dataset, train_indices, cfg: TrainConfig,
                channel_means, stop_at_train_accuracy: float | None = None,
                log=None) -> list[EpochStats]:
    """Run SGD for cfg.epochs; returns per-epoch stats.

    ``stop_at_train_accuracy`` is an optional convergence gate for synthetic
    experiments; the protocol default (None) never stops early.
    """
    cfg.validate()
    train_indices = list(train_indices)
    if not train_indices:
        raise ArgumentError("no training samples")
    mcfg = model.config
    images = _load_inputs(dataset, train_indices, mcfg.resize_size)
    params = model.parameters()
    rng = Rng(cfg.seed)
    augment_rng = rng.child("augment")
    dropout_rng = rng.child("dropout")
    one_hot = np.eye(model.n_classes, dtype=model.dtype)

    def backprop(img: np.ndarray, label: int, batch_size: int) -> np.ndarray:
        """Forward one image and backpropagate its share of the batch loss at
        once; returns its cross-entropy term. Its graph dies on return, so a
        step holds one image's graph at a time."""
        x = preprocess(img, "train", rng=augment_rng, channel_means=channel_means,
                       resize_size=mcfg.resize_size, crop_size=mcfg.image_size,
                       augment_cfg=cfg.augment)
        result = model.forward(Tensor(x.astype(model.dtype)), mode="train", rng=dropout_rng)
        share = cross_entropy(result.logits, one_hot[label:label + 1], batch_size=batch_size)
        share.loss.backward()
        return share.per_sample

    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        lr = learning_rate(cfg, epoch)
        order = rng.child(f"shuffle:{epoch}").permutation(len(images))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            model.zero_grad()
            try:
                terms = np.concatenate([backprop(*images[idx], len(batch)) for idx in batch])
            except NumericalError as err:
                raise TrainingError(
                    f"training diverged at epoch {epoch}, batch {start // cfg.batch_size}: {err}") from err
            for _, p in params:
                if p.grad is not None:
                    T.sgd_step(p, p.grad, lr)
            losses.append(float(terms.mean()))
        train_acc = _eval_accuracy(model, images, channel_means)
        stats = EpochStats(epoch=epoch, lr=lr, loss=float(np.mean(losses)), train_accuracy=train_acc)
        history.append(stats)
        if log:
            log(f"epoch {epoch}/{cfg.epochs} lr={lr:g} loss={stats.loss:.4f} train_acc={train_acc:.3f}")
        if stop_at_train_accuracy is not None and train_acc >= stop_at_train_accuracy:
            break
    return history


def train(model_cfg: ModelConfig, dataset: Dataset, plan: SplitPlan, cfg: TrainConfig,
          fold: int | None = None, channel_means=None,
          stop_at_train_accuracy: float | None = None,
          log=None) -> tuple[ModelCheckpoint, list[EpochStats]]:
    """Train on the plan's train side (minus the held-out fold, if given)."""
    model_cfg.validate()
    if channel_means is None:
        channel_means = compute_channel_means(dataset, plan.train,
                                              resize_size=model_cfg.resize_size,
                                              crop_size=model_cfg.image_size)
    indices = plan.train if fold is None else plan.fold_train(fold)
    model = PNDNet(model_cfg, dataset.n_classes, Rng(cfg.seed).child("init"))
    history = train_model(model, dataset, indices, cfg, channel_means,
                          stop_at_train_accuracy=stop_at_train_accuracy, log=log)
    ckpt = checkpoint_from_model(model, model_cfg, cfg, dataset.class_names, channel_means)
    return ckpt, history


def evaluate_model(model: PNDNet, dataset: Dataset, indices, channel_means) -> MetricsReport:
    indices = list(indices)
    if not indices:
        raise ArgumentError("no samples to evaluate")
    probs = model.classify((read_image(dataset.samples[i][0]) for i in indices), channel_means)
    labels = np.array([dataset.samples[i][1] for i in indices], dtype=np.int64)
    report = compute_metrics(probs.argmax(axis=1), labels, model.n_classes)
    for k in (1, min(3, model.n_classes)):
        report.top_k[k] = top_k_accuracy(probs, labels, k)
    return report


def evaluate(checkpoint: ModelCheckpoint, dataset: Dataset, indices=None) -> MetricsReport:
    """Eval-mode metrics of a checkpointed model on a dataset subset."""
    model, extras = model_from_checkpoint(checkpoint)
    if extras["class_names"] != dataset.class_names:
        raise ArgumentError(f"checkpoint classes {extras['class_names']} differ from "
                            f"dataset classes {dataset.class_names}")
    if indices is None:
        indices = range(len(dataset))
    return evaluate_model(model, dataset, indices, extras["channel_means"])


@dataclass
class FoldResult:
    fold: int
    checkpoint: ModelCheckpoint
    history: list[EpochStats]
    val_accuracy: float
    test_report: MetricsReport

    def summary_row(self) -> dict:
        return {
            "fold": self.fold,
            "val_accuracy": self.val_accuracy,
            "test_accuracy": self.test_report.accuracy,
            "precision": self.test_report.macro["precision"],
            "recall": self.test_report.macro["recall"],
            "f1": self.test_report.macro["f1"],
        }


def cross_validate(model_cfg: ModelConfig, dataset: Dataset, plan: SplitPlan,
                   cfg: TrainConfig, log=None) -> tuple[list[FoldResult], dict]:
    """Per-fold training/validation/test rows plus the averaged summary row."""
    if not plan.folds:
        raise ArgumentError("plan has no folds; run kfold_split first")
    channel_means = compute_channel_means(dataset, plan.train,
                                          resize_size=model_cfg.resize_size,
                                          crop_size=model_cfg.image_size)
    results: list[FoldResult] = []
    for fold in range(len(plan.folds)):
        if log:
            log(f"fold {fold + 1}/{len(plan.folds)}")
        ckpt, history = train(model_cfg, dataset, plan, cfg, fold=fold,
                              channel_means=channel_means, log=log)
        val_report = evaluate(ckpt, dataset, plan.folds[fold])
        test_report = evaluate(ckpt, dataset, plan.test)
        results.append(FoldResult(fold=fold, checkpoint=ckpt, history=history,
                                  val_accuracy=val_report.accuracy, test_report=test_report))
    rows = [r.summary_row() for r in results]
    avg = {"fold": "avg"}
    for key in ("val_accuracy", "test_accuracy", "precision", "recall", "f1"):
        avg[key] = float(np.mean([row[key] for row in rows]))
    return results, avg
