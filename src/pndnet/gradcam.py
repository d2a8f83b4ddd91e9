"""Gradient-weighted class activation heatmaps over the backbone feature map.

The target logit is backpropagated to the backbone output only; each channel's
gradient is globally averaged into a weight, the weighted channel sum is
rectified and min-max normalized to [0, 1]. An all-zero map is returned as
zeros when rectification removes everything.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ArgumentError
from .imageio import write_pgm
from .model import PNDNet
from .tensor import Tensor


def grad_cam(model: PNDNet, preprocessed: np.ndarray,
             target_class: int | None = None) -> tuple[np.ndarray, int]:
    """Heatmap [h, w] in [0, 1] for a preprocessed [S, S, 3] input, and the
    class it explains: ``target_class``, or with ``None`` the most probable
    class of this same forward.

    The backbone runs without a graph and the later stages on detached
    parameters, so the backward reaches only the feature map and leaves every
    parameter's ``.grad`` as it was.
    """
    if target_class is not None and not 0 <= target_class < model.n_classes:
        raise ArgumentError(f"class index {target_class} outside [0, {model.n_classes})")
    with T.no_grad():
        fmap = model.backbone.forward(Tensor(np.asarray(preprocessed, dtype=model.dtype)))
    leaf = Tensor(fmap.data, requires_grad=True)
    frozen = copy.copy(model)
    frozen.gcn = [w.detach() for w in model.gcn]
    frozen.head = _detached(model.head)
    result = frozen.forward_features(leaf, mode="eval")
    if target_class is None:
        target_class = int(np.argmax(result.probabilities))
    one_hot = np.zeros((1, model.n_classes), dtype=model.dtype)
    one_hot[0, target_class] = 1.0
    result.logits.backward(one_hot)   # the target logit's gradient
    grads = leaf.grad
    if grads is None:
        grads = np.zeros_like(leaf.data)
    weights = grads.mean(axis=(0, 1))                      # [C]
    cam = np.maximum(np.tensordot(leaf.data, weights, axes=([2], [0])), 0.0)
    lo, hi = float(cam.min()), float(cam.max())
    if hi <= lo:
        return np.zeros_like(cam, dtype=np.float64), target_class
    return ((cam - lo) / (hi - lo)).astype(np.float64), target_class


def _detached(stage):
    """Copy of a dataclass whose Tensor fields are detached from the graph."""
    return replace(stage, **{f.name: getattr(stage, f.name).detach() for f in fields(stage)
                             if isinstance(getattr(stage, f.name), Tensor)})


def save_heatmap(heatmap: np.ndarray, path_stem, meta: dict | None = None) -> tuple[Path, Path]:
    """Write <stem>.pgm (8-bit P5) plus a <stem>.json sidecar of raw values."""
    stem = Path(path_stem)
    pgm_path = stem.parent / (stem.name + ".pgm")
    json_path = stem.parent / (stem.name + ".json")
    write_pgm(pgm_path, np.round(heatmap * 255.0).astype(np.uint8))
    doc = dict(meta or {})
    doc["shape"] = list(heatmap.shape)
    doc["values"] = heatmap.tolist()
    json_path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return pgm_path, json_path
