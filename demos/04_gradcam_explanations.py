"""Class-activation heatmaps: where does an overfit model look?

Trains a tiny model on blobs whose discriminative disk sits in a known
quadrant, then checks that the heatmap peak lands in that quadrant and
exports P5 grayscale maps with JSON sidecars.

Run:  python3 demos/04_gradcam_explanations.py
"""

import tempfile
from pathlib import Path

import numpy as np

from pndnet import (BackboneConfig, ModelConfig, Rng, TrainConfig, grad_cam,
                    model_from_checkpoint, save_heatmap, train)
from pndnet.synthetic import load_blob_corpus, make_blob_corpus, make_blob_image

workdir = Path(tempfile.mkdtemp(prefix="cam_demo_"))
corpus = workdir / "corpus"
make_blob_corpus(corpus, n_train=16, n_test=4, n_classes=4, image_size=64, seed=42)
dataset, plan, _ = load_blob_corpus(corpus)

model_cfg = ModelConfig(image_size=32, resize_size=36,
                        backbone=BackboneConfig(channels=(8, 16), out_channels=32))
ckpt, history = train(model_cfg, dataset, plan, TrainConfig(epochs=120, seed=1),
                      stop_at_train_accuracy=1.0)
print(f"overfit in {history[-1].epoch} epochs")
model, extras = model_from_checkpoint(ckpt)

print("\nprobe blobs in each quadrant; heatmap argmax should follow:")
for class_index, quadrant in enumerate(("tl", "tr", "bl", "br")):
    raw, _ = make_blob_image(class_index, 64, Rng(500 + class_index), quadrant=quadrant)
    x = model.eval_input(raw, extras["channel_means"])
    heatmap, _ = grad_cam(model, x, class_index)
    r, c = np.unravel_index(np.argmax(heatmap), heatmap.shape)
    found = ("t" if r < heatmap.shape[0] / 2 else "b") + \
            ("l" if c < heatmap.shape[1] / 2 else "r")
    marker = "ok" if found == quadrant else "MISS"
    print(f"  class {class_index}: blob in {quadrant}, heatmap peak at "
          f"({r},{c}) -> {found}  [{marker}]")
    pgm, sidecar = save_heatmap(heatmap, workdir / f"cam_{quadrant}",
                                meta={"class_index": class_index})
    print(f"    wrote {pgm.name} (P5) and {sidecar.name}")

print("\nheatmaps are", heatmap.shape, "= the backbone feature-map extent,")
print("min-max normalized to [0, 1]; files are under", workdir)
