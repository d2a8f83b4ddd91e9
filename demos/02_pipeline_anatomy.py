"""Anatomy of the classifier: backbone map -> SPP nodes -> GCN -> head.

Shows the shapes flowing through each stage, the complete-graph propagation
facts (row-mean collapse, permutation invariance), and the rank-1 fast path.

Run:  python3 demos/02_pipeline_anatomy.py
"""

import time

import numpy as np

from pndnet import BackboneConfig, ModelConfig, PNDNet, Rng, Tensor
from pndnet.graph import PROPAGATION_MACS, gcn_layer_forward, gcn_layer_forward_rank1

# --- a desk-scale configuration ---------------------------------------------
# The full-protocol defaults are 256->224 preprocessing with a [32,64,128]+256
# backbone (28x28 feature map, upsampled to 56). Everything scales down.

cfg = ModelConfig(image_size=32, resize_size=36,
                  backbone=BackboneConfig(channels=(8, 16), out_channels=32))
model = PNDNet(cfg, n_classes=4, rng=Rng(0))

image = Tensor(Rng(1).uniform(-80, 80, (32, 32, 3)).astype(np.float32))
result = model.forward(image)

print("backbone feature map :", result.feature_map.shape)
print("upsampled extent     :", cfg.upsampled_extent, "(never built: SPP pools the map itself)")
print("SPP levels           :", cfg.spp_levels, "-> node matrix", result.nodes.shape,
      f"(P = {' + '.join(f'{n}^2' for n in cfg.spp_levels)} = {cfg.node_count})")
print("after 2 GCN layers   :", result.node_output.shape)
print("logits (GAP in head) :", result.logits.shape)
print("class probabilities  :", np.round(result.probabilities, 4))

# --- complete-graph propagation facts ----------------------------------------

# the dense layer takes P from the node matrix: on identity nodes and weights
# its output is the propagation matrix itself
eye = Tensor(np.eye(13))
print("\npropagation matrix entries are all 1/13:",
      np.allclose(gcn_layer_forward(eye, eye).data, 1 / 13))

g = Tensor(Rng(2).uniform(-1, 1, (13, 32)))
weight = Tensor(Rng(3).uniform(-1, 1, (32, 32)))
out = gcn_layer_forward(g, weight).data
print("one layer makes every node row identical:",
      float(np.abs(out - out[0]).max()), "max spread")

perm = Rng(4).permutation(13)
out_perm = gcn_layer_forward(Tensor(g.data[perm]), weight).data
print("permuting node rows changes nothing:",
      float(np.abs(out - out_perm).max()), "max diff")

# --- rank-1 fast path: column mean + broadcast -------------------------------
# Because the propagation matrix is J/P, the dense P x P multiply is wasteful.

p, c = 13, 2048
g = Tensor(Rng(5).uniform(-1, 1, (p, c)))
weight = Tensor(Rng(6).uniform(-1, 1, (c, c)))

# the counter is shared and never reset: read its growth over each call
before = PROPAGATION_MACS.macs
dense = gcn_layer_forward(g, weight)
dense_macs = PROPAGATION_MACS.macs - before
before = PROPAGATION_MACS.macs
fast = gcn_layer_forward_rank1(g, weight)
fast_macs = PROPAGATION_MACS.macs - before

print(f"\nP={p}, C={c}: dense path {dense_macs:,} multiply-adds, "
      f"rank-1 path {fast_macs:,} ({dense_macs / fast_macs:.1f}x fewer)")
print("outputs agree to", float(np.abs(dense.data - fast.data).max()))

for fn, label in ((gcn_layer_forward, "dense "), (gcn_layer_forward_rank1, "rank-1")):
    start = time.perf_counter()
    for _ in range(20):
        fn(g, weight)
    print(f"{label} forward: {(time.perf_counter() - start) / 20 * 1e3:.2f} ms")
