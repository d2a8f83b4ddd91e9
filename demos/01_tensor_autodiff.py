"""Tour of the tensor engine: forward ops, reverse-mode gradients, FD checks.

Run:  python3 demos/01_tensor_autodiff.py
"""

import numpy as np

import pndnet.tensor as T
from pndnet.gradcheck import grad_check, run_checks
from pndnet.graph import gcn_layer_forward
from pndnet.head import cross_entropy, head_logits, init_head
from pndnet.tensor import Rng, Tensor

# --- tensors are numpy buffers with an optional gradient tape ---------------

a = Tensor([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]], requires_grad=True)
print("softmax rows of A =\n", T.softmax(a.data, axis=1).round(4))

# backward() fills .grad with the gradient of a scalar, here the mean
# cross-entropy of A's logit rows against classes 0 and 2, on everything
# that contributed; a non-scalar node takes a cotangent of its shape,
# backward(w), and gives the vector-Jacobian product w^T J
targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
loss = cross_entropy(a, targets)
loss.loss.backward()
print("cross-entropy per row", loss.per_sample.round(4), "mean", round(loss.item(), 4))
print("d loss / dA =\n", a.grad.round(4))
print("analytic (softmax(A) - T) / 2 =\n", ((T.softmax(a.data, axis=1) - targets) / 2).round(4))

# --- the op set covers everything the classifier needs ----------------------

rng = Rng(0)
image = Tensor(rng.uniform(-1, 1, (6, 6, 3)))
# pyramid max pooling: one node per bin of the 1x1 and 2x2 grids
print("\nspatial pyramid pool over levels (1, 2) ->", T.spp_max_pool(image, (1, 2)).shape)
# cell means of the 2x nearest-upsampled map, without building that map
print("region means on a 3x3 grid of the 12x12 upsample ->", T.region_pool(image, 3, 2).shape)

# one graph layer, ReLU((J/P) @ G @ W) on the complete graph, is one op;
# every row of its output is the same, since J/P averages the nodes
nodes = Tensor(rng.uniform(-1, 1, (4, 3)))
layer = gcn_layer_forward(nodes, Tensor(np.eye(3)))
print("GCN layer on 4 nodes, identity weight: rows", layer.data[0].round(3), "x", layer.shape[0])

x = rng.uniform(-2, 2, (2, 5))
print("softmax rows sum to", T.softmax(x, axis=1).sum(axis=1))

# the head (GAP over the nodes, layer norm, dropout, projection) is one op;
# its dropout is inverted: eval mode is the identity, and train mode zeroes
# features at random and rescales the rest, so the logits keep their expectation
head = init_head(16, 3, Rng(1), dropout_rate=0.3)
node_matrix = Tensor(rng.uniform(-1, 1, (13, 16)).astype(np.float32))
draws = Rng(2)
train_mean = np.mean([head_logits(head, node_matrix, "train", draws).data for _ in range(2000)], axis=0)
print("eval-mode logits             ", head_logits(head, node_matrix, "eval").data.round(3))
print("mean of 2000 train-mode draws", train_mean.round(3))

# --- every gradient is verified against central differences -----------------

print("\nfinite-difference audit (max relative error per op):")
for name, err in run_checks(seeds=range(2)).items():
    print(f"  {name:24s} {err:.2e}")

# the checker is an independent oracle: feed it any differentiable callable;
# it weights a non-scalar output by a fixed random cotangent
x = Tensor(rng.uniform(-1, 1, (6, 6, 3)), requires_grad=True)
err = grad_check(lambda t: cross_entropy(T.region_pool(t, 3, 2), np.eye(3)[np.arange(9) % 3]).loss, [x])
print(f"\ncustom composite cross_entropy(region_pool(X)): max rel err {err:.2e}")
