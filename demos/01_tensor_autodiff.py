"""Tour of the tensor engine: forward ops, reverse-mode gradients, FD checks.

Run:  python3 demos/01_tensor_autodiff.py
"""

import numpy as np

import pndnet.tensor as T
from pndnet.gradcheck import grad_check, run_checks
from pndnet.head import head_logits, init_head
from pndnet.tensor import Rng, Tensor

# --- tensors are numpy buffers with an optional gradient tape ---------------

a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
b = Tensor([[5.0, 6.0], [7.0, 8.0]])
product = T.matmul(a, b)
print("A @ B =\n", product.data)

# backward() on a scalar fills .grad on everything that contributed
loss = T.tensor_sum(product)
loss.backward()
print("d sum(A@B) / dA =\n", a.grad)          # equals ones @ B^T
print("analytic check  =\n", np.ones((2, 2)) @ b.data.T)

# --- the op set covers everything the classifier needs ----------------------

rng = Rng(0)
image = Tensor(rng.uniform(-1, 1, (6, 6, 3)))
# pyramid max pooling: one node per bin of the 1x1 and 2x2 grids
print("\nspatial pyramid pool over levels (1, 2) ->", T.spp_max_pool(image, (1, 2)).shape)
# cell means of the 2x nearest-upsampled map, without building that map
print("region means on a 3x3 grid of the 12x12 upsample ->", T.region_pool(image, 3, 2).shape)

x = Tensor(rng.uniform(-2, 2, (2, 5)))
probs = T.softmax(x, axis=1)
print("softmax rows sum to", probs.data.sum(axis=1))

# the head (layer norm, dropout, projection) is one op; its dropout is
# inverted: eval mode is the identity, and train mode zeroes features at
# random and rescales the rest, so the logits keep their expectation
head = init_head(16, 3, Rng(1), dropout_rate=0.3)
features = Tensor(rng.uniform(-1, 1, 16).astype(np.float32))
draws = Rng(2)
train_mean = np.mean([head_logits(head, features, "train", draws).data for _ in range(2000)], axis=0)
print("eval-mode logits             ", head_logits(head, features, "eval").data.round(3))
print("mean of 2000 train-mode draws", train_mean.round(3))

# --- every gradient is verified against central differences -----------------

print("\nfinite-difference audit (max relative error per op):")
for name, err in run_checks(seeds=range(2)).items():
    print(f"  {name:24s} {err:.2e}")

# the checker is an independent oracle: feed it any differentiable callable
w = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
m = Tensor(rng.uniform(0.3, 1.0, (4, 5)))
err = grad_check(lambda t: T.relu(T.matmul(m, t)), [w])
print(f"\ncustom composite relu(M @ W): max rel err {err:.2e}")
