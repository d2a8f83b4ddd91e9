"""The finite-difference oracle itself: exactness, sensitivity, registry."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import pndnet
import pndnet.tensor as T
from pndnet.errors import ArgumentError
from pndnet.gradcam import grad_cam
from pndnet.gradcheck import OP_CHECKS, TOLERANCE, grad_check, run_checks
from pndnet.model import PNDNet, baseline_config
from pndnet.tensor import Rng, Tensor, _record, _accumulate
from pndnet.train import TrainConfig, train_model

from conftest import tiny_model_config
from oracles import ORACLE_CHECKS, REFERENCE_CHECKS


def test_linear_op_is_nearly_exact():
    rng = Rng(0)
    w = Tensor(rng.uniform(-1, 1, (4, 3)))
    x = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    err = grad_check(lambda a: oracles.matmul(a, w), [x])
    assert err < 1e-10  # central differences are exact for linear maps


# the package's ops and the test oracles' chain ops, as acceptance criterion 1 runs them
ALL_CHECKS = {**OP_CHECKS, **ORACLE_CHECKS}


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_registered_op_over_ten_seeds(name):
    worst = max(ALL_CHECKS[name](seed) for seed in range(10))
    assert worst <= TOLERANCE, f"{name}: max rel err {worst:.3e}"


def _corrupted_scale(x: Tensor) -> Tensor:
    # forward is x * 3 but the registered backward is 1% off
    def backward(g):
        _accumulate(x, g * 3.0 * 1.01)

    return _record(x.data * 3.0, (x,), backward, "corrupted_scale")


def test_corrupted_gradient_is_detected():
    rng = Rng(1)
    x = Tensor(rng.uniform(0.5, 1.5, (4, 4)), requires_grad=True)
    err = grad_check(_corrupted_scale, [x])
    assert err > 5e-3


def test_fault_injected_registry_fails_with_op_named():
    def corrupted_check(seed: int) -> float:
        x = Tensor(Rng(seed).uniform(0.5, 1.5, (3, 3)), requires_grad=True)
        return grad_check(_corrupted_scale, [x])

    registry = dict(OP_CHECKS)
    registry["corrupted_scale"] = corrupted_check
    results = run_checks(["mul", "corrupted_scale"], seeds=range(2), registry=registry)
    assert results["mul"] <= TOLERANCE
    assert results["corrupted_scale"] > TOLERANCE


def test_unknown_op_rejected():
    with pytest.raises(ArgumentError, match="no_such_op"):
        run_checks(["no_such_op"])


def test_coordinate_sampling_still_catches_bugs():
    rng = Rng(2)
    x = Tensor(rng.uniform(0.5, 1.5, (20, 20)), requires_grad=True)
    err = grad_check(_corrupted_scale, [x], coords_per_input=25, rng=Rng(3))
    assert err > 5e-3


def test_inputs_without_requires_grad_are_ignored():
    rng = Rng(4)
    a = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 3)))  # constant
    err = grad_check(T.mul, [a, b])
    assert err < 1e-8


# ops registered under another name in OP_CHECKS
CHECK_NAME = {"cross_entropy": "cross_entropy_softmax"}


def _recorded_op_names(paths=None) -> set[str]:
    """Every op name passed to ``_record`` or ``_node`` in ``paths``, by
    default the package source; ``_record`` passes its own caller's name on
    to ``_node``."""
    if paths is None:
        paths = Path(pndnet.__file__).parent.glob("*.py")
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wrapper = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_record"
                   for n in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_record", "_node")
                    and id(node) not in wrapper):
                op = node.args[3] if len(node.args) > 3 else next(
                    k.value for k in node.keywords if k.arg == "op")
                assert isinstance(op, ast.Constant), f"{path.name}:{node.lineno} op name is not a literal"
                names.add(op.value)
    return names


# checks of composites of recorded ops, registered under a name no op records
COMPOSITE_CHECKS = {"cross_entropy_softmax"}


def test_every_recorded_op_has_a_check():
    names = _recorded_op_names()
    assert {"conv2d_bias_pool_relu", "spp_max_pool", "gcn_layer", "gcn_layer_rank1", "cross_entropy"} <= names
    missing = sorted(n for n in names if CHECK_NAME.get(n, n) not in OP_CHECKS)
    assert not missing, f"ops without a gradcheck entry: {missing}"
    # and no check outlives its op
    stale = sorted(set(OP_CHECKS) - names - COMPOSITE_CHECKS)
    assert not stale, f"gradcheck entries for ops nothing records: {stale}"


def test_every_oracle_op_has_a_check():
    names = _recorded_op_names([Path(oracles.__file__)])
    assert names == set(ORACLE_CHECKS) | set(REFERENCE_CHECKS)
    # an oracle never shadows a package op's check
    assert not set(OP_CHECKS) & (set(ORACLE_CHECKS) | set(REFERENCE_CHECKS))


def _ops_on_graph(root: Tensor) -> set[str]:
    """The op of every recorded node the backward from ``root`` visits."""
    ops, seen, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            ops.add(node._op)
            stack.extend(node._parents)
    return ops


def test_every_recorded_op_is_on_a_production_path(blob_corpus):
    """One training step of each node-stage and GCN config, and Grad-CAM,
    between them record every op the package records: the package ships
    no op that only tests reach."""
    dataset, plan, _ = blob_corpus
    base = tiny_model_config()
    reached = set()
    backward = Tensor.backward

    def spied_backward(self):
        reached.update(_ops_on_graph(self))
        backward(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "backward", spied_backward)
        for cfg in (base, replace(base, use_spp=False), baseline_config(base),
                    replace(base, use_rank1=True)):
            model = PNDNet(cfg, dataset.n_classes, Rng(0))
            train_model(model, dataset, plan.train[:1], TrainConfig(epochs=1, batch_size=1),
                        channel_means=(0.0, 0.0, 0.0))
        image = Rng(1).uniform(-1, 1, (base.image_size, base.image_size, 3))
        grad_cam(model, image, 0)
    assert reached == _recorded_op_names()
