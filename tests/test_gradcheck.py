"""The finite-difference oracle itself: exactness, sensitivity, registry."""

import numpy as np
import pytest

import pndnet.tensor as T
from pndnet.errors import ArgumentError
from pndnet.gradcheck import OP_CHECKS, TOLERANCE, grad_check, run_checks
from pndnet.tensor import Rng, Tensor, _record, _accumulate


def test_linear_op_is_nearly_exact():
    rng = Rng(0)
    w = Tensor(rng.uniform(-1, 1, (4, 3)))
    x = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    err = grad_check(lambda a: T.matmul(a, w), [x])
    assert err < 1e-10  # central differences are exact for linear maps


@pytest.mark.parametrize("name", sorted(OP_CHECKS))
def test_registered_op_over_ten_seeds(name):
    worst = max(OP_CHECKS[name](seed) for seed in range(10))
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
    results = run_checks(["matmul", "corrupted_scale"], seeds=range(2), registry=registry)
    assert results["matmul"] <= TOLERANCE
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


def _recorded_op_names() -> set[str]:
    """Every op name passed to ``_record`` anywhere in the package source."""
    import ast
    from pathlib import Path

    import pndnet

    names = set()
    for path in Path(pndnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record":
                op = node.args[3] if len(node.args) > 3 else next(
                    k.value for k in node.keywords if k.arg == "op")
                assert isinstance(op, ast.Constant), f"{path.name}:{node.lineno} op name is not a literal"
                names.add(op.value)
    return names


# checks of composites of recorded ops, registered under a name no op records
COMPOSITE_CHECKS = {"gcn_layer", "gcn_layer_rank1", "cross_entropy_softmax"}


def test_every_recorded_op_has_a_check():
    names = _recorded_op_names()
    assert {"conv2d_bias_pool_relu", "spp_max_pool", "cross_entropy"} <= names
    missing = sorted(n for n in names if CHECK_NAME.get(n, n) not in OP_CHECKS)
    assert not missing, f"ops without a gradcheck entry: {missing}"
    # and no check outlives its op
    stale = sorted(set(OP_CHECKS) - names - COMPOSITE_CHECKS)
    assert not stale, f"gradcheck entries for ops nothing records: {stale}"
