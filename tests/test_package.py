"""The package's public surface: every exported name resolves, no module
keeps a switch that a ``global`` statement flips, and the names and counts
that perfbench's tracer and gates read hold."""

import ast
import importlib
import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pndnet
from pndnet import tensor as T
from pndnet.graph import PROPAGATION_MACS
from pndnet.model import PNDNet, baseline_config
from pndnet.tensor import Rng, Tensor

from conftest import tiny_model_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in pndnet.__all__ if not hasattr(pndnet, name)]
    assert missing == []
    assert len(set(pndnet.__all__)) == len(pndnet.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pndnet import *", namespace)
    assert set(pndnet.__all__) <= set(namespace)


def test_no_module_rebinds_a_global():
    # process-wide switches reach every thread; per-thread state lives in contextvars
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(pndnet.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert found == []


def _perfbench_module(name: str, patch):
    """Runs perfbench/<name>.py as a module, writing nothing under perfbench/;
    ``patch`` undoes its registration in ``sys.modules``."""
    patch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _perfbench_tracing():
    with pytest.MonkeyPatch.context() as patch:
        return _perfbench_module("tracing", patch)


@pytest.fixture(scope="module")
def perfbench_bench():
    with pytest.MonkeyPatch.context() as patch:
        # bench.py imports its sibling by the bare name ``tracing``
        patch.setitem(sys.modules, "tracing", _perfbench_module("tracing", patch))
        return _perfbench_module("bench", patch)


def test_every_name_perfbench_wraps_resolves():
    # perfbench's traced run is the only other check, and it cannot run offline
    missing = []
    for short, cls_name, attr in _perfbench_tracing().EXTRA:
        mod = importlib.import_module(f"pndnet.{short}")
        owner = vars(mod) if cls_name is None else vars(getattr(mod, cls_name, object))
        if not inspect.isfunction(owner.get(attr)):
            missing.append((short, cls_name, attr))
    assert missing == []


def test_grad_flag_perfbench_reads_is_the_calling_threads():
    seen = {}
    with T.no_grad():
        seen["inside"] = T._GRAD_ENABLED
        other = threading.Thread(target=lambda: seen.setdefault("other thread", T._GRAD_ENABLED))
        other.start()
        other.join()
    assert seen == {"inside": False, "other thread": True}
    assert T._GRAD_ENABLED is True


@pytest.mark.parametrize("cfg", [
    tiny_model_config(), tiny_model_config(use_rank1=True), tiny_model_config(gcn_layers=0),
    tiny_model_config(gcn_layers=1, gcn_width=24), tiny_model_config(use_rank1=True, gcn_width=24),
    tiny_model_config(use_spp=False), tiny_model_config(use_spp=False, use_regions=False),
    baseline_config(tiny_model_config()),
], ids=["tiny", "rank1", "gcn0", "gcn1-width24", "rank1-width24", "regions", "one-node",
        "baseline"])
def test_forward_counts_the_propagation_macs_perfbench_expects(perfbench_bench, cfg):
    # perfbench gates every traced forward on this count, and that run cannot run offline
    model = PNDNet(cfg, 4, Rng(0))
    image = Tensor(Rng(1).uniform(-80, 80, (32, 32, 3)).astype(np.float32))
    before = PROPAGATION_MACS.macs
    model.forward(image)
    assert PROPAGATION_MACS.macs - before == perfbench_bench.expected_propagation_macs(cfg)
