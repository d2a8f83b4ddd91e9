"""The package's public surface: every exported name resolves, no module
keeps a switch that a ``global`` statement flips, and the names that
perfbench's tracer wraps or reads exist."""

import ast
import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

import pndnet
from pndnet import tensor as T


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


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
