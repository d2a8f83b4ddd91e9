"""The package's public surface: every exported name resolves, and no
module keeps a switch that a ``global`` statement flips."""

import ast
from pathlib import Path

import pndnet


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
