"""The package's public surface: every exported name resolves."""

import pndnet


def test_every_exported_name_resolves():
    missing = [name for name in pndnet.__all__ if not hasattr(pndnet, name)]
    assert missing == []
    assert len(set(pndnet.__all__)) == len(pndnet.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pndnet import *", namespace)
    assert set(pndnet.__all__) <= set(namespace)
