"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import qkd_keyrate

MODULES = ["qkd_keyrate"] + [
    f"qkd_keyrate.{info.name}" for info in pkgutil.iter_modules(qkd_keyrate.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
