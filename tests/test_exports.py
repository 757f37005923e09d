"""Every exported name resolves, in the package and in each module, and
the package imports without scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy():
    # scipy is a test dependency only: the library and its CLI import
    # with numpy alone
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, qkd_keyrate, qkd_keyrate.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
