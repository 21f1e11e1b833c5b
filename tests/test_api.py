import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import diagcat

MODULES = sorted(info.name for info in pkgutil.iter_modules(diagcat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"diagcat.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_cleanly():
    src = Path(diagcat.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import diagcat"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
