"""Every name a covspectrum module lists in ``__all__`` must exist.

``from covspectrum.x import *`` and tools that walk ``__all__`` (such as
perfbench's tracer, which skips a missing name silently) rely on it.
"""

import importlib
import pkgutil

import pytest

import covspectrum

MODULES = ["covspectrum"] + [
    f"covspectrum.{info.name}" for info in pkgutil.iter_modules(covspectrum.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
