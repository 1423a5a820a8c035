"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import qespair

MODULES = ["qespair"] + sorted(
    f"qespair.{info.name}" for info in pkgutil.iter_modules(qespair.__path__)
    if hasattr(importlib.import_module(f"qespair.{info.name}"), "__all__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

