"""Every name a ``repro`` module lists in ``__all__`` resolves on that module."""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    dangling = []
    modules = 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        modules += 1
        dangling.extend(
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        )
    assert modules > 1
    assert not dangling, f"names in __all__ that do not resolve: {dangling}"
