"""Every name a module exports through __all__ must exist."""

import importlib
import pkgutil

import mahlerlab


def test_every_exported_name_resolves():
    modules = [mahlerlab] + [
        importlib.import_module(f"mahlerlab.{info.name}")
        for info in pkgutil.iter_modules(mahlerlab.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []
