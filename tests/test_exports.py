"""Every name a module exports through __all__ must exist, and every
function has one binding in mahlerlab's modules: the one in its own module."""

import importlib
import pkgutil

import mahlerlab
from mahlerlab import precision


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


def test_sibling_functions_are_called_through_their_module():
    # a module reaches a sibling's function as module.function, so one
    # setattr on the defining module reaches every caller; only precision's
    # four fixed-point conversions, which nothing patches or traces, are
    # imported by name.  The package __init__'s re-exports are the public API
    conversions = {precision.to_fixed, precision.from_fixed, precision.fixed_ratio, precision.fixed_bits}
    copies = []
    for info in pkgutil.iter_modules(mahlerlab.__path__):
        module = importlib.import_module(f"mahlerlab.{info.name}")
        for name, value in vars(module).items():
            home = getattr(value, "__module__", None) or ""
            if (
                callable(value)
                and not isinstance(value, type)
                and home.startswith("mahlerlab.")
                and home != module.__name__
                and value not in conversions
            ):
                copies.append(f"{module.__name__}.{name} (from {home})")
    assert copies == []
