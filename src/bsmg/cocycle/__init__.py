"""Cocycles on finite measured groupoids and their modular invariants.

The names below are loaded from their submodule on first access (PEP 562),
so importing one submodule does not compile the others.
"""

from importlib import import_module as _import_module

# exported name -> the submodule that defines it
_SOURCE = {
    "cohomologous": "core",
    "modular_pair": "core",
    "radon_nikodym": "core",
    "transfer_matches": "core",
    "BSLevelModel": "levelmodel",
    "level_sizes": "levelmodel",
    "MackeyRange": "mackey",
    "TypeLabel": "mackey",
    "classify_type": "mackey",
    "flow_type": "mackey",
    "mackey_range": "mackey",
    "mackey_range_int": "mackey",
    "one_loop_model": "mackey",
    "power_exponents": "mackey",
    "ranges_isomorphic": "mackey",
    "scaled_product_model": "mackey",
    "GroupoidCocycle": "values",
    "QPos": "values",
    "ZAdd": "values",
    "ZModAdd": "values",
    "coboundary": "values",
}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
