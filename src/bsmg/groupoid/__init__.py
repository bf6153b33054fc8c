"""Finite measured groupoids: structure, pseudogroup, quotients.

The names below are loaded from their submodule on first access (PEP 562),
so importing one submodule does not compile the others.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# exported name -> the submodule that defines it
_SOURCE = {
    "ErgodicDecomposition": "core",
    "FiniteMeasuredGroupoid": "core",
    "Subgroupoid": "core",
    "index": "core",
    "index_of_pair": "core",
    "local_index": "core",
    "local_index_of_pair": "core",
    "restrict": "core",
    "validate": "core",
    "whole": "core",
    "PartialIso": "pseudogroup",
    "QNClass": "pseudogroup",
    "WitnessReport": "pseudogroup",
    "arrows_within": "pseudogroup",
    "coset_classes": "pseudogroup",
    "qn_membership": "pseudogroup",
    "witness_family": "pseudogroup",
    "check_group_action_quotient": "quotient",
    "check_word_cocycle": "quotient",
    "find_invariant_vertex_map": "quotient",
    "induce_finite_invariant_set": "quotient",
    "quotient": "quotient",
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


class _Package(_ModuleType):
    """Loading a submodule binds it on its package, and the submodule
    quotient shares its name with the function quotient: the binding is
    dropped, so the name keeps meaning the function."""

    def __setattr__(self, name, value):
        if not (name in _SOURCE and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
