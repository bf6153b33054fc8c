"""Cocycles on finite measured groupoids and their modular invariants."""

from .core import (
    cohomologous,
    modular_pair,
    radon_nikodym,
    transfer_matches,
)
from .levelmodel import (
    BSLevelModel,
    level_label_normalizer,
    level_sizes,
    seed_maps,
)
from .mackey import (
    MackeyRange,
    TypeLabel,
    classify_type,
    flow_type,
    mackey_range,
    mackey_range_int,
    one_loop_model,
    power_exponents,
    ranges_isomorphic,
    scaled_product_model,
)
from .values import GroupoidCocycle, QPos, ZAdd, ZModAdd, coboundary

__all__ = [
    "BSLevelModel",
    "GroupoidCocycle",
    "MackeyRange",
    "QPos",
    "TypeLabel",
    "ZAdd",
    "ZModAdd",
    "classify_type",
    "coboundary",
    "cohomologous",
    "flow_type",
    "level_label_normalizer",
    "level_sizes",
    "mackey_range",
    "mackey_range_int",
    "modular_pair",
    "one_loop_model",
    "power_exponents",
    "radon_nikodym",
    "ranges_isomorphic",
    "scaled_product_model",
    "seed_maps",
    "transfer_matches",
]
