"""Exact finite models for Baumslag-Solitar measured group theory.

Subpackages and modules:

- words: Britton normal forms, the modular homomorphism, isomorphism
  classification.
- tree: the coset tree, geodesics, translation lengths, stabilizer indices.
- groupoid: finite measured groupoids, pseudogroup witnesses, quotients.
- cocycle: value groups, the modular pair, level models, Mackey ranges and
  type classification.
- profinite: truncated inverse-limit arithmetic with explicit levels.
- dynamics: the coupling action, return-time cocycle, rotation and mixing
  diagnostics, component counting.

Everything computes with exact rationals; statistical routines document
their tolerances and take explicit seeds.
"""

from .words import (
    BSParams,
    BrittonNormalForm,
    GroupWord,
    classify_isomorphism,
    commutator,
    is_amenable,
    is_elliptic,
    is_identity,
    modular_hom,
    normalize,
    same_element,
)

__version__ = "0.1.0"

__all__ = [
    "BSParams",
    "BrittonNormalForm",
    "GroupWord",
    "classify_isomorphism",
    "commutator",
    "is_amenable",
    "is_elliptic",
    "is_identity",
    "modular_hom",
    "normalize",
    "same_element",
    "__version__",
]
