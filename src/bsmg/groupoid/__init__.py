"""Finite measured groupoids: structure, pseudogroup, quotients."""

from .core import (ErgodicDecomposition, FiniteMeasuredGroupoid, Subgroupoid,
                   index, index_of_pair, local_index, local_index_of_pair,
                   restrict, validate, whole)
from .pseudogroup import (PartialIso, QNClass, WitnessReport, arrows_within,
                          coset_classes, qn_membership, witness_family)
from .quotient import (check_group_action_quotient, check_word_cocycle,
                       find_invariant_vertex_map, induce_finite_invariant_set,
                       quotient, quotient_modulus)

__all__ = [
    "ErgodicDecomposition", "FiniteMeasuredGroupoid", "Subgroupoid",
    "index", "index_of_pair", "local_index", "local_index_of_pair",
    "restrict", "validate", "whole",
    "PartialIso", "QNClass", "WitnessReport", "arrows_within",
    "coset_classes", "qn_membership", "witness_family",
    "check_group_action_quotient", "check_word_cocycle",
    "find_invariant_vertex_map", "induce_finite_invariant_set",
    "quotient", "quotient_modulus",
]
