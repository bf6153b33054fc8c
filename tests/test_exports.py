"""The public packages export exactly their listed names.

Each package's __all__ is pinned, so a deleted function cannot linger as a
stale export, and the package namespace must hold nothing public beyond
__all__, so a deleted name cannot linger as an unlisted import either.
"""

import importlib
import inspect
import types

import pytest

EXPORTS = {
    "bsmg": [
        "BSParams", "BrittonNormalForm", "GroupWord", "__version__",
        "classify_isomorphism", "commutator", "is_amenable", "is_elliptic",
        "is_identity", "modular_hom", "normalize", "same_element",
    ],
    "bsmg.groupoid": [
        "ErgodicDecomposition", "FiniteMeasuredGroupoid", "PartialIso",
        "QNClass", "Subgroupoid", "WitnessReport", "arrows_within",
        "check_group_action_quotient", "check_word_cocycle",
        "coset_classes", "find_invariant_vertex_map",
        "index", "index_of_pair", "induce_finite_invariant_set",
        "local_index", "local_index_of_pair", "qn_membership", "quotient",
        "restrict", "validate", "whole",
        "witness_family",
    ],
    "bsmg.cocycle": [
        "BSLevelModel", "GroupoidCocycle", "MackeyRange", "QPos",
        "TypeLabel", "ZAdd", "ZModAdd", "classify_type", "coboundary",
        "cohomologous", "flow_type", "level_sizes",
        "mackey_range", "mackey_range_int", "modular_pair", "one_loop_model",
        "power_exponents", "radon_nikodym", "ranges_isomorphic",
        "scaled_product_model", "transfer_matches",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_exports_are_exactly_the_listed_names(name):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == EXPORTS[name]
    assert len(module.__all__) == len(set(module.__all__))
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_nothing_public_hides_outside_all(name):
    module = importlib.import_module(name)
    public = {attr for attr, value in vars(module).items()
              if not attr.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - set(module.__all__) == set()


def test_witness_classes_and_action_constructor():
    from bsmg.groupoid import FiniteMeasuredGroupoid, QNClass

    assert [c.name for c in QNClass] == ["NORMALIZING", "QUASI_NORMALIZING"]
    assert list(inspect.signature(
        FiniteMeasuredGroupoid.from_group_action).parameters) == \
        ["action_gens", "masses", "bound"]
