import copy
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from bsmg.cocycle.levelmodel import (
    BSLevelModel,
    level_sizes,
)
from bsmg.cocycle.mackey import scaled_product_model
from bsmg.cocycle.values import GroupoidCocycle, QPos
from bsmg.errors import (BsmgError, ClosureTooLarge, EmptySet, GroupTooLarge,
                         ParamMismatch, UnknownArrow, UnknownUnit)
from bsmg.groupoid.core import (
    ErgodicDecomposition,
    FiniteMeasuredGroupoid,
    Subgroupoid,
    certificate,
    composable_pairs,
    index,
    index_of_pair,
    local_index,
    local_index_of_pair,
    restrict,
    validate,
    whole,
)
from bsmg.groupoid.pseudogroup import arrows_within, coset_classes
from bsmg.groupoid.quotient import quotient
from bsmg.groupoid.randomgen import (identity_index, random_action_instance,
                                     random_groupoid, random_partition_tower,
                                     random_subgroup, random_wide_subgroupoid,
                                     subgroup_arrow_ids, subgroup_closure)
from bsmg.words import BSParams
from oracles import (
    arrows_from,
    arrows_into,
    certify_pair,
    conditional_mass,
    doc_json,
    endpoint_map,
    label_product,
    left_class_count,
    level_label_normalizer,
    mass_transport_sum,
    product_violations,
    restricted_ids,
    seed_maps,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def swap_window():
    """Two units joined by a single pair of mutually inverse arrows."""
    return FiniteMeasuredGroupoid.window(
        [HALF, HALF], [(0, 1, "f"), (1, 0, "f'")], [(0, 1)]
    )


def z3_action():
    return FiniteMeasuredGroupoid.from_group_action([(1, 2, 0)])


def s3_action():
    return FiniteMeasuredGroupoid.from_group_action([(1, 0, 2), (1, 2, 0)])


def element_arrows(G, element_indices):
    members = set(element_indices)
    return [g for g in range(G.n_arrows) if G.labels[g][1] in members]


class TestConstruction:
    def test_unit_loops_enforced(self):
        with pytest.raises(ValueError):
            FiniteMeasuredGroupoid(
                [0, 1], [HALF, HALF], [0, 0], [0, 1], [0, 1], ["e", "e"], None
            )

    def test_positive_masses(self):
        with pytest.raises(ValueError):
            FiniteMeasuredGroupoid.window([1, 0], [], [])

    def test_normalizer_conflict_rejected(self):
        with pytest.raises(ValueError):
            FiniteMeasuredGroupoid.from_partial_isos(
                3, [{0: 1}, {0: 2}], label_normalizer=lambda word: ()
            )


class TestWindow:
    def test_swap_is_valid(self):
        G = swap_window()
        assert G.n_units == 2
        assert G.n_arrows == 4
        assert validate(G) == []
        assert G.measure_preserving
        # windows never claim completeness, even when every product happens
        # to be derivable
        assert not G.product_complete

    def test_automatic_products(self):
        G = swap_window()
        f, f_inv = 2, 3
        assert G.inv[f] == f_inv
        assert G.product(f_inv, f) == G.unit_arrow(0)
        assert G.product(f, f_inv) == G.unit_arrow(1)
        assert G.product(f, G.unit_arrow(0)) == f
        assert G.product(G.unit_arrow(1), f) == f
        assert G.product(f, f) is None  # not composable

    def test_partial_window_refuses_closure_checks(self):
        G = FiniteMeasuredGroupoid.window(
            [THIRD, THIRD, THIRD],
            [(0, 1, "f"), (1, 0, "f'"), (1, 2, "g"), (2, 1, "g'")],
            [(0, 1), (2, 3)],
        )
        assert not G.product_complete
        assert validate(G) == []
        # g . f is outside the window, so counting classes against {g, g'}
        # runs into an undefined product; each caller names itself
        with pytest.raises(ValueError,
                           match="^index needs a complete product$"):
            index(G, [5, 6], 0)
        with pytest.raises(ValueError,
                           match="^coset classes need a complete product$"):
            coset_classes(G, [5, 6], 0)
        with pytest.raises(ValueError,
                           match="^quotient needs a complete product$"):
            quotient(G, [5, 6])

    def test_claimed_completeness_is_checked(self):
        G = FiniteMeasuredGroupoid.window(
            [THIRD, THIRD, THIRD],
            [(0, 1, "f"), (1, 0, "f'"), (1, 2, "g"), (2, 1, "g'")],
            [(0, 1), (2, 3)],
        )
        doc = G.to_doc()
        doc["product_complete"] = True
        H = FiniteMeasuredGroupoid.from_doc(doc)
        assert any("missing product" in line for line in validate(H))

    def test_explicit_products_and_rn(self):
        # one unit, an rn-2 loop d with its inverse, d2 = d . d by hand
        G = FiniteMeasuredGroupoid.window(
            [1],
            [(0, 0, "d"), (0, 0, "d'"), (0, 0, "d2"), (0, 0, "d2'")],
            [(0, 1), (2, 3)],
            products={(0, 0): 2, (1, 1): 3, (2, 1): 0, (1, 2): 0,
                      (3, 0): 1, (0, 3): 1},
            rn_values=[2, HALF, 4, Fraction(1, 4)],
        )
        assert G.rn_values[0] == 1
        assert G.rn_values[1] == 2
        assert G.rn_values[2] == HALF
        assert G.rn_values[3] == 4
        assert G.product(1, 1) == 3  # d . d = d2
        assert G.product(3, 3) is None  # d2 . d2 is beyond the window


class TestGroupAction:
    def test_z3_shape(self):
        G = z3_action()
        assert G.n_units == 3
        assert G.n_arrows == 9
        assert validate(G) == []
        assert G.measure_preserving
        assert len(G.group_elements) == 3
        assert G.group_elements[0] == (0, 1, 2)

    def test_arrow_layout(self):
        G = z3_action()
        for ei, perm in enumerate(G.action_perms):
            for x in range(3):
                g = ei * 3 + x
                assert G.src[g] == x
                assert G.rng[g] == perm[x]
                assert G.labels[g] == ("g", ei)

    def test_product_follows_composition(self):
        G = s3_action()
        assert validate(G) == []
        for g in range(G.n_arrows):
            for h in range(G.n_arrows):
                if G.src[g] != G.rng[h]:
                    continue
                k = G.product(g, h)
                ei, ej = G.labels[g][1], G.labels[h][1]
                pi, pj = G.action_perms[ei], G.action_perms[ej]
                assert G.rng[k] == pi[pj[G.src[h]]]

    def test_mass_transport(self):
        G = s3_action()
        values = [Fraction(g + 1, 7) for g in range(G.n_arrows)]
        assert mass_transport_sum(G, values) == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            FiniteMeasuredGroupoid.from_group_action([(0, 0, 1)])

    @pytest.mark.parametrize("gens, bound", [
        ([(0, 1, 2)], 0), ([(1, 2, 0)], 0), ([(1, 2, 0)], 2),
        ([(1, 0, 2), (1, 2, 0)], 5)])
    def test_a_group_above_the_bound_is_refused(self, gens, bound):
        with pytest.raises(GroupTooLarge):
            FiniteMeasuredGroupoid.from_group_action(gens, bound=bound)


class TestRandomActionInstance:
    @pytest.mark.parametrize("max_units, max_arrows", [(3, 3), (1, 240),
                                                       (10, 0)])
    def test_too_small_a_budget_is_refused_before_any_draw(self, max_units,
                                                           max_arrows):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="at least 2 units and 4 arrows"):
            random_action_instance(rng, max_units=max_units,
                                   max_arrows=max_arrows)
        assert rng.getstate() == state

    def test_the_smallest_budget_gives_z2_on_two_units(self):
        G = random_action_instance(random.Random(5), max_units=3,
                                   max_arrows=4)
        assert (G.n_units, G.n_arrows) == (2, 4)


class TestSubgroupClosure:
    @staticmethod
    def fixpoint(G, gens):
        """The subgroup by brute force: the identity and the generators,
        then products of every two members until nothing new appears."""
        multiply = certificate(G).multiply
        members = {identity_index(G), *gens}
        while True:
            grown = members | {multiply(i, j) for i in members
                               for j in members}
            if grown == members:
                return frozenset(members)
            members = grown

    def test_matches_the_brute_force_fixpoint(self):
        rng = random.Random(21)
        for _ in range(40):
            G = random_action_instance(rng, max_units=8, max_arrows=200)
            order = len(G.group_elements)
            for n_gens in range(3):
                gens = [rng.randrange(order) for _ in range(n_gens)]
                assert subgroup_closure(G, gens) == self.fixpoint(G, gens)

    def test_no_generators_give_the_trivial_subgroup(self):
        G = random_action_instance(random.Random(5), max_units=3,
                                   max_arrows=4)
        assert subgroup_closure(G, []) == {identity_index(G)}


class TestRandomGroupoid:
    def test_default_bounds_draw_what_they_always_drew(self):
        # recorded before partition towers were held to max_arrows; every
        # default draw is on at most 12 <= isqrt(400) units
        h = hashlib.sha256()
        for seed in range(200):
            h.update(doc_json(random_groupoid(random.Random(seed))).encode())
        assert h.hexdigest() == (
            "5fcddf00cc1488c92f17c20a23875658cbde345e270852b3f591f2982cd0dfe6")

    @pytest.mark.parametrize("max_arrows", [4, 5, 9, 30])
    def test_every_draw_keeps_to_max_arrows(self, max_arrows):
        for seed in range(40):
            G = random_groupoid(random.Random(seed), max_units=8,
                                max_arrows=max_arrows)
            assert G.n_arrows <= max_arrows

    @pytest.mark.parametrize("max_arrows", [3, 0, -1])
    def test_too_small_a_budget_is_refused_before_any_draw(self, max_arrows):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="at least 4 arrows"):
            random_groupoid(rng, max_arrows=max_arrows)
        assert rng.getstate() == state


class TestPartialIsos:
    def test_two_step_ladder(self):
        G = FiniteMeasuredGroupoid.from_partial_isos(3, [{0: 1}, {1: 2}])
        assert G.n_arrows == 9
        assert validate(G) == []
        dec = ErgodicDecomposition(G)
        assert dec.n_components == 1

    def test_recurrent_seed_blows_up(self):
        with pytest.raises(ClosureTooLarge):
            FiniteMeasuredGroupoid.from_partial_isos(2, [{0: 1, 1: 0}], bound=50)

    def test_normalizer_closes_recurrent_seed(self):
        def mod2(word):
            return ((1,) * (sum(1 if s > 0 else -1 for s in word) % 2)) or ()

        G = FiniteMeasuredGroupoid.from_partial_isos(
            2, [{0: 1, 1: 0}], label_normalizer=mod2
        )
        assert G.n_arrows == 4
        assert validate(G) == []


class TestSubgroupoid:
    def test_generated_closure(self):
        G = s3_action()
        # index of the transposition fixing unit 2, seeded at source 0 only
        swap = G.action_perms.index((1, 0, 2))
        H = Subgroupoid.generated_by(G, [swap * 3 + 0])
        assert len(H) == 5
        assert swap * 3 + 0 in H
        assert swap * 3 + 1 in H
        assert swap * 3 + 2 not in H

    @pytest.mark.parametrize("bad", [18, 100, -1])
    def test_generated_by_rejects_unknown_arrows(self, bad):
        G = s3_action()
        assert G.n_arrows == 18
        with pytest.raises(UnknownArrow, match=f"arrow {bad} ") as exc:
            Subgroupoid.generated_by(G, [0, bad])
        assert isinstance(exc.value, BsmgError)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("bad", [18, 100, -1])
    def test_ids_outside_the_arrows_are_refused(self, bad, check):
        G = s3_action()
        with pytest.raises(UnknownArrow, match=rf"^arrow {bad} is not one of "
                           r"the 18 arrows of the groupoid$"):
            Subgroupoid(G, [3, bad], check=check)

    def test_a_negative_id_is_not_read_as_the_last_arrow(self):
        # -1 once named arrow 5, the swap's loop at unit 2, and the index
        # read [2, 2, 1]
        G = FiniteMeasuredGroupoid.from_group_action([(1, 0, 2)])
        with pytest.raises(UnknownArrow, match="^arrow -1 "):
            Subgroupoid(G, [-1], check=False)
        units = Subgroupoid(G, [], check=False)
        assert [index(G, units, x) for x in range(G.n_units)] == [2, 2, 2]

    # a plain id collection once read -1 as arrow 5 ([2, 2, 1], [(2, 5)],
    # {-1}) and ended in an untyped IndexError at 6
    @pytest.mark.parametrize("bad", [-1, 6])
    def test_plain_ids_outside_the_arrows_are_refused(self, bad):
        G = FiniteMeasuredGroupoid.from_group_action([(1, 0, 2)])
        assert G.n_arrows == 6
        refusal = rf"^arrow {bad} is not one of the 6 arrows of the groupoid$"
        for call in (lambda: index(G, [bad], 2),
                     lambda: index_of_pair(G, range(6), [bad], 2),
                     lambda: coset_classes(G, [bad], 2),
                     lambda: arrows_within(G, [bad], [0, 1, 2]),
                     lambda: ErgodicDecomposition(G, [0, bad])):
            with pytest.raises(UnknownArrow, match=refusal):
                call()
        assert [index(G, [], x) for x in range(3)] == [2, 2, 2]
        assert coset_classes(G, [], 2) == [(2,), (5,)]
        assert arrows_within(G, [0, 5], [0, 1, 2]) == {0, 5}

    def test_check_rejects_open_sets(self):
        G = s3_action()
        swap = G.action_perms.index((1, 0, 2))
        with pytest.raises(ValueError):
            Subgroupoid(G, [swap * 3 + 0])

    def test_whole(self):
        G = z3_action()
        assert whole(G).full()
        assert len(whole(G)) == G.n_arrows


class TestErgodicDecomposition:
    def test_transitive_action(self):
        G = s3_action()
        dec = ErgodicDecomposition(G)
        assert dec.is_ergodic()
        assert dec.masses == (Fraction(1),)
        assert conditional_mass(dec, 1) == THIRD

    def test_subgroup_components(self):
        G = s3_action()
        swap = G.action_perms.index((1, 0, 2))
        lam = element_arrows(G, [0, swap])
        dec = ErgodicDecomposition(G, lam)
        assert dec.n_components == 2
        assert dec.component(0) == (0, 1)
        assert dec.component(2) == (2,)
        assert dec.masses == (Fraction(2, 3), THIRD)

    def test_units_only(self):
        G = z3_action()
        dec = ErgodicDecomposition(G, range(G.n_units))
        assert dec.n_components == 3


class TestIndex:
    def test_transposition_subgroup(self):
        G = s3_action()
        swap = G.action_perms.index((1, 0, 2))
        lam = element_arrows(G, [0, swap])
        for x in range(3):
            assert index(G, lam, x) == 3

    def test_whole_has_index_one(self):
        G = s3_action()
        for x in range(3):
            assert index(G, whole(G), x) == 1
            assert local_index(G, range(G.n_arrows), x) == 1

    def test_local_index_fraction(self):
        G = s3_action()
        swap = G.action_perms.index((1, 0, 2))
        lam = element_arrows(G, [0, swap])
        assert local_index(G, lam, 0) == Fraction(2)
        assert local_index(G, lam, 2) == Fraction(1)

    def test_index_of_pair_nested(self):
        G = s3_action()
        swap = G.action_perms.index((1, 0, 2))
        lam = element_arrows(G, [0, swap])
        assert index_of_pair(G, lam, list(range(G.n_units)), 0) == 2
        # the local variant restricts to the sub-component of 0 first, and
        # the unit groupoid has singleton components
        assert local_index_of_pair(G, lam, range(G.n_units), 0) == Fraction(1)

    @pytest.mark.parametrize("call", [
        lambda m: index(m.groupoid, m.S, -1),
        lambda m: index(m.groupoid, m.S.sorted_ids(), 99),
        lambda m: local_index(m.groupoid, m.S, -1),
        lambda m: local_index(m.groupoid, m.S, 99),
        lambda m: index_of_pair(m.groupoid, range(m.groupoid.n_arrows),
                                m.S.ids, 5),
        lambda m: local_index_of_pair(m.groupoid, range(m.groupoid.n_arrows),
                                      m.S.ids, "0"),
        lambda m: coset_classes(m.groupoid, m.S, 5),
    ])
    def test_unknown_units_are_refused(self, call):
        m = BSLevelModel(BSParams(2, 3), 1, 0)
        assert m.groupoid.n_units == 5
        with pytest.raises(UnknownUnit, match="is not one of the 5 units"):
            call(m)

    def test_indices_refuse_a_subgroupoid_of_another_groupoid(self):
        m = BSLevelModel(BSParams(2, 3), 1, 0)
        GA = restrict(m.groupoid, [0, 1]).source
        with pytest.raises(ParamMismatch):
            index(GA, m.S, 4)
        with pytest.raises(ParamMismatch):
            local_index(GA, m.S, 0)
        with pytest.raises(UnknownUnit, match="unit 4 is not one of the 2"):
            index(GA, whole(GA), 4)
        assert [index(GA, whole(GA), x) for x in range(2)] == [1, 1]


class TestRestrict:
    def test_basic(self):
        G = s3_action()
        inc = restrict(G, [0, 1])
        sub = inc.source
        assert sub.n_units == 2
        assert inc.target is G and inc.units == (0, 1)
        assert validate(sub) == []
        assert sub.masses == (THIRD, THIRD)
        # six group elements, each contributing the arrows staying in {0,1}
        assert sub.n_arrows == sum(
            1 for g in range(G.n_arrows) if G.src[g] in (0, 1) and G.rng[g] in (0, 1)
        )
        for image, g in enumerate(inc.arrows):
            assert G.src[g] == inc.units[sub.src[image]]
            assert G.rng[g] == inc.units[sub.rng[image]]

    def test_empty_rejected(self):
        G = z3_action()
        with pytest.raises(EmptySet):
            restrict(G, [])

    def test_subgroupoid_rejected(self):
        G = z3_action()
        with pytest.raises(TypeError):
            restrict(whole(G), [0])


class TestSerialization:
    def test_round_trip_action(self):
        G = s3_action()
        doc = G.to_doc()
        H = FiniteMeasuredGroupoid.from_doc(doc)
        assert H.n_units == G.n_units
        assert H.n_arrows == G.n_arrows
        assert H.masses == G.masses
        assert H.src == G.src and H.rng == G.rng and H.inv == G.inv
        assert validate(H) == []
        for g in range(G.n_arrows):
            for h in range(G.n_arrows):
                if G.src[g] == G.rng[h]:
                    assert H.product(g, h) == G.product(g, h)

    def test_round_trip_rn(self):
        G = FiniteMeasuredGroupoid.window(
            [1], [(0, 0, "d"), (0, 0, "d'")], [(0, 1)],
            products={(0, 0): None, (1, 1): None},
            rn_values=[2, HALF],
        )
        H = FiniteMeasuredGroupoid.from_doc(json.loads(doc_json(G)))
        assert H.rn_values == G.rn_values

    def test_json_deterministic(self):
        G = s3_action()
        assert doc_json(G) == doc_json(s3_action())

    def test_validate_catches_broken_inverse(self):
        G = s3_action()
        doc = G.to_doc()
        doc["arrows"][5]["inverse"] = 6
        doc["arrows"][6]["inverse"] = 5
        H = FiniteMeasuredGroupoid.from_doc(doc)
        assert any("inverse" in line for line in validate(H))


def sampled_groupoids(count):
    """random_groupoid samples, each with its restriction to the even units
    and, through a document round trip, an explicit-product copy."""
    out = []
    for i in range(count):
        G = random_groupoid(random.Random(f"fiber-walk:{i}"))
        R = restrict(G, range(0, G.n_units, 2)).source
        E = FiniteMeasuredGroupoid.from_doc(G.to_doc())
        out += [G, R, E, restrict(E, range(0, G.n_units, 2))[0]]
    return out


def naive_pairs(G, ids):
    """Every composable pair of the ascending ids by the double loop."""
    return [(g, h, G.product(g, h)) for g in ids for h in ids
            if G.src[g] == G.rng[h]]


class TestComposablePairs:
    def test_matches_the_naive_double_loop(self):
        rng = random.Random("composable-pairs")
        level = BSLevelModel(BSParams(2, 3), 1, 0).groupoid
        for G in sampled_groupoids(8) + [swap_window(), level]:
            every = range(G.n_arrows)
            assert list(composable_pairs(G)) == naive_pairs(G, every)
            assert list(composable_pairs(G, every)) == naive_pairs(G, every)
            ids = random_wide_subgroupoid(rng, G).sorted_ids()
            want = naive_pairs(G, ids)
            # ids are walked ascending whatever order they come in
            for given in (ids, set(ids), frozenset(ids), ids[::-1]):
                assert list(composable_pairs(G, given)) == want

    def test_a_window_yields_its_undefined_products(self):
        G = FiniteMeasuredGroupoid.window(
            [THIRD] * 3, [(0, 1, "f"), (1, 0, "f'"), (1, 2, "g"), (2, 1, "g'")],
            [(0, 1), (2, 3)])
        pairs = list(composable_pairs(G))
        assert pairs == naive_pairs(G, range(G.n_arrows))
        # g.f is composable but lies outside the window
        assert (5, 3, None) in pairs


class TestFiberWalk:
    def test_fibers_match_a_full_scan(self):
        for G in sampled_groupoids(8):
            for x in range(G.n_units):
                assert list(G.source_fiber(x)) == arrows_from(G, x)
                assert list(G.range_fiber(x)) == arrows_into(G, x)

    def test_index_matches_the_definition(self):
        rng = random.Random("fiber-walk:index")
        for G in sampled_groupoids(8):
            if not G.product_complete:
                continue
            H = random_wide_subgroupoid(rng, G)
            for x in range(G.n_units):
                want = left_class_count(G, H.ids, x)
                assert index(G, H, x) == want
                assert index(G, H.sorted_ids(), x) == want
                assert index_of_pair(G, range(G.n_arrows), H.ids, x) == want

    def test_coset_classes_are_the_classes_index_counts(self):
        rng = random.Random("fiber-walk:cosets")
        for G in sampled_groupoids(8):
            if not G.product_complete:
                continue
            H = random_wide_subgroupoid(rng, G)
            for x in range(G.n_units):
                classes = coset_classes(G, H, x)
                assert len(classes) == \
                    index_of_pair(G, range(G.n_arrows), H, x) == \
                    left_class_count(G, H.ids, x)
                assert sorted(g for c in classes for g in c) == \
                    arrows_from(G, x)
                assert all(list(c) == sorted(c) for c in classes)

    def test_validate_finds_a_broken_associativity(self):
        doc = s3_action().to_doc()
        table = {(g, h): k for g, h, k in doc["products"]}
        src = [a["source"] for a in doc["arrows"]]
        rng = [a["range"] for a in doc["arrows"]]
        # send one composite to the other arrow with the same endpoints
        (g, h), k = next(((g, h), k) for (g, h), k in table.items()
                         if g >= 3 and h >= 3 and doc["arrows"][g]["inverse"] != h)
        twin = next(a for a in range(3, len(src))
                    if a != k and (src[a], rng[a]) == (src[k], rng[k]))
        table[(g, h)] = twin
        doc["products"] = [[g, h, k] for (g, h), k in table.items()]
        H = FiniteMeasuredGroupoid.from_doc(doc)
        problems = validate(H)
        assert any(line.startswith(f"associativity fails at ({g},{h},")
                   for line in problems)
        assert problems == product_violations(H)

    def test_validate_finds_wrong_endpoints(self):
        doc = s3_action().to_doc()
        g, h, k = next(row for row in doc["products"] if row[0] >= 3
                       and row[1] >= 3 and doc["arrows"][row[0]]["inverse"] != row[1])
        wrong = next(a for a in range(len(doc["arrows"]))
                     if doc["arrows"][a]["source"] != doc["arrows"][k]["source"])
        doc["products"] = [[a, b, wrong if (a, b) == (g, h) else c]
                           for a, b, c in doc["products"]]
        H = FiniteMeasuredGroupoid.from_doc(doc)
        problems = validate(H)
        assert f"product ({g},{h}) has wrong endpoints" in problems
        assert problems == product_violations(H)

    def test_validate_finds_non_multiplicative_rn(self):
        doc = scaled_product_model(Fraction(3, 2), 3).to_doc()
        assert validate(FiniteMeasuredGroupoid.from_doc(doc)) == []
        doc["rn"][4] = "5"
        H = FiniteMeasuredGroupoid.from_doc(doc)
        problems = validate(H)
        assert f"attached RN values not multiplicative at (4,{H.inv[4]})" \
            in problems
        assert problems == product_violations(H)


# sha256 of doc_json(G), product tables included, recorded from the
# all-arrow-pairs scans that the fiber walk replaced: it must give the same
# arrow ids and list the same products in the same order
GROWN_LEVEL_DIGESTS = {
    (2, 3, 1, 0): "84770147f90998e85287f722814d3fdd6a38a7f104acbbc009902c728c85ff86",
    (2, 3, 1, 1): "5ac6d1a62b8e4d9a19d405aeca5b3f6e1bbe793f27479cc4f53f9cc4c8410b9c",
    (2, -3, 1, 1): "928f72ecebf4eede1b93cd41601e64fecf6da4e5660834fc8802c64b7e917c7e",
    (4, 6, 1, 0): "75f293c2501d936748d7eab44edb67da73d9ef802bef0d2a5ef9ce8b9ac7304d",
}
SAMPLED_DIGEST = "e3555a30bde89e49ab98c0b4fbcf69ffb3f35631e9dae01570e3e6da8de3c165"


def doc_digest(G):
    return hashlib.sha256(doc_json(G).encode()).hexdigest()


class TestDocDigests:
    @pytest.mark.parametrize("p,q,k,l", sorted(GROWN_LEVEL_DIGESTS))
    def test_grown_level_model(self, p, q, k, l):
        params = BSParams(p, q)
        G = FiniteMeasuredGroupoid.from_partial_isos(
            sum(level_sizes(params, k, l)), seed_maps(params, k, l),
            label_normalizer=level_label_normalizer(params, k, l))
        assert doc_digest(G) == GROWN_LEVEL_DIGESTS[(p, q, k, l)]

    def test_samples_and_restrictions(self):
        digests = "".join(doc_digest(G) for G in sampled_groupoids(8))
        assert hashlib.sha256(digests.encode()).hexdigest() == SAMPLED_DIGEST

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1)])
    def test_direct_level_model_round_trips(self, k, l):
        # labels ("a", m), ("t", j, i), ("T", j, i) render as tag + indices
        G = BSLevelModel(BSParams(2, 3), k, l).groupoid
        text = doc_json(G)
        assert doc_json(FiniteMeasuredGroupoid.from_doc(json.loads(text))) == text
        rendered = {G.label_text(g) for g in range(G.n_arrows)}
        assert {"e", "a1", "t0,0", "T0,0", "t1,1", "T1,1"} <= rendered


# -- the certified pair-groupoid fast path ------------------------------------

PAIR_LEVELS = [((2, 3), (1, 1)), ((2, 3), (2, 1)), ((2, -3), (2, 1))]


def scanned(G):
    """A copy of G whose certificate reads "not certified", so validate,
    index and GroupoidCocycle.check on it take the fiber scan, and product
    on an action groupoid is the reference product composed from the labels
    (label_product)."""
    twin = copy.copy(G)
    twin._certificate = None
    if hasattr(G, "group_elements"):
        twin._compose = label_product(G, G.group_elements)
    return twin


def rebuilt(G, *, masses=None, rn_values=None):
    """The pair groupoid G with its masses or RN values replaced, built
    certified by principal with the components the oracle derives
    (certify_pair), and nothing cached."""
    pmap = endpoint_map(G)
    return FiniteMeasuredGroupoid.principal(
        G.unit_names, masses or G.masses, G.src, G.rng, G.inv, G.labels, pmap,
        components=certify_pair(G, pmap).component_of, rn_values=rn_values)


def uncertified(names, masses, src, rng, inv, labels, pair_map):
    """The groupoid of these arrays built by the constructor with the pair
    compose g . h = pair_map(s(h), r(g)): nothing is stated, so validate and
    the rest take the fiber scan whatever the arrays are."""
    return FiniteMeasuredGroupoid(names, masses, src, rng, inv, labels,
                                  lambda g, h: pair_map(src[h], rng[g]))


def pair_window(n, pairs):
    """The groupoid on n uniform units with the unit loops and one arrow per
    listed (source, range) pair, composed by endpoints and not certified
    (uncertified)."""
    ends = [(x, x) for x in range(n)] + list(pairs)
    ids = {e: g for g, e in enumerate(ends)}
    return uncertified(
        range(n), [Fraction(1, n)] * n, [s for s, _ in ends],
        [r for _, r in ends], [ids[(r, s)] for s, r in ends],
        [f"{s}>{r}" for s, r in ends], lambda s, r: ids.get((s, r)))


def pair_samples():
    """Level models, their restrictions and random partition groupoids with
    their restrictions to the even units: all pair groupoids."""
    out = []
    for (p, q), (k, l) in PAIR_LEVELS:
        G = BSLevelModel(BSParams(p, q), k, l).groupoid
        out += [G, restrict(G, range(0, G.n_units, 3))[0]]
    for i in range(8):
        G = random_groupoid(random.Random(f"fiber-walk:{i}"))
        if not hasattr(G, "group_elements"):
            out += [G, restrict(G, range(0, G.n_units, 2)).source]
    return out


class TestPairFastPath:
    def test_every_principal_sample_is_certified(self):
        samples = pair_samples()
        assert len(samples) > 10
        for G in samples:
            cert = certificate(G)
            assert cert.kind == "pair"
            assert cert.component_of == ErgodicDecomposition(G).component_of
            assert certificate(G) is cert
            assert G.measure_preserving == scanned(G).measure_preserving
        assert certificate(s3_action()).kind == "action"
        assert certificate(swap_window()) is None

    def test_validate_and_index_agree_with_the_scan(self):
        rng = random.Random("pair-fast-path:index")
        for G in pair_samples():
            assert validate(G) == validate(scanned(G)) == []
            for H in (random_wide_subgroupoid(rng, G), whole(G),
                      Subgroupoid(G, (), check=False)):
                assert [index(G, H, x) for x in range(G.n_units)] == [
                    index_of_pair(G, range(G.n_arrows), H, x)
                    for x in range(G.n_units)]

    @pytest.mark.parametrize("pq,kl", PAIR_LEVELS)
    def test_level_model_index_is_two(self, pq, kl):
        model = BSLevelModel(BSParams(*pq), *kl)
        G = model.groupoid
        assert [index(G, model.S, x) for x in range(G.n_units)] == [
            index_of_pair(G, range(G.n_arrows), model.S, x)
            for x in range(G.n_units)] == [2] * G.n_units

    def test_a_sub_that_is_not_inverse_closed_takes_the_scan(self):
        model = BSLevelModel(BSParams(2, 3), 1, 1)
        G = model.groupoid
        one_way = Subgroupoid(G, [model.pair_to_id(3, 4)], check=False)
        counts = [index(G, one_way, x) for x in range(G.n_units)]
        assert counts == [index_of_pair(G, range(G.n_arrows), one_way, x)
                          for x in range(G.n_units)]
        # units 3 and 4 share a component of the sub's arrows, so a count of
        # components would give n_units - 1; the scan's left orbits do not
        assert counts != [G.n_units - 1] * G.n_units

    def test_swapped_inverse_fails_the_certificate(self):
        model = BSLevelModel(BSParams(2, 3), 1, 1)
        G = model.groupoid
        inv = list(G.inv)
        a, b = G.n_units, G.n_units + 1
        inv[a], inv[b] = inv[b], inv[a]
        H = uncertified(G.unit_names, G.masses, G.src, G.rng, inv, G.labels,
                        model.pair_to_id)
        assert certify_pair(H, model.pair_to_id) is None
        assert certificate(H) is None
        problems = validate(H)
        assert f"inverse of arrow {a} is not an involution" in problems
        assert problems == validate(scanned(H))

    def test_wrong_principal_arrow_fails_the_certificate(self):
        model = BSLevelModel(BSParams(2, 3), 1, 1)
        G = model.groupoid
        pmap = model.pair_to_id
        wrong = pmap(2, 5)

        def skewed(s, r):
            return wrong if (s, r) == (1, 6) else pmap(s, r)

        H = uncertified(G.unit_names, G.masses, G.src, G.rng, G.inv, G.labels,
                        skewed)
        assert certify_pair(H, skewed) is None
        assert certificate(H) is None
        problems = validate(H)
        assert any(line.endswith("has wrong endpoints") for line in problems)
        assert problems == validate(scanned(H))

    # without 0 <-> 2 the lowest unit reachable from 2 is 1, not 0; without
    # 1 <-> 2 it is 0 for every unit of the block, and only the count of
    # pairs shows the gap
    @pytest.mark.parametrize("gone", [(0, 2), (1, 2)])
    def test_a_missing_pair_fails_the_certificate(self, gone):
        blocks = [[0, 1, 2], [3, 4]]
        pairs = [(s, r) for b in blocks for s in b for r in b if s != r]
        full = pair_window(5, pairs)
        assert certify_pair(full, endpoint_map(full)) is not None
        short = pair_window(5, [e for e in pairs
                                if e not in (gone, gone[::-1])])
        assert certify_pair(short, endpoint_map(short)) is None
        assert certificate(short) is None
        problems = validate(short)
        assert any(line.startswith("missing product") for line in problems)
        assert problems == validate(scanned(short)) == product_violations(short)

    def test_a_path_with_the_right_pair_count_fails_the_certificate(self):
        # the path 3 - 0 - 1 - 2 has 10 arrows, as many as the blocks {0, 1,
        # 3} and {2} of lowest reachable units hold pairs; the arrow 1 -> 2
        # crosses the blocks
        path = pair_window(4, [(0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 1)])
        assert certify_pair(path, endpoint_map(path)) is None
        assert certificate(path) is None
        problems = validate(path)
        assert any(line.startswith("missing product") for line in problems)
        assert problems == validate(scanned(path)) == product_violations(path)

    def test_rn_values_certify_through_a_potential(self):
        model = BSLevelModel(BSParams(2, 3), 1, 1)
        G = model.groupoid
        psi = [Fraction(x + 1, 2 * x + 3) for x in range(G.n_units)]
        rn = [psi[G.rng[g]] / psi[G.src[g]] for g in range(G.n_arrows)]
        assert validate(rebuilt(G, rn_values=rn)) == []
        assert validate(scanned(rebuilt(G, rn_values=rn))) == []
        g = model.pair_to_id(2, 7)
        rn[g] *= 3
        H = rebuilt(G, rn_values=rn)
        assert certificate(H) is not None
        problems = validate(H)
        assert f"attached RN values not multiplicative at ({g},{G.inv[g]})" \
            in problems
        assert problems == validate(scanned(H))

    def test_measure_preserving_compares_within_components(self):
        G = BSLevelModel(BSParams(2, 3), 1, 1).groupoid
        assert G.measure_preserving
        # constant on each component but not across: still preserved
        split = pair_window(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        split = rebuilt(split, masses=[Fraction(1, 6)] * 2 + [Fraction(1, 3)] * 2)
        assert split.measure_preserving and scanned(split).measure_preserving
        skew = rebuilt(G, masses=[Fraction(2, 3 * G.n_units)]
                       + [Fraction(1, G.n_units)] * (G.n_units - 1))
        assert certificate(skew) is not None
        assert not skew.measure_preserving
        assert not scanned(skew).measure_preserving

    def test_the_fast_path_is_taken_on_a_level_model(self):
        """validate, the D and K checks and the index sweep on BS(2,3) at
        level (2,1) compose no arrows and make no pair scan: the
        certificate was stated with the model."""
        D, K = BSLevelModel(BSParams(2, 3), 2, 1).modular_cocycles()
        model = BSLevelModel(BSParams(2, 3), 2, 1)
        G = model.groupoid
        calls = Counter()
        compose = G._compose

        def counted(g, h):
            calls["compose"] += 1
            return compose(g, h)

        G._compose = counted
        for name in ("product", "source_fiber", "range_fiber"):
            method = getattr(G, name)

            def scan(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            setattr(G, name, scan)
        assert validate(G) == []
        GroupoidCocycle(G, QPos, D.values).check()
        GroupoidCocycle(G, QPos, K.values).check()
        assert [index(G, model.S, x) for x in range(G.n_units)] == [2] * 30
        assert calls["compose"] == 0
        assert (calls["product"], calls["source_fiber"],
                calls["range_fiber"]) == (0, 0, 0)


def sub_component(G, sub_ids, x):
    """The units joined to x by arrows of sub_ids, by a breadth-first walk."""
    seen, todo = {x}, [x]
    for y in todo:
        for g in arrows_from(G, y):
            if g in sub_ids and G.rng[g] not in seen:
                seen.add(G.rng[g])
                todo.append(G.rng[g])
    return sorted(seen)


def towers():
    """(G, K, H) with H <= K <= G: partition towers, and action groupoids
    with a random subgroup inside the closure of it and one more element."""
    rng = random.Random("local-index-towers")
    for _ in range(12):
        yield random_partition_tower(rng)
    for _ in range(12):
        G = random_action_instance(rng, max_units=8, max_arrows=240)
        lam = random_subgroup(rng, G)
        mid = subgroup_closure(
            G, sorted(lam) + [rng.randrange(len(G.group_elements))])
        yield G, subgroup_arrow_ids(G, mid), subgroup_arrow_ids(G, lam)


class TestLocalIndexAgainstTheRestriction:
    """[[ambient : sub]]_x counted in G equals the left-class count of the
    definition in the restriction of G to the sub-component of x."""

    def test_towers(self):
        values = Counter()
        for G, k_ids, h_ids in towers():
            units = set(range(G.n_units))
            for amb, sub in ((range(G.n_arrows), h_ids),
                             (range(G.n_arrows), k_ids), (k_ids, h_ids)):
                amb, sub = set(amb) | units, set(sub) | units
                for x in range(G.n_units):
                    inc = restrict(G, sub_component(G, sub, x))
                    want = left_class_count(
                        inc.source, restricted_ids(inc, sub),
                        inc.units.index(x),
                        ambient_ids=restricted_ids(inc, amb))
                    assert local_index_of_pair(G, amb, sub, x) == want
                    values[want] += 1
        assert sum(values.values()) > 400 and len(values) > 3
