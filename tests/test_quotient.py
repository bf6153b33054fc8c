import random
from fractions import Fraction

import pytest

from bsmg.errors import IndexNotConstant, NotACocycle, NotNormal
from bsmg.groupoid.core import (ErgodicDecomposition, FiniteMeasuredGroupoid,
                                Subgroupoid, validate, whole)
from bsmg.groupoid.quotient import (
    check_group_action_quotient,
    check_word_cocycle,
    find_invariant_vertex_map,
    induce_finite_invariant_set,
    _class_partition,
    quotient,
)
from bsmg.groupoid.randomgen import (
    is_normal_subgroup,
    partition_groupoid,
    random_action_instance,
    random_groupoid,
    random_partition_tower,
    random_subgroup,
    random_wide_subgroupoid,
    relation_arrow_ids,
    subgroup_arrow_ids,
)
from bsmg import tree
from bsmg.words import BSParams, GroupWord
from oracles import two_sided_classes
from test_groupoid_core import element_arrows, s3_action, z3_action


def z4_action():
    return FiniteMeasuredGroupoid.from_group_action([(1, 2, 3, 0)])


class TestQuotient:
    def test_z4_by_half(self):
        G = z4_action()
        square = G.action_perms.index((2, 3, 0, 1))
        S = Subgroupoid(G, element_arrows(G, [0, square]))
        proj = quotient(G, S)
        _, Q, pi, theta = proj
        assert Q.n_units == 2
        assert Q.n_arrows == 4
        assert Q.masses == (Fraction(1, 2), Fraction(1, 2))
        assert validate(Q) == []
        assert pi == (0, 1, 0, 1)
        assert {g for g in range(G.n_arrows) if theta[g] < Q.n_units} == set(S.ids)
        assert check_group_action_quotient(S, proj)
        for alpha in range(Q.n_arrows):
            assert Q.masses[Q.rng[alpha]] / Q.masses[Q.src[alpha]] == 1

    def test_theta_multiplicative(self):
        G = z4_action()
        square = G.action_perms.index((2, 3, 0, 1))
        S = Subgroupoid(G, element_arrows(G, [0, square]))
        _, Q, _, theta = quotient(G, S)
        for g in range(G.n_arrows):
            for h in range(G.n_arrows):
                if G.src[g] == G.rng[h]:
                    assert theta[G.product(g, h)] == Q.product(theta[g], theta[h])

    def test_by_trivial_subgroupoid(self):
        G = z3_action()
        _, Q, pi, theta = quotient(G, range(G.n_units))
        assert Q.n_units == G.n_units
        assert Q.n_arrows == G.n_arrows
        assert pi == (0, 1, 2)
        assert validate(Q) == []

    def test_by_whole(self):
        G = s3_action()
        _, Q, pi, theta = quotient(G, whole(G))
        assert Q.n_units == 1
        assert Q.n_arrows == 1
        assert set(theta) == {0}

    def test_non_normal_rejected(self):
        G = s3_action()
        swap = G.action_perms.index((1, 0, 2))
        S = Subgroupoid(G, element_arrows(G, [0, swap]))
        # the witness is the first clash in the walk over composable pairs
        with pytest.raises(NotNormal, match=r"^product of classes \(4,3\) "
                           r"is not well defined \(witness arrows 8,10\)$"):
            quotient(G, S)


def normal_pairs(seed, count):
    """(G, S ids) with S normal in G: count action groupoids with the arrows
    of a normal subgroup, then count partition groupoids, each with the
    coarser and the finer relation of its tower (every sub-relation of a
    partition groupoid is normal)."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        G = random_action_instance(rng, max_units=8, max_arrows=240)
        lam = random_subgroup(rng, G)
        if is_normal_subgroup(G, lam):
            found += 1
            yield G, subgroup_arrow_ids(G, lam)
    for _ in range(count):
        G, K, H = random_partition_tower(rng)
        yield G, K
        yield G, H


class TestQuotientInvariants:
    """The two facts that spare quotient an endpoint check and a relabelling
    of its classes (the quotient module docstring proves both)."""

    def test_class_endpoints_are_constant(self):
        for G, s_ids in normal_pairs("quotient-invariants:ends", 40):
            comp = ErgodicDecomposition(G, sorted(s_ids)).component_of
            _, classes = _class_partition(G, s_ids)
            for members in classes:
                assert len({(comp[G.src[g]], comp[G.rng[g]])
                            for g in members}) == 1

    def test_unit_classes_carry_the_component_labels(self):
        for G, s_ids in normal_pairs("quotient-invariants:units", 40):
            comp = ErgodicDecomposition(G, sorted(s_ids)).component_of
            labels, _ = _class_partition(G, s_ids)
            assert [labels[G.unit_arrow(x)]
                    for x in range(G.n_units)] == list(comp)
            _, Q, pi, theta = quotient(G, s_ids)
            assert pi == comp
            assert [theta[G.unit_arrow(x)] for x in range(G.n_units)] == \
                list(pi)
            assert all(Q.src[theta[g]] == pi[G.src[g]]
                       and Q.rng[theta[g]] == pi[G.rng[g]]
                       for g in range(G.n_arrows))


class TestClassPartition:
    def test_matches_the_fixpoint_oracle(self):
        rng = random.Random("class-partition")
        for i in range(60):
            G = (random_groupoid if i % 3 else random_action_instance)(rng)
            for s_ids in (random_wide_subgroupoid(rng, G).ids,
                          range(G.n_units), range(G.n_arrows)):
                assert _class_partition(G, s_ids) == \
                    two_sided_classes(G, s_ids)

    def test_quotient_arrows_are_the_oracle_classes(self):
        rng = random.Random("quotient-classes")
        done = 0
        while done < 12:
            G = random_action_instance(rng, max_units=8, max_arrows=240)
            lam = random_subgroup(rng, G)
            if not is_normal_subgroup(G, lam):
                continue
            s_ids = subgroup_arrow_ids(G, lam)
            theta = quotient(G, Subgroupoid(G, s_ids, check=False)).arrows
            _, classes = two_sided_classes(G, s_ids)
            assert sorted(classes) == sorted(
                tuple(g for g in range(G.n_arrows) if theta[g] == c)
                for c in set(theta))
            done += 1

    def test_normal_subgroup_verdicts_match_the_definition(self):
        # Lam is normal iff g l g^-1 in Lam for all g, l, with products
        # composed from the permutations and g^-1 found by search over the
        # group rather than read off the inverse arrows
        rng = random.Random("normal-subgroups")
        normal = 0
        for _ in range(40):
            G = random_action_instance(rng, max_units=6, max_arrows=240)
            lam = random_subgroup(rng, G)
            elements, order = G.group_elements, len(G.group_elements)

            def mul(i, j):
                return elements.index(tuple(elements[i][x]
                                            for x in elements[j]))

            e = G.group_elements.index(tuple(range(G.n_units)))
            inv = {i: next(j for j in range(order) if mul(i, j) == e)
                   for i in range(order)}
            want = all(mul(mul(g, l), inv[g]) in lam
                       for g in range(order) for l in lam)
            assert is_normal_subgroup(G, lam) == want
            normal += want
        assert 0 < normal < 40


def chain_rho(G, words):
    """Coboundary word cocycle rho(g) = c(r(g)) c(s(g))^-1 on a principal
    groupoid."""
    return {
        g: words[G.rng[g]] * words[G.src[g]].inverse() for g in range(G.n_arrows)
    }


class TestWordCocycle:
    def test_coboundary_passes(self):
        params = BSParams(2, 3)
        G = partition_groupoid([Fraction(1, 3)] * 3, [(0, 1, 2)])
        words = [GroupWord.identity(), GroupWord.t(), GroupWord.t(-1)]
        rho = chain_rho(G, words)
        check_word_cocycle(G, range(G.n_arrows), rho, params)

    def test_broken_inverse_rejected(self):
        params = BSParams(2, 3)
        G = partition_groupoid([Fraction(1, 2)] * 2, [(0, 1)])
        rho = {g: GroupWord.identity() for g in range(G.n_units)}
        rho[2] = GroupWord.t()
        rho[3] = GroupWord.t()
        with pytest.raises(NotACocycle):
            check_word_cocycle(G, range(G.n_arrows), rho, params)


def parallel_pair_window():
    """Two units joined by two distinct arrow pairs f, g plus the four loop
    composites the cocycle checks will ask for."""
    h = Fraction(1, 2)
    return FiniteMeasuredGroupoid.window(
        [h, h],
        [(0, 1, "f"), (1, 0, "f'"), (0, 1, "g"), (1, 0, "g'"),
         (0, 0, "l0"), (0, 0, "l0'"), (1, 1, "l1"), (1, 1, "l1'")],
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        products={(0, 3): 6, (2, 1): 7, (3, 0): 4, (1, 2): 5},
    )


class TestInvariantVertexMap:
    def test_found_on_chain(self):
        params = BSParams(2, 3)
        G = partition_groupoid([Fraction(1, 3)] * 3, [(0, 1, 2)])
        words = [GroupWord.identity(), GroupWord.t(), GroupWord.t(-1)]
        rho = chain_rho(G, words)
        psi = find_invariant_vertex_map(G, whole(G), rho, params)
        assert psi is not None
        for x in range(3):
            assert psi[x] == tree.canonical_vertex(words[x], params)
        for g in range(G.n_arrows):
            moved = tree.canonical_vertex(
                rho[g] * psi[G.src[g]].rep_word(), params
            )
            assert moved == psi[G.rng[g]]

    def test_holonomy_obstruction(self):
        # rho sends the loop g' . f to a conjugate of t, which fixes no
        # vertex, so no assignment exists at any radius
        params = BSParams(2, 3)
        G = parallel_pair_window()
        t = GroupWord.t()
        rho = {0: GroupWord.identity(), 1: GroupWord.identity(),
               2: GroupWord.identity(), 3: GroupWord.identity(),
               4: t, 5: t.inverse(),
               6: t.inverse(), 7: t, 8: t.inverse(), 9: t}
        s_ids = [0, 1, 2, 3, 4, 5]
        assert find_invariant_vertex_map(G, s_ids, rho, params) is None

    def test_radius_widens_the_search(self):
        # same shape, but the loop now fixes exactly the vertices around
        # t^4, which sit outside a radius-2 ball
        params = BSParams(2, 3)
        G = parallel_pair_window()
        far = GroupWord.t(4) * GroupWord.a() * GroupWord.t(-4)
        rho = {0: GroupWord.identity(), 1: GroupWord.identity(),
               2: GroupWord.identity(), 3: GroupWord.identity(),
               4: far, 5: far.inverse(),
               6: far.inverse(), 7: far, 8: far.inverse(), 9: far}
        s_ids = [0, 1, 2, 3, 4, 5]
        assert find_invariant_vertex_map(G, s_ids, rho, params, radius=2) is None
        psi = find_invariant_vertex_map(G, s_ids, rho, params, radius=4)
        assert psi is not None
        moved = tree.canonical_vertex(far * psi[0].rep_word(), params)
        assert moved == psi[0]


class TestInducedSet:
    def build(self):
        params = BSParams(2, 3)
        G = partition_groupoid([Fraction(1, 3)] * 3, [(0, 1, 2)])
        words = [GroupWord.identity(), GroupWord.t(), GroupWord.parse("t a")]
        rho = chain_rho(G, words)
        H = Subgroupoid(G, relation_arrow_ids(G, [(0, 1), (2,)]))
        psi = find_invariant_vertex_map(G, H, rho, params)
        return params, G, rho, H, psi

    def test_induces_two_point_sets(self):
        params, G, rho, H, psi = self.build()
        assert psi is not None
        big = induce_finite_invariant_set(G, H, rho, psi, params)
        for x in range(G.n_units):
            assert len(big[x]) == 2
            assert psi[x] in big[x]

    def test_index_must_be_constant(self):
        params = BSParams(2, 3)
        G = partition_groupoid(
            [Fraction(1, 5)] * 5, [(0, 1), (2, 3, 4)]
        )
        rho = {g: GroupWord.identity() for g in range(G.n_arrows)}
        H = Subgroupoid(G, relation_arrow_ids(G, [(0, 1), (2, 3), (4,)]))
        psi = {x: tree.base_vertex(params) for x in range(G.n_units)}
        with pytest.raises(IndexNotConstant):
            induce_finite_invariant_set(G, H, rho, psi, params)

    def test_psi_must_be_invariant(self):
        params, G, rho, H, psi = self.build()
        broken = dict(psi)
        broken[1] = tree.canonical_vertex(GroupWord.t(3), params)
        with pytest.raises(ValueError):
            induce_finite_invariant_set(G, H, rho, broken, params)


def test_a_kernel_that_is_no_subgroupoid_is_refused():
    # {3}, the swap's arrow 0 -> 1 alone, is no subgroupoid: the unit
    # classes of its partition also hold the unit loops and the inverse 4
    G = FiniteMeasuredGroupoid.from_group_action([(1, 0, 2)])
    with pytest.raises(NotNormal, match=r"^unit classes do not recover the "
                       r"subgroupoid \(extra arrows \[0, 1, 2, 4\], "
                       r"unreached \[\]\)$"):
        quotient(G, [3])
